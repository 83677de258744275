package machine

// Transport is the node runtime behind a Machine: how messages move
// between nodes, how elapsed time is accounted, and how collectives
// synchronize.  The paper's entire schedule pipeline — compile-time
// analysis, the inspector/executor, schedule caching and sharing,
// redistribution plans — runs above this interface unmodified; only
// the node runtime swaps:
//
//   - sim (internal/machine/sim) is the virtual-clock simulator: every
//     primitive operation advances a per-node clock by a calibrated
//     cost model (Params), so reported times are deterministic
//     predictions for the paper's hardware (§4).
//   - wallclock (internal/machine/wallclock) runs nodes as pinned OS
//     threads with real shared-memory message queues: modeled charges
//     are no-ops, and elapsed time is measured with the monotonic
//     clock — the same compiled schedules, timed for real.
//
// The executor needs three things from the machine (Figure 3): send,
// receive and a clock; each has one method here, and the collectives
// need one more, Barrier (Node.AllReduce is built on it): twelve
// methods in all.  All per-node methods (ISend, Send, WaitAny, Elapsed,
// Barrier) are called only from node me's program goroutine; Begin,
// Poison, MaxElapsed and Reset are called by the Machine while no node
// program is running (except Poison, which a panicking node calls to
// release its peers).
type Transport interface {
	// Backend names the runtime ("sim", "wall") for reports.
	Backend() string

	// ClockAddr returns the address of node me's virtual clock, a plain
	// float64 accumulator the Machine adds cost-model seconds to, or nil
	// when time is not modeled: then the Machine skips the cost
	// arithmetic entirely and elapsed time comes from the host's
	// monotonic clock.  The pointer must stay valid across Reset (Reset
	// may zero the value, not replace the storage).
	ClockAddr(me int) *float64

	// Begin marks the start of one Machine.Run (wall-clock backends
	// stamp the epoch all Elapsed values are measured from).
	Begin()

	// Done marks node me's program as returned, freezing its Elapsed
	// value so MaxElapsed is stable after the run.
	Done(me int)

	// Elapsed returns node me's elapsed seconds since Begin: the
	// virtual clock for the simulator, monotonic wall time for real
	// backends.  Phase timers are differences of Elapsed.
	Elapsed(me int) float64

	// MaxElapsed returns the maximum Elapsed over all nodes — the
	// machine's elapsed time (the slowest node determines it).
	MaxElapsed() float64

	// Send ships msg from me to node to; it must not block
	// indefinitely when the receiver is not yet waiting for it.
	// Messages between one pair are delivered in send order.
	Send(me, to int, msg Message)

	// ISend is the nonblocking Send behind split-phase executors: the
	// transfer's wire time must not sit on the sender's critical path.
	// The simulator charges the sender only the send startup and
	// serializes the per-byte copy on the node's network interface,
	// overlapping subsequent compute; real backends already enqueue
	// without rendezvous, so ISend and Send coincide there.  first is
	// false for a continuation section of a cross-loop fused message,
	// which extends the transfer its peer's first section started: no
	// new startup.  Delivery order between one pair is still send
	// order, and Send/ISend may be mixed on one stream.
	ISend(me, to int, msg Message, first bool)

	// WaitAny blocks until some request reqs[i] with !done[i] has a
	// matching message available and returns (i, message); the caller
	// marks done[i].  Virtual-time backends complete requests in slice
	// order so clocks stay deterministic; wall-clock backends return
	// whichever request physically completes first.  WaitAny must not
	// allocate on the steady-state path.
	WaitAny(me int, reqs []Request, done []bool) (int, Message)

	// Barrier blocks until all nodes arrive.  Writes a node makes
	// before it are visible to every node after it.
	Barrier(me int)

	// Poison releases every blocked wait after a node panic so
	// Machine.Run can unwind: a Barrier, a WaitAny (so a Recv) and, on
	// the simulator, a Send into a full mailbox.  A released wait
	// panics with Poisoned.
	Poison()

	// Reset restores the transport for another Run: clocks zeroed,
	// queues drained.
	Reset()
}
