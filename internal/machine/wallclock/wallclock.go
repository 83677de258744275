// Package wallclock is the real shared-memory backend of the machine:
// nodes are goroutines pinned to OS threads, messages move through
// per-pair in-memory queues, and elapsed time is measured with the
// host's monotonic clock.  Modeled time charges (Advance, Charge) are
// no-ops — the operations being charged just happened for real.
//
// The same compiled schedules the paper's inspector/executor builds
// (§3) run here unmodified; only the node runtime differs, turning
// the simulator's predicted speedups (§4, Figures 7–10) into measured
// ones.  Message queues are unbounded (a send never blocks), per
// ordered sender→receiver pair, and reuse their backing arrays once
// drained, so steady-state schedule replay allocates nothing in the
// transport.
//
// Everything that blocks — a drain with nothing to take, Recv, the
// barrier — blocks in one primitive, the waiter (waiter.go), which
// polls for a bounded time before it parks while every wall node
// running in the process can own a processor: the awaited peer is then
// running, and a hand-off costs a cache miss, not a thread wake-up.
package wallclock

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"kali/internal/machine"
)

// transport is the wall-clock machine.Transport.
type transport struct {
	p int

	// queues[to*p+from] carries messages from `from` to `to`.
	queues []queue
	nodes  []node

	// barrier's word is the barrier's generation, arrived how many nodes
	// wait for it to pass.
	barrier waiter
	arrived atomic.Int32

	epoch time.Time
}

// node is one node's share of the transport, padded so that the word
// node i polls never shares a cache line (or the adjacent line a
// prefetcher pairs with it) with the one node i+1 polls.
type node struct {
	// doorbell is bumped by every push toward the node, so its drain
	// polls all outstanding peers and blocks in one place.
	doorbell waiter
	// finished freezes the node's elapsed time when its program
	// returns, so MaxElapsed is stable after the run.  Written by the
	// node in Done, read after Machine.Run's WaitGroup (happens-before).
	finished float64
	done     bool
	_        [nodeBytes - unsafe.Sizeof(waiter{}) - 16]byte
}

const nodeBytes = 256

// New builds a wall-clock machine with p nodes.  The params are kept
// for reporting only (machine name in tables); no cost is ever
// charged from them.
func New(p int, params machine.Params) (*machine.Machine, error) {
	n := max(p, 0)
	tr := &transport{
		p:      p,
		queues: make([]queue, n*n),
		nodes:  make([]node, n),
	}
	tr.barrier.init()
	for i := range tr.nodes {
		tr.nodes[i].doorbell.init()
	}
	return machine.NewWith(p, params, tr)
}

// MustNew is New that panics on error.
func MustNew(p int, params machine.Params) *machine.Machine {
	m, err := New(p, params)
	if err != nil {
		panic(err)
	}
	return m
}

func (t *transport) Backend() string { return "wall" }

// ClockAddr is nil: time is not modeled here.
func (t *transport) ClockAddr(me int) *float64 { return nil }

// Begin counts the machine's nodes as running (Done takes each out
// again): see uncrowded.
func (t *transport) Begin() {
	cpus.Store(int32(min(runtime.GOMAXPROCS(0), runtime.NumCPU())))
	running.Add(int32(t.p))
	t.restart()
}

// restart stamps the epoch and marks every node unfinished.
func (t *transport) restart() {
	for i := range t.nodes {
		t.nodes[i].done, t.nodes[i].finished = false, 0
	}
	t.epoch = time.Now()
}

func (t *transport) Done(me int) {
	t.nodes[me].finished = time.Since(t.epoch).Seconds()
	t.nodes[me].done = true
	running.Add(-1)
}

func (t *transport) Elapsed(me int) float64 {
	if t.nodes[me].done {
		return t.nodes[me].finished
	}
	return time.Since(t.epoch).Seconds()
}

func (t *transport) MaxElapsed() float64 {
	slowest := 0.0
	for me := range t.nodes {
		slowest = max(slowest, t.Elapsed(me))
	}
	return slowest
}

func (t *transport) Send(me, to int, msg machine.Message) {
	t.queues[to*t.p+me].push(msg)
	t.nodes[to].doorbell.bump()
}

// ISend is Send, for first sections and continuations alike: pushes
// already complete without rendezvous on this backend, so the
// nonblocking semantics hold for free.  The real overlap is on the
// receive side — WaitAny lets the boundary pass consume whichever peer
// finishes first instead of blocking on a fixed order.
func (t *transport) ISend(me, to int, msg machine.Message, first bool) {
	t.Send(me, to, msg)
}

// WaitAny polls every outstanding request's queue and returns the
// first message found; if none is ready it waits on the node's
// doorbell until a new push (or Poison) arrives, then rescans.
// Completion order is physical arrival order, so one slow peer never
// blocks the drain of messages that are already here.  Steady-state
// replay allocates nothing here.
func (t *transport) WaitAny(me int, reqs []machine.Request, done []bool) (int, machine.Message) {
	bell := &t.nodes[me].doorbell
	for {
		seq := bell.snapshot()
		any := false
		for i := range reqs {
			if done[i] {
				continue
			}
			any = true
			if msg, ok := t.queues[me*t.p+reqs[i].From].tryPop(reqs[i].Tag); ok {
				return i, msg
			}
		}
		if !any {
			panic("wallclock: WaitAny with no outstanding request")
		}
		bell.wait(seq)
	}
}

// Barrier is a reusable counting barrier: the last of p arrivals
// zeroes the count and bumps, the others wait for the generation they
// arrived in to pass.  Nobody re-arrives before seeing the bump, so
// generations cannot mix, and the arrival's add and the bump order
// writes before the barrier ahead of reads after it (Node.AllReduce).
func (t *transport) Barrier(me int) {
	gen := t.barrier.snapshot()
	if t.arrived.Add(1) == int32(t.p) {
		t.arrived.Store(0)
		t.barrier.bump()
		return
	}
	t.barrier.wait(gen)
}

func (t *transport) Poison() {
	t.barrier.poison()
	for i := range t.nodes {
		t.nodes[i].doorbell.poison()
	}
}

func (t *transport) Reset() {
	t.arrived.Store(0)
	t.barrier.seq.Store(0)
	for i := range t.queues {
		t.queues[i].reset()
	}
	for i := range t.nodes {
		t.nodes[i].doorbell.seq.Store(0)
	}
	t.restart()
}
