// Package machine models a distributed-memory multicomputer behind a
// swappable node runtime.
//
// The paper's evaluation (§4, Figures 7–10) runs Kali on two
// hypercubes, the NCUBE/7 and the iPSC/2.  This package provides the
// machine abstraction those programs run on: every node is a goroutine
// with its own local memory, and all interaction happens through
// explicit messages and collectives, exactly as on the real machines.
// How messages move and how time is accounted is the Transport's
// business: the sim backend (internal/machine/sim) charges a
// calibrated cost model (Params) to per-node virtual clocks so results
// are deterministic predictions, while the wallclock backend
// (internal/machine/wallclock) runs nodes on real OS threads and
// measures real elapsed time — the same compiled schedules, timed for
// real.  Event counts (Stats) are backend-independent: both backends
// move exactly the messages the schedules prescribe.
package machine

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
)

// Tag distinguishes message streams between the same pair of nodes.
type Tag int

// Reserved tags; user programs should use tags >= TagUser.
const (
	TagData Tag = iota
	TagCrystal
	// TagRedist marks array-redistribution traffic (the all-to-all that
	// rebinds a distributed array to a new dist clause).  Messages sent
	// under it are attributed to the Redist* columns of Stats, so loop
	// (forall) traffic and remapping traffic stay separately countable.
	TagRedist
	// TagFused is the base tag of cross-loop fused traffic: a fusion
	// window of k consecutive foralls sends loop j's section of the
	// aggregated per-pair message under TagFused+j, so the receiver's
	// per-loop drain matches its own section unambiguously.  Windows are
	// capped (MaxFusedLoops) so fused tags never reach TagUser.
	TagFused
	TagUser Tag = 16
)

// MaxFusedLoops bounds the number of loops one fusion window may span:
// fused section tags occupy [TagFused, TagFused+MaxFusedLoops), which
// must stay below TagUser.
const MaxFusedLoops = int(TagUser - TagFused)

// FusedTag returns the section tag of window-loop k, panicking if k is
// outside the reserved fused-tag range.
func FusedTag(k int) Tag {
	if k < 0 || k >= MaxFusedLoops {
		panic(fmt.Sprintf("machine: fused section index %d outside [0,%d)", k, MaxFusedLoops))
	}
	return TagFused + Tag(k)
}

// Message is one in-flight message.
type Message struct {
	From    int
	Tag     Tag
	Payload any
	Bytes   int
	// ArriveAt is the receiver-side arrival time on the virtual clock;
	// only the sim transport uses it.
	ArriveAt float64
}

// Machine is a P-node multicomputer over some Transport.
type Machine struct {
	params Params
	p      int
	tr     Transport
	nodes  []*Node

	// reduceVals are AllReduce's operand slots, one per node, in two
	// sets that alternate by the parity of the node's AllReduce count:
	// a node can be at most one AllReduce ahead of another, so one
	// barrier both publishes an operand set and guards the other.
	reduceVals [2][]float64

	scratchMu sync.Mutex
	scratch   map[any]any
}

// NewWith builds a machine with p nodes over the given transport.
// The params are the cost model virtual-time backends charge (real
// backends keep them only for reporting).  Most callers use the
// backend constructors sim.New / wallclock.New instead.
func NewWith(p int, params Params, tr Transport) (*Machine, error) {
	if p < 1 {
		return nil, fmt.Errorf("machine: need at least one node, got %d", p)
	}
	m := &Machine{params: params, p: p, tr: tr}
	m.reduceVals = [2][]float64{make([]float64, p), make([]float64, p)}
	m.nodes = make([]*Node, p)
	for i := 0; i < p; i++ {
		n := &Node{id: i, m: m, clock: tr.ClockAddr(i), phases: map[string]float64{}}
		n.virtual = n.clock != nil
		if !n.virtual {
			n.clock = &n.idleClock
		}
		m.nodes[i] = n
	}
	return m, nil
}

// P returns the number of nodes.
func (m *Machine) P() int { return m.p }

// Params returns the cost model in effect.
func (m *Machine) Params() Params { return m.params }

// Backend returns the transport's name ("sim", "wall").
func (m *Machine) Backend() string { return m.tr.Backend() }

// Transport returns the node runtime, for backend-specific tests.
func (m *Machine) Transport() Transport { return m.tr }

// Dim returns the hypercube dimension ⌈log2 P⌉.
func (m *Machine) Dim() int {
	d := 0
	for (1 << uint(d)) < m.p {
		d++
	}
	return d
}

// Node returns node i (valid after NewWith, including between Runs).
func (m *Machine) Node(i int) *Node { return m.nodes[i] }

// Scratch returns the machine-lifetime value stored under key,
// creating it with mk on first use.  Higher layers use it for caches
// that must live exactly as long as the machine (e.g. the darray
// redistribution-plan store) without resorting to package-global state
// that would outlive every machine of the process.  Safe for
// concurrent use by node programs.
func (m *Machine) Scratch(key any, mk func() any) any {
	m.scratchMu.Lock()
	defer m.scratchMu.Unlock()
	if m.scratch == nil {
		m.scratch = map[any]any{}
	}
	v, ok := m.scratch[key]
	if !ok {
		v = mk()
		m.scratch[key] = v
	}
	return v
}

// Poisoned is the value a transport panics with in a wait that Poison
// released: the node did nothing wrong, a peer's panic ended the run.
type Poisoned struct{}

func (Poisoned) Error() string { return "machine: poisoned by peer panic" }

// Run executes prog on every node concurrently (SPMD) and returns when
// all nodes finish.  On real (non-virtual) transports each node
// goroutine is pinned to an OS thread for the duration of the program,
// so P nodes genuinely occupy up to P cores.  If any node program
// panics, the transport is poisoned, which releases every peer blocked
// in a wait, and once all nodes have returned Run panics with the
// root cause: the panic of the lowest-id node that was not merely
// released (Poisoned).
func (m *Machine) Run(prog func(n *Node)) {
	m.tr.Begin()
	pin := !m.nodes[0].virtual
	var wg sync.WaitGroup
	panics := make([]any, m.p)
	for i := 0; i < m.p; i++ {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			if pin {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			defer func() {
				m.tr.Done(n.id)
				if r := recover(); r != nil {
					panics[n.id] = r
					m.tr.Poison()
				}
			}()
			prog(n)
		}(m.nodes[i])
	}
	wg.Wait()
	cause := slices.IndexFunc(panics, func(r any) bool {
		_, released := r.(Poisoned)
		return r != nil && !released
	})
	if cause < 0 {
		cause = slices.IndexFunc(panics, func(r any) bool { return r != nil })
	}
	if cause >= 0 {
		panic(fmt.Sprintf("machine: node %d panicked: %v", cause, panics[cause]))
	}
}

// MaxClock returns the maximum elapsed time over all nodes — the
// elapsed time of the program (virtual seconds on the simulator, real
// seconds on wall-clock backends).
func (m *Machine) MaxClock() float64 { return m.tr.MaxElapsed() }

// MaxPhase returns the maximum accumulated time of a named phase over
// all nodes.  The paper reports per-phase times this way (the slowest
// processor determines elapsed time).
func (m *Machine) MaxPhase(name string) float64 {
	max := 0.0
	for _, n := range m.nodes {
		if t := n.phases[name]; t > max {
			max = t
		}
	}
	return max
}

// Reset zeroes all clocks, phase timers, stats and message queues so
// the machine can run another program.
func (m *Machine) Reset() {
	for _, n := range m.nodes {
		n.phases = map[string]float64{}
		n.phaseStack = n.phaseStack[:0]
		n.stats = Stats{}
		n.reduces = 0
	}
	m.tr.Reset()
}

// Stats counts communication/computation events on a node, for tests
// and reports.  Counts are identical across backends — schedules
// prescribe the traffic, the transport only moves it — which is what
// lets the backend-equivalence tests pin sim and wall-clock runs
// against each other.  MsgsSent/BytesSent count every message; the
// Redist* fields count the subset sent under TagRedist, so
// redistribution traffic is attributed distinctly from forall
// (executor/inspector) traffic rather than being silently absorbed
// into the loop totals.  The Fused* fields count cross-loop aggregated
// messages (first sections sent under the TagFused range): one fused
// message replaces several per-loop messages to the same peer, so
// MsgsSent drops while FusedMsgsSent counts what remains.  Only fusion
// windows of two or more loops count: a loop executed on its own sends
// plain TagData messages, and the reference executor (which never
// fuses) leaves both fields zero.
type Stats struct {
	MsgsSent     int
	BytesSent    int
	MsgsReceived int
	FlopCount    int64

	RedistMsgsSent  int
	RedistBytesSent int

	FusedMsgsSent  int
	FusedBytesSent int
}

// Sub returns the field-wise difference s - o: the events that
// happened between two snapshots (e.g. across one loop replay, which
// is how kalibench's commvec table counts messages per execution).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		MsgsSent:        s.MsgsSent - o.MsgsSent,
		BytesSent:       s.BytesSent - o.BytesSent,
		MsgsReceived:    s.MsgsReceived - o.MsgsReceived,
		FlopCount:       s.FlopCount - o.FlopCount,
		RedistMsgsSent:  s.RedistMsgsSent - o.RedistMsgsSent,
		RedistBytesSent: s.RedistBytesSent - o.RedistBytesSent,
		FusedMsgsSent:   s.FusedMsgsSent - o.FusedMsgsSent,
		FusedBytesSent:  s.FusedBytesSent - o.FusedBytesSent,
	}
}

// Add returns the field-wise sum s + o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		MsgsSent:        s.MsgsSent + o.MsgsSent,
		BytesSent:       s.BytesSent + o.BytesSent,
		MsgsReceived:    s.MsgsReceived + o.MsgsReceived,
		FlopCount:       s.FlopCount + o.FlopCount,
		RedistMsgsSent:  s.RedistMsgsSent + o.RedistMsgsSent,
		RedistBytesSent: s.RedistBytesSent + o.RedistBytesSent,
		FusedMsgsSent:   s.FusedMsgsSent + o.FusedMsgsSent,
		FusedBytesSent:  s.FusedBytesSent + o.FusedBytesSent,
	}
}

// TotalStats sums the event counters over all nodes — the machine-wide
// message count and bytes moved.  Call it only while no node program
// is running.
func (m *Machine) TotalStats() Stats {
	var t Stats
	for _, n := range m.nodes {
		t = t.Add(n.stats)
	}
	return t
}

// Node is one processor of the machine.  All methods must be called
// only from within the node's own program goroutine.
type Node struct {
	id int
	m  *Machine
	// virtual is whether time is modeled (Transport.ClockAddr is not
	// nil); charges skip the cost arithmetic on real backends.  clock
	// addresses the transport's accumulator, so a charge is one add
	// through a pointer, not an interface call; on real backends it is
	// idleClock, a scratch word nothing reads.
	virtual   bool
	clock     *float64
	idleClock float64

	// recvReq and recvDone are Recv's one-request WaitAny, held here so
	// that the slices passed through the Transport do not escape from
	// a stack array on every receive.
	recvReq  [1]Request
	recvDone [1]bool

	// reduces counts the node's AllReduce calls; its parity picks the
	// machine's operand set.
	reduces int

	phases     map[string]float64
	phaseStack []phaseFrame

	stats Stats
}

type phaseFrame struct {
	name  string
	start float64
}

// ID returns the node id in [0, P).
func (n *Node) ID() int { return n.id }

// P returns the machine size.
func (n *Node) P() int { return n.m.p }

// Machine returns the owning machine.
func (n *Node) Machine() *Machine { return n.m }

// Clock returns the node's current elapsed time in seconds (virtual
// on the simulator, monotonic wall time on real backends).
func (n *Node) Clock() float64 { return n.m.tr.Elapsed(n.id) }

// Stats returns the node's event counters.
func (n *Node) Stats() Stats { return n.stats }

// Advance adds raw seconds of modeled time (a no-op on real backends,
// where operations take real time instead).
func (n *Node) Advance(seconds float64) {
	if seconds < 0 {
		panic("machine: negative time advance")
	}
	n.advance(seconds)
}

// advance adds modeled seconds to the clock.  It and the single-term
// charges built on it stay within the inliner's budget: on real
// backends a charge inlines to one branch on virtual.
func (n *Node) advance(seconds float64) { *n.clock += seconds }

// Charge advances the clock by a combination of primitive costs; see
// Params for the meaning of each count.  Real backends skip the cost
// arithmetic — the operation being charged just happened for real —
// but the flop count is recorded on every backend.
func (n *Node) Charge(c Cost) {
	n.stats.FlopCount += int64(c.Flops)
	if !n.virtual {
		return
	}
	p := &n.m.params
	n.advance(float64(c.Flops)*p.Flop +
		float64(c.MemRefs)*p.MemRef +
		float64(c.LoopIters)*p.LoopIter +
		float64(c.Calls)*p.Call +
		float64(c.RefChecks)*p.RefCheck +
		float64(c.LocTests)*p.LocTest +
		float64(c.ListInserts)*p.ListInsert)
}

// The single-category fast charges below are bit-identical to the
// general Charge with the same counts — in Charge's sum every other
// term contributes exactly +0.0, which never changes the value of a
// non-negative cost — but skip the six dead multiplies.  They exist
// for the per-element body path (one charge per operator and per
// reference), where Charge itself showed up in profiles.

// ChargeFlops charges k flops as one advance of k*Flop seconds,
// exactly like Charge(Cost{Flops: k}).
func (n *Node) ChargeFlops(k int) {
	n.stats.FlopCount += int64(k)
	if n.virtual {
		n.advance(float64(k) * n.m.params.Flop)
	}
}

// ChargeFlopsUnit charges k single-flop operations as k separate unit
// advances — bit-identical to k calls of Charge(Cost{Flops: 1}), NOT
// to ChargeFlops(k): the clock is a float accumulator, so both the
// unit size and the accumulation order are observable.  The bytecode
// VM uses it to replay the tree-walker's per-operator charges.
func (n *Node) ChargeFlopsUnit(k int) {
	n.stats.FlopCount += int64(k)
	if !n.virtual {
		return
	}
	// One load and one store around the k adds: through the pointer
	// every add would round-trip memory.
	f, t := n.m.params.Flop, *n.clock
	for i := 0; i < k; i++ {
		t += f
	}
	*n.clock = t
}

// ChargeMemRefs charges k memory references, exactly like
// Charge(Cost{MemRefs: k}).
func (n *Node) ChargeMemRefs(k int) {
	if n.virtual {
		n.advance(float64(k) * n.m.params.MemRef)
	}
}

// ChargeLocTest charges one locality test, exactly like
// Charge(Cost{LocTests: 1}).
func (n *Node) ChargeLocTest() {
	if n.virtual {
		n.advance(n.m.params.LocTest)
	}
}

// ChargeLoopIter charges one loop iteration's overhead, exactly like
// Charge(Cost{LoopIters: 1}).
func (n *Node) ChargeLoopIter() {
	if n.virtual {
		n.advance(n.m.params.LoopIter)
	}
}

// ChargeRefCheck charges one inspector reference check, exactly like
// Charge(Cost{RefChecks: 1}).
func (n *Node) ChargeRefCheck() {
	if n.virtual {
		n.advance(n.m.params.RefCheck)
	}
}

// ChargeListInsert charges one insert into an inspector list, exactly
// like Charge(Cost{ListInserts: 1}).
func (n *Node) ChargeListInsert() {
	if n.virtual {
		n.advance(n.m.params.ListInsert)
	}
}

// UnitCosts are the prices of the single-term charges a forall body
// makes per element, as ClockCell hands them out: the locality test is
// a boundary read's.
type UnitCosts struct{ Flop, MemRef, LoopIter, LocTest float64 }

// ClockCell is the register-held form of the single-term charges, for
// a loop that charges several times per element: the caller loads the
// cell into a local variable once, adds unit prices to the local —
// adding u.Flop, u.MemRef, u.LoopIter or u.LocTest is bit-identical to
// ChargeFlopsUnit(1), ChargeMemRefs(1), ChargeLoopIter() or
// ChargeLocTest(), because each of those is that one float addition on
// the same accumulator, and so is adding SearchCost(r) to
// ChargeSearch(r) —
// and stores the local back before anything else can observe the
// clock: every other Node method, and so every forall.Env and
// transport call.  Flops charged this way are reported through
// AddFlopCount.  On real backends charges are free: the cell is a
// scratch word and the prices are zero.
func (n *Node) ClockCell() (cell *float64, u UnitCosts) {
	if !n.virtual {
		return n.clock, UnitCosts{}
	}
	p := &n.m.params
	return n.clock, UnitCosts{Flop: p.Flop, MemRef: p.MemRef, LoopIter: p.LoopIter, LocTest: p.LocTest}
}

// AddFlopCount records k flops whose time was charged through a
// ClockCell: the Stats half of ChargeFlopsUnit.
func (n *Node) AddFlopCount(k int64) { n.stats.FlopCount += k }

// Cost is a bundle of primitive-operation counts for Charge.
type Cost struct {
	Flops       int
	MemRefs     int
	LoopIters   int
	Calls       int
	RefChecks   int
	LocTests    int
	ListInserts int
}

// ChargeSearch charges one sorted-range binary search over r ranges:
// a procedure call plus ⌈log2(r+1)⌉ probes (the paper's O(log r)
// access, Figure 5 discussion).
func (n *Node) ChargeSearch(r int) {
	if n.virtual {
		n.advance(n.SearchCost(r))
	}
}

// SearchCost is the price ChargeSearch(r) adds to the clock, for a
// caller holding it in a ClockCell; zero on real backends.
func (n *Node) SearchCost(r int) float64 {
	if !n.virtual {
		return 0
	}
	p := &n.m.params
	probes := max(1, bits.Len(uint(r))) // smallest k >= 1 with 2^k > r
	return p.SearchBase + float64(probes)*p.SearchProbe
}

// Send transmits payload to node `to`.  nbytes is the wire size used
// for cost accounting.  On the simulator the sender is charged the
// startup plus copy cost and the message arrives after the modeled
// network latency; on real backends the transfer happens through
// shared memory and takes however long it takes.
func (n *Node) Send(to int, tag Tag, payload any, nbytes int) {
	n.count(to, tag, nbytes, true)
	n.m.tr.Send(n.id, to, Message{From: n.id, Tag: tag, Payload: payload, Bytes: nbytes})
}

// ISend posts payload for delivery to node `to` without blocking on
// the transfer: the split-phase executor's nonblocking send.  Event
// counts are identical to Send — schedules prescribe the same traffic
// either way — but the wire time leaves the sender's critical path.
// On the simulator the sender is charged only the send startup, and
// the per-byte wire time is serialized on the node's network
// interface, overlapping whatever the sender computes next; on real
// backends every send already enqueues without rendezvous, so ISend
// and Send coincide.
//
// A fusion window sends each peer one logical message made of
// per-loop sections under the fused tags; the section payloads are
// bit-identical to the per-loop messages an unfused run would send,
// but only the first section (first) is a real message start: it pays
// the send startup and counts in MsgsSent (and FusedMsgsSent).
// Continuation sections extend the same transfer — their bytes append
// to the sender's network-interface timeline with no new startup and
// no new message count, which is exactly why the fused sender's clock
// can only shrink relative to the unfused one.
func (n *Node) ISend(to int, tag Tag, payload any, nbytes int, first bool) {
	n.count(to, tag, nbytes, first)
	n.m.tr.ISend(n.id, to, Message{From: n.id, Tag: tag, Payload: payload, Bytes: nbytes}, first)
}

// count records one sent message (or continuation section, !first) in
// the node's Stats, attributing it by tag.
func (n *Node) count(to int, tag Tag, nbytes int, first bool) {
	if to == n.id {
		panic("machine: send to self")
	}
	msgs := 0
	if first {
		msgs = 1
	}
	n.stats.MsgsSent += msgs
	n.stats.BytesSent += nbytes
	switch {
	case tag == TagRedist:
		n.stats.RedistMsgsSent += msgs
		n.stats.RedistBytesSent += nbytes
	case tag >= TagFused && tag < TagUser:
		n.stats.FusedMsgsSent += msgs
		n.stats.FusedBytesSent += nbytes
	}
}

// Recv blocks until a message from `from` with the given tag is
// available and returns it (advancing the virtual clock to its arrival
// time and charging receive overhead on the simulator): a WaitAny of
// one request.
func (n *Node) Recv(from int, tag Tag) Message {
	n.recvReq[0], n.recvDone[0] = Request{From: from, Tag: tag}, false
	_, msg := n.m.tr.WaitAny(n.id, n.recvReq[:], n.recvDone[:])
	n.stats.MsgsReceived++
	return msg
}

// Request identifies one posted receive: the (sender, tag) pair a
// WaitAny completes.  Requests are plain values so schedules can
// preallocate them per peer and replay without allocating.
type Request struct {
	From int
	Tag  Tag
}

// WaitAny completes one not-yet-done posted receive among reqs,
// returning its index and message; the caller marks done[i] and loops
// until every request has completed.  On wall-clock backends the
// request that physically completes first is returned, so a boundary
// pass blocks per-peer only as needed; the simulator completes
// requests in slice order, which keeps virtual clocks deterministic.
// done and firsts must be parallel to reqs; at least one done entry
// must be unset.  Only a message's first section (firsts[i]) counts in
// MsgsReceived: a fused message's continuation sections complete as
// parts of the same logical message.
func (n *Node) WaitAny(reqs []Request, done []bool, firsts []bool) (int, Message) {
	i, msg := n.m.tr.WaitAny(n.id, reqs, done)
	if firsts[i] {
		n.stats.MsgsReceived++
	}
	return i, msg
}

// Barrier synchronizes all nodes (on the simulator, afterwards every
// clock equals the pre-barrier maximum plus the collective cost).
func (n *Node) Barrier() { n.m.tr.Barrier(n.id) }

// AllReduce combines one float64 from every node with op ("sum",
// "max", "min", "and" — "and" treats nonzero as true) and returns the
// combined value on every node.  Clocks synchronize like a barrier.
// The combination order is by node id on every backend, so results
// are bit-identical across backends.  It is one barrier: each node
// writes its operand before it and folds every operand after it.
func (n *Node) AllReduce(x float64, op string) float64 {
	vals := n.m.reduceVals[n.reduces&1]
	n.reduces++
	vals[n.id] = x
	n.m.tr.Barrier(n.id)
	return reduceByID(vals, op)
}

// StartPhase begins accumulating elapsed time under the given name.
// Phases may nest; time is attributed to every open phase.
func (n *Node) StartPhase(name string) {
	n.phaseStack = append(n.phaseStack, phaseFrame{name: name, start: n.m.tr.Elapsed(n.id)})
}

// StopPhase ends the innermost phase, which must match name.
func (n *Node) StopPhase(name string) {
	if len(n.phaseStack) == 0 {
		panic("machine: StopPhase without StartPhase")
	}
	top := n.phaseStack[len(n.phaseStack)-1]
	if top.name != name {
		panic(fmt.Sprintf("machine: StopPhase(%q) but innermost phase is %q", name, top.name))
	}
	n.phaseStack = n.phaseStack[:len(n.phaseStack)-1]
	n.phases[name] += n.m.tr.Elapsed(n.id) - top.start
}

// PhaseTime returns the accumulated time of a phase on this node.
func (n *Node) PhaseTime(name string) float64 { return n.phases[name] }

// reduceByID combines per-node values in node-id order with op, so
// AllReduce's results are bit-identical across backends.
func reduceByID(vals []float64, op string) float64 {
	acc := vals[0]
	for i := 1; i < len(vals); i++ {
		v := vals[i]
		switch op {
		case "sum":
			acc += v
		case "max":
			if v > acc {
				acc = v
			}
		case "min":
			if v < acc {
				acc = v
			}
		case "and":
			if acc != 0 && v != 0 {
				acc = 1
			} else {
				acc = 0
			}
		default:
			panic(fmt.Sprintf("machine: unknown reduction op %q", op))
		}
	}
	return acc
}
