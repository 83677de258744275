// Package sim is the virtual-clock simulator backend of the machine.
//
// Every node has a virtual clock advanced by a calibrated cost model
// (machine.Params) instead of wall-clock measurement, so results are
// deterministic predictions for the paper's hardware and independent
// of the host.  Virtual time obeys message causality: a message sent
// at sender time t arrives no earlier than t + startup + perByte·n +
// perHop·hops, and a receive advances the receiver's clock to at
// least the arrival time.  The barrier (and so AllReduce, which the
// machine builds on it) synchronizes clocks the way a
// dimension-exchange implementation would on a hypercube.
//
// A node waits in one way only: a channel operation — its mailbox, a
// peer's mailbox with no room, or its barrier wake-up — in a select
// that also watches the run's dead channel, which Poison closes.  So a
// node's panic releases every peer, wherever it waits.
package sim

import (
	"math/bits"
	"sync/atomic"

	"kali/internal/machine"
)

// transport is the virtual-clock machine.Transport.
type transport struct {
	params machine.Params
	p      int
	cube   bool // node ids are hypercube addresses (P is a power of two)

	cells     []cell
	mailboxes []chan machine.Message
	pending   [][]machine.Message // received but not yet matched, per node

	// arrived counts the nodes at the current barrier; the last to
	// arrive sets every clock and wakes the others, each through its
	// own one-slot channel.
	arrived atomic.Int32
	wake    []chan struct{}

	// dead is closed by Poison (once: poisoned) and replaced by Reset.
	dead     chan struct{}
	poisoned atomic.Bool
}

// cell is one node's virtual time.  Every charge of a forall body is a
// store to clock from that node's OS thread, so cells are padded: the
// hot words of two nodes are at least cellBytes-16 bytes apart and
// never share a cache line (nor the adjacent line a prefetcher pairs
// with it), wherever the slice happens to be aligned.
type cell struct {
	clock   float64
	nicFree float64 // network-interface busy-until time (ISend wire serialization)
	_       [cellBytes - 16]byte
}

const cellBytes = 128

// New builds a simulated machine with p nodes and the given cost
// model.  When p is a power of two the node ids are hypercube
// addresses (per-hop charges use Hamming distance); otherwise hop
// distance is taken as 1.
func New(p int, params machine.Params) (*machine.Machine, error) {
	tr := &transport{
		params:    params,
		p:         p,
		cube:      p > 0 && p&(p-1) == 0,
		cells:     make([]cell, max(p, 0)),
		mailboxes: make([]chan machine.Message, max(p, 0)),
		pending:   make([][]machine.Message, max(p, 0)),
		wake:      make([]chan struct{}, max(p, 0)),
		dead:      make(chan struct{}),
	}
	for i := range tr.mailboxes {
		tr.mailboxes[i] = make(chan machine.Message, 4*p+16)
		tr.wake[i] = make(chan struct{}, 1)
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (t *transport) Backend() string { return "sim" }
func (t *transport) Begin()          {}
func (t *transport) Done(me int)     {}

func (t *transport) Elapsed(me int) float64 { return t.cells[me].clock }

func (t *transport) MaxElapsed() float64 {
	max := 0.0
	for i := range t.cells {
		if c := t.cells[i].clock; c > max {
			max = c
		}
	}
	return max
}

// ClockAddr exposes node me's clock accumulator, which the Machine's
// charges add to; Reset zeroes the cells in place, so the address
// stays valid for the machine's life.
func (t *transport) ClockAddr(me int) *float64 { return &t.cells[me].clock }

// hops returns the link distance between two nodes.
func (t *transport) hops(p, q int) int {
	if p == q {
		return 0
	}
	if !t.cube {
		return 1
	}
	return bits.OnesCount(uint(p ^ q))
}

// Send charges the sender the startup plus copy cost and stamps the
// message with its receiver-side arrival time: send completion plus
// the per-hop network latency.  A blocking send drives the wire
// itself, so the NIC timeline catches up to the clock — mixing Send
// and ISend on one node stays coherent, and a run made only of
// blocking sends is bit-identical to the pre-overlap model.
func (t *transport) Send(me, to int, msg machine.Message) {
	p, c := &t.params, &t.cells[me]
	c.clock += p.MsgStartup + float64(msg.Bytes)*p.MsgPerByte
	c.nicFree = c.clock
	msg.ArriveAt = c.clock + float64(t.hops(me, to))*p.PerHop
	t.post(to, msg)
}

// ISend charges the sender only the send startup; the per-byte wire
// time is serialized on the node's network interface, which runs
// concurrently with whatever the node computes next.  The transfer
// starts when both the startup is issued and the NIC is free, so
// back-to-back ISends queue on the wire rather than magically
// overlapping each other.  Every timestamp here is ≤ its blocking-Send
// counterpart (startup-only charge ≤ full charge; nic start takes the
// max of values that are each ≤ the blocking clock), and the receive
// rules are monotone in ArriveAt, so overlap can only shrink simulated
// clocks, never grow them.
//
// A continuation section of a cross-loop fused message (!first) skips
// the startup charge and only appends its wire time to the
// network-interface timeline.  Posting a window's sections loop-major
// at the point the unfused run would post its first loop's messages
// makes every section's ArriveAt ≤ the unfused counterpart's: the
// first loop's sections get identical timestamps (same clock, same NIC
// prefix), and later loops' sections leave a NIC that never waits for
// intervening compute, while the unfused sender posts them only after
// finishing the previous loop.
func (t *transport) ISend(me, to int, msg machine.Message, first bool) {
	p, c := &t.params, &t.cells[me]
	if first {
		c.clock += p.MsgStartup
	}
	start := c.clock
	if c.nicFree > start {
		start = c.nicFree
	}
	end := start + float64(msg.Bytes)*p.MsgPerByte
	c.nicFree = end
	msg.ArriveAt = end + float64(t.hops(me, to))*p.PerHop
	t.post(to, msg)
}

// post queues msg in node to's mailbox, waiting for room if it is full.
// The first try has no dead case: a select of one channel and a
// default costs a plain send, a select of two takes both channels'
// locks.
func (t *transport) post(to int, msg machine.Message) {
	select {
	case t.mailboxes[to] <- msg:
	default:
		select {
		case t.mailboxes[to] <- msg:
		case <-t.dead:
			panic(machine.Poisoned{})
		}
	}
}

// take returns the next message in node me's mailbox, waiting for one
// if it is empty; the first try is post's.
func (t *transport) take(me int) (msg machine.Message) {
	select {
	case msg = <-t.mailboxes[me]:
	default:
		select {
		case msg = <-t.mailboxes[me]:
		case <-t.dead:
			panic(machine.Poisoned{})
		}
	}
	return msg
}

// recv blocks until a message from `from` with the given tag is
// available, advances the clock to its arrival time, and charges
// receive overhead.
func (t *transport) recv(me, from int, tag machine.Tag) machine.Message {
	pend := t.pending[me]
	for i, msg := range pend {
		if msg.From == from && msg.Tag == tag {
			t.pending[me] = append(pend[:i], pend[i+1:]...)
			t.deliver(me, msg)
			return msg
		}
	}
	for {
		msg := t.take(me)
		if msg.From == from && msg.Tag == tag {
			t.deliver(me, msg)
			return msg
		}
		t.pending[me] = append(t.pending[me], msg)
	}
}

// WaitAny completes the lowest-indexed outstanding request: virtual
// clocks are shared mutable state, so the simulator consumes messages
// in a fixed order regardless of which goroutine enqueued first —
// identical drains to the phase-synchronous executor, hence identical
// determinism guarantees.
func (t *transport) WaitAny(me int, reqs []machine.Request, done []bool) (int, machine.Message) {
	for i, r := range reqs {
		if !done[i] {
			return i, t.recv(me, r.From, r.Tag)
		}
	}
	panic("sim: WaitAny with no outstanding request")
}

// deliver applies clock rules for consuming one message.
func (t *transport) deliver(me int, msg machine.Message) {
	c := &t.cells[me]
	if msg.ArriveAt > c.clock {
		c.clock = msg.ArriveAt
	}
	c.clock += t.params.RecvOverhead + float64(msg.Bytes)*t.params.MsgPerByte
}

// collectiveCost returns the modeled time of one hypercube collective:
// Dim stages, each a small-message exchange of nbytes.
func (t *transport) collectiveCost(nbytes int) float64 {
	d := 0
	for (1 << uint(d)) < t.p {
		d++
	}
	if d == 0 {
		return 0
	}
	per := t.params.MsgStartup + float64(nbytes)*t.params.MsgPerByte +
		t.params.PerHop + t.params.RecvOverhead
	return float64(d) * per
}

// Barrier synchronizes all nodes; afterwards every clock equals the
// pre-barrier maximum plus the collective cost.  A node's clock is
// final when it arrives, so the last arrival sets every clock before
// it wakes the others.
func (t *transport) Barrier(me int) {
	if t.arrived.Add(1) < int32(t.p) {
		select {
		case <-t.wake[me]:
		case <-t.dead:
			panic(machine.Poisoned{})
		}
		return
	}
	t.arrived.Store(0)
	at := t.MaxElapsed() + t.collectiveCost(8)
	for i := range t.cells {
		t.cells[i].clock = at
	}
	for i, w := range t.wake {
		if i != me {
			w <- struct{}{}
		}
	}
}

// Poison closes dead, releasing every node that waits.
func (t *transport) Poison() {
	if t.poisoned.CompareAndSwap(false, true) {
		close(t.dead)
	}
}

func (t *transport) Reset() {
	if t.poisoned.CompareAndSwap(true, false) {
		t.dead = make(chan struct{})
	}
	t.arrived.Store(0)
	for i := range t.cells {
		t.cells[i] = cell{}
		t.pending[i] = t.pending[i][:0]
		select {
		case <-t.wake[i]:
		default:
		}
	drain:
		for {
			select {
			case <-t.mailboxes[i]:
			default:
				break drain
			}
		}
	}
}
