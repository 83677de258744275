package comm

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Payload is a recyclable message body: the executor packs a loop's
// outgoing values into Vals, ships the *Payload through the simulated
// machine, and the receiver returns it to the pool after unpacking.
// Messages carry the pointer (not the slice) so that handing it to the
// machine's untyped payload field never boxes a slice header.
type Payload struct {
	Vals []float64
}

// BufPool is a free list of message payloads shared by the sending and
// receiving ends of one machine's executors: a buffer is acquired by
// the sender and released by the receiver, so per-node lists would
// drain on one side and pile up on the other.  Unlike sync.Pool it
// never drops buffers, so once a communication pattern has its
// buffers, cached replays allocate nothing.  The zero value is empty.
//
// Buffers live in power-of-two capacity classes and a request is
// served from its own class only.  What a class needs at peak depends
// on how far a sender may run ahead of a receiver, which goroutine
// scheduling should not decide: a node declares each schedule's
// messages with Reserve when it builds the schedule, and Get allocates
// (News) only for demand beyond every declaration.
type BufPool struct {
	// Totals, when set before first use, is a pool whose counters also
	// count this pool's traffic (a process-wide sum over machines).
	Totals *BufPool

	mu   sync.Mutex
	free [poolClasses][]*Payload
	// want[node][c] is the most class-c buffers a schedule of node needs.
	want [][poolClasses]int32

	// Atomics, not fields under mu: servers read the counters while
	// nodes execute, and the totals are bumped by many pools at once.
	gets, puts, news atomic.Int64
}

const (
	// poolClasses bounds the classes: class c holds capacities in
	// [2^c, 2^(c+1)) and serves requests of up to 2^c values.
	poolClasses = 48
	// inFlight is how many executions' worth of its own messages a node
	// can have out at once: having drained its peers' messages of
	// execution k it may post k+1 while a peer still holds its k, and
	// no further — k+2 needs that peer's k+1.  (A node that only sends
	// is bounded by the program's barriers.)
	inFlight = 2
)

// PoolStats is a point-in-time snapshot of pool traffic, safe to take
// while node programs are running.  News counts the Gets no pooled
// buffer could satisfy — a warmed pattern replays with News flat while
// Gets keeps climbing, and Gets == Puts whenever nothing is in flight.
// Idle is the current free-list population.
type PoolStats struct {
	Gets int64
	Puts int64
	News int64
	Idle int
}

// Add returns the field-wise sum s + o.
func (s PoolStats) Add(o PoolStats) PoolStats {
	return PoolStats{Gets: s.Gets + o.Gets, Puts: s.Puts + o.Puts, News: s.News + o.News, Idle: s.Idle + o.Idle}
}

// classFor returns the class serving requests of n values.
func classFor(n int) int { return bits.Len(uint(max(n, 1) - 1)) }

// Reserve declares that one of node's schedules sends (or holds) a
// buffer of each of sizes, and creates idle buffers for what node's
// earlier declarations did not cover: inFlight per message, and the
// maximum over schedules, since a node runs one at a time.
func (p *BufPool) Reserve(node int, sizes []int) {
	var need [poolClasses]int32
	for _, n := range sizes {
		need[classFor(n)] += inFlight
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.want) <= node {
		p.want = append(p.want, [poolClasses]int32{})
	}
	for c, k := range need {
		add := int(k - p.want[node][c])
		if add <= 0 {
			continue
		}
		p.want[node][c] = k
		// One slab and one header array per class, not per buffer.
		slab, bufs := make([]float64, add<<c), make([]Payload, add)
		for i := range bufs {
			bufs[i].Vals = slab[i<<c : i<<c : (i+1)<<c]
			p.free[c] = append(p.free[c], &bufs[i])
		}
	}
}

// Get returns a payload with len(Vals) == n, reusing an idle buffer of
// n's class when there is one.  Fresh buffers are sized to the class,
// so they serve its every later request.
func (p *BufPool) Get(n int) *Payload {
	c := classFor(n)
	var b *Payload
	p.mu.Lock()
	if list := p.free[c]; len(list) > 0 {
		b = list[len(list)-1]
		list[len(list)-1] = nil
		p.free[c] = list[:len(list)-1]
	}
	p.mu.Unlock()
	for q := p; q != nil; q = q.Totals {
		q.gets.Add(1)
		if b == nil {
			q.news.Add(1)
		}
	}
	if b == nil {
		return &Payload{Vals: make([]float64, n, 1<<c)}
	}
	b.Vals = b.Vals[:n]
	return b
}

// Put returns a payload to the free list for reuse.  The caller must
// not touch b afterwards.
func (p *BufPool) Put(b *Payload) {
	if b == nil {
		return
	}
	// File under the largest class the capacity fully covers, so every
	// buffer taken from a class list satisfies that class's requests.
	c := max(bits.Len(uint(cap(b.Vals)))-1, 0)
	p.mu.Lock()
	p.free[c] = append(p.free[c], b)
	p.mu.Unlock()
	for q := p; q != nil; q = q.Totals {
		q.puts.Add(1)
	}
}

// Stats snapshots the traffic counters, safely from any goroutine while
// nodes are executing.  The counters are read one by one: each is
// exact, but a snapshot taken mid-execution is not a consistent cut.
func (p *BufPool) Stats() PoolStats {
	st := PoolStats{Gets: p.gets.Load(), Puts: p.puts.Load(), News: p.news.Load()}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, list := range p.free {
		st.Idle += len(list)
	}
	return st
}
