// Package alloctest pins the host-side face of the paper's §3.2 claim
// that a saved schedule is replayed at no analysis cost — "a warm
// replay allocates nothing" — for the tests of the executor layers and
// for kalibench's gated allocs columns (which use the Meter alone), in
// a way goroutine scheduling cannot disturb.  A pin asserts two things
// about a region every node of a machine runs together.  The exact one
// is the buffer pools' own counters, read at the ambient GOMAXPROCS:
// News flat, and as many buffers out at the end as at the start.  The
// other is the process's malloc count, which also sees everything that
// is not a pooled buffer, and is measured over a second region with
// the collector off and one P: two Ps can each find their cache of
// wait records (sudogs, which a blocking barrier or receive takes)
// empty at any time, and a wake-up with an idle P may start a thread
// (six objects).  Under the race detector, whose instrumentation
// allocates when it chooses to, the malloc count means nothing and
// reads 0: only the counters are asserted.
package alloctest

import (
	"runtime"
	"runtime/debug"

	"kali/internal/comm"
	"kali/internal/machine"
)

// unmatched is how many messages growPending makes every node set
// aside at once (with the one asked for, within the simulator's
// mailbox of 4p+16).
const unmatched = 16

// TB is the part of testing.TB a pin reports through.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// Pin is one allocation pin.
type Pin struct {
	// Pool snapshots the pools the region draws from (summed when
	// there are several); nil for a region that communicates nothing,
	// of which only the malloc count is asserted.
	Pool func() comm.PoolStats
	// Held is how many pooled buffers stay out between steps (array
	// partitions; 0 for message traffic).
	Held int64

	before, after comm.PoolStats
	mallocs       uint64
}

// steps runs step k times on node nd, a barrier after each, and then
// measure on node 0 while the others wait.  Every node of the machine
// calls it; the barriers keep the nodes within one step of each other,
// so measure runs with nothing in flight.
func steps(nd *machine.Node, k int, step, measure func()) {
	for ; k > 0; k-- {
		step()
		nd.Barrier()
	}
	if nd.ID() == 0 {
		measure()
	}
	nd.Barrier()
}

// Meter counts the process's mallocs over a region run with the
// collector off and on one P, the only setting in which the count does
// not depend on how goroutines interleave (see the package comment).
// Its three calls are made in order by one goroutine while no other
// runs; Mallocs does that for a region the nodes of a machine run
// together.
type Meter struct {
	gc, procs int
	before    uint64
}

// Enter turns the collector off and leaves the process one P.  The
// caller warms the region up once more before Mark: the P that is left
// starts with its own, possibly empty, caches.
func (m *Meter) Enter() {
	m.gc, m.procs = debug.SetGCPercent(-1), runtime.GOMAXPROCS(1)
}

// Mark starts the count.
func (m *Meter) Mark() { m.before = mallocs() }

// Leave returns the mallocs since Mark (0 under the race detector) and
// restores what Enter changed.
func (m *Meter) Leave() uint64 {
	n := mallocs() - m.before
	runtime.GOMAXPROCS(m.procs)
	debug.SetGCPercent(m.gc)
	if race {
		return 0
	}
	return n
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// Mallocs runs step on node nd warmup times and then reps times under
// a Meter, a barrier after each, and returns on node 0 the process's
// mallocs over the reps (0 on the other nodes).  Every node of the
// (simulated) machine calls it, with nothing in flight.  begin, unless
// nil, runs on every node after the warmup, for a caller that reads its
// own counters over the same steps; a barrier separates it from the
// count, which starts only when every node's begin has returned.
func Mallocs(nd *machine.Node, warmup, reps int, step, begin func()) (n uint64) {
	var m Meter // node 0's is the one used
	growPending(nd)
	steps(nd, 0, step, m.Enter)
	for ; warmup > 0; warmup-- {
		step()
		nd.Barrier()
	}
	if begin != nil {
		begin()
	}
	nd.Barrier()
	steps(nd, 0, step, m.Mark)
	steps(nd, reps, step, func() { n = m.Leave() })
	return n
}

// growPending makes every node set unmatched messages aside at once.
// Which messages reach a node before the one it asks for is up to the
// scheduler, and the simulator's list of them grows on demand: this
// grows it past what any step of a measured region leaves waiting.
func growPending(nd *machine.Node) {
	n, me := nd.P(), nd.ID()
	if n == 1 {
		return
	}
	to, from := (me+1)%n, (me+n-1)%n
	for i := 0; i < unmatched; i++ {
		nd.Send(to, machine.TagUser, nil, 0)
	}
	nd.Send(to, machine.TagUser+1, nil, 0)
	nd.Recv(from, machine.TagUser+1)
	for i := 0; i < unmatched; i++ {
		nd.Recv(from, machine.TagUser)
	}
}

// Run executes step on node nd warmup times unmeasured and then reps
// times measured, once for the pool counters and once more, through
// Mallocs, for the malloc count.  Every node of the (simulated)
// machine calls it; node 0 measures.
func (p *Pin) Run(nd *machine.Node, warmup, reps int, step func()) {
	steps(nd, warmup, step, func() { p.before = p.pool() })
	steps(nd, reps, step, func() { p.after = p.pool() })
	if n := Mallocs(nd, warmup, reps, step, nil); nd.ID() == 0 {
		p.mallocs = n
	}
}

func (p *Pin) pool() comm.PoolStats {
	if p.Pool == nil {
		return comm.PoolStats{}
	}
	return p.Pool()
}

// Check reports what the region did that a warm replay must not.
func (p *Pin) Check(t TB, what string) {
	t.Helper()
	b, a := p.before, p.after
	if p.Pool != nil && a.Gets == b.Gets {
		t.Errorf("%s: the measured region never took a pooled buffer", what)
	}
	if a.News != b.News {
		t.Errorf("%s: %d pool buffers allocated in the measured region (want 0)", what, a.News-b.News)
	}
	if b.Gets-b.Puts != p.Held || a.Gets-a.Puts != p.Held {
		t.Errorf("%s: %d buffers out before the region and %d after (want %d both times)",
			what, b.Gets-b.Puts, a.Gets-a.Puts, p.Held)
	}
	if p.mallocs != 0 {
		t.Errorf("%s: %d mallocs in the measured region (want 0)", what, p.mallocs)
	}
}
