// Package alloctest pins the host-side face of the paper's §3.2 claim
// that a saved schedule is replayed at no analysis cost — "a warm
// replay allocates nothing" — for the tests of the executor layers, in
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
// allocates, only the counters are asserted.
package alloctest

import (
	"runtime"
	"runtime/debug"

	"kali/internal/comm"
	"kali/internal/machine"
)

// unmatched is how many messages Run makes every node set aside at
// once (with the one asked for, within the simulator's mailbox of
// 4p+16).
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

// Run executes step on node nd warmup times unmeasured and then reps
// times measured, once for the pool counters and once more, under one
// P, for the malloc count.  A barrier follows every step: the barriers
// keep the nodes within one step of each other, so each region begins
// and ends with nothing in flight.  Every node of the (simulated)
// machine calls it; node 0 measures.
func (p *Pin) Run(nd *machine.Node, warmup, reps int, step func()) {
	steps := func(k int, measure func()) {
		for ; k > 0; k-- {
			step()
			nd.Barrier()
		}
		if nd.ID() == 0 {
			measure()
		}
		nd.Barrier()
	}
	// Which messages reach a node before the one it asks for is up to
	// the scheduler, and the simulator's list of them grows on demand:
	// grow it here past what any step leaves waiting.
	if n, me := nd.P(), nd.ID(); n > 1 {
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
	var gc, procs int
	var before, after runtime.MemStats
	steps(warmup, func() { p.before = p.pool() })
	steps(reps, func() {
		p.after = p.pool()
		gc, procs = debug.SetGCPercent(-1), runtime.GOMAXPROCS(1)
	})
	steps(warmup, func() { runtime.ReadMemStats(&before) })
	steps(reps, func() {
		runtime.ReadMemStats(&after)
		p.mallocs = after.Mallocs - before.Mallocs
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
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
	if !race && p.mallocs != 0 {
		t.Errorf("%s: %d mallocs in the measured region (want 0)", what, p.mallocs)
	}
}
