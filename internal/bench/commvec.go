package bench

import (
	"fmt"
	"sync"

	"kali/internal/alloctest"
	"kali/internal/analysis"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/topology"
)

// CommVec measures the vectorized communication path: per-Range bulk
// packing, message coalescing (all of a loop's reads in one message
// per processor pair), content-addressed schedule sharing, and the
// pooled zero-allocation replay.  Two variants of the same two-array
// shift run on identical data:
//
//   - "coalesced" is the executor: both read arrays' data for a
//     destination travel in one message ("sorting by processor id also
//     allowed us to combine messages ..."), so msgs/exec is the number
//     of communicating processor pairs, not arrays × pairs
//     (TestCommVecCombinesPerPair pins it).
//   - "coalesced+shared" runs a second identically-shaped loop over
//     different arrays: it adopts the first loop's schedule from the
//     content-addressed store, so two loops cost one build.
//
// Message and byte counts come from the machine's per-node Stats;
// allocs/replay is the process's malloc count during the cached
// replays (alloctest.Mallocs) divided by the number of replays — 0.00
// means the replay path allocates nothing at all.
func CommVec(opt Options) *Table {
	n, p, reps := 1<<14, 8, 40
	if opt.Quick {
		n, p, reps = 1<<10, 4, 25
	}
	t := &Table{
		ID:     "commvec",
		Title:  "vectorized communication: coalescing, sharing, allocation-free replay",
		Labels: []string{"variant"},
		Columns: []Column{exact("builds", "count", 0), benefit("shared hits", "count", 0),
			exact("msgs/exec", "count", 1), exact("bytes/exec", "bytes", 0),
			exact("allocs/replay", "count", 2), simSec("executor time", 2)},
		Notes: []string{
			fmt.Sprintf("NCUBE/7, N=%d block-distributed, %d processors, two read arrays, %d cached replays", n, p, reps),
		},
	}
	for _, v := range []struct {
		name   string
		second bool
	}{
		{"coalesced", false},
		{"coalesced+shared", true},
	} {
		r := commVecRun(n, p, reps, machine.NCUBE7(), v.second)
		t.add([]string{v.name}, float64(r.builds), float64(r.sharedHits),
			r.msgsPerExec, r.bytesPerExec, r.allocsPerReplay, r.execTime)
	}
	return t
}

// commVecResult carries one variant's measurements.
type commVecResult struct {
	builds, sharedHits        int
	msgsPerExec, bytesPerExec float64
	allocsPerReplay, execTime float64
}

// commVecRun executes the two-array shift (one loop, or two
// identically-shaped loops when second is set) reps times from the
// schedule cache and measures machine-wide data messages, bytes,
// mallocs and executor time over exactly that replay window.
func commVecRun(n, p, reps int, params machine.Params, second bool) commVecResult {
	g := topology.MustGrid(p)
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	mach := sim.MustNew(p, params)

	var res commVecResult
	var mu sync.Mutex
	var beforeAgg machine.Stats
	mach.Run(func(nd *machine.Node) {
		mkLoop := func(name string, out, u, v *darray.Array) *forall.Loop {
			return &forall.Loop{
				Name: name, Lo: 1, Hi: n - 1,
				On: out, OnF: analysis.Identity,
				Reads: []forall.ReadSpec{
					{Array: u, Affine: &analysis.Affine{A: 1, C: 1}},
					{Array: v, Affine: &analysis.Affine{A: 1, C: 1}},
				},
				Body: func(i int, e *forall.Env) {
					e.Write(out, i, e.Read(u, i+1)+e.Read(v, i+1))
				},
			}
		}
		mkArrays := func(tag string) (*darray.Array, *darray.Array, *darray.Array) {
			out := darray.New("out"+tag, d, nd)
			u := darray.New("u"+tag, d, nd)
			v := darray.New("v"+tag, d, nd)
			for i := 1; i <= n; i++ {
				if u.IsLocal1(i) {
					u.Set1(i, float64(i))
					v.Set1(i, float64(2*i))
				}
			}
			return out, u, v
		}
		outA, uA, vA := mkArrays("A")
		eng := forall.NewEngine(nd)
		la := mkLoop("vecA", outA, uA, vA)
		var lb *forall.Loop
		if second {
			outB, uB, vB := mkArrays("B")
			lb = mkLoop("vecB", outB, uB, vB)
		}

		// Warmup builds (or shares) the schedules and grows the payload
		// pool to the pattern's peak in-flight demand, which the barrier
		// after each round bounds — see TestReplayAllocationFree.
		step := func() {
			eng.Run(la)
			if lb != nil {
				eng.Run(lb)
			}
		}
		var statsBefore machine.Stats
		var execBefore float64
		mallocs := alloctest.Mallocs(nd, 3, reps, step, func() {
			statsBefore, execBefore = nd.Stats(), nd.PhaseTime(forall.PhaseExecutor)
		})

		mu.Lock()
		beforeAgg = beforeAgg.Add(statsBefore)
		if dt := nd.PhaseTime(forall.PhaseExecutor) - execBefore; dt > res.execTime {
			res.execTime = dt
		}
		if nd.ID() == 0 {
			res.builds = eng.Builds()
			res.sharedHits = eng.SharedHits()
			res.allocsPerReplay = float64(mallocs) / float64(reps)
		}
		mu.Unlock()
	})
	// Nothing is sent after the measured window, so the machine-wide
	// totals at exit minus the aggregated pre-window snapshots are
	// exactly the window's traffic.
	stats := mach.TotalStats().Sub(beforeAgg)
	loops := 1.0
	if second {
		loops = 2
	}
	execs := float64(reps) * loops
	res.msgsPerExec = float64(stats.MsgsSent) / execs
	res.bytesPerExec = float64(stats.BytesSent) / execs
	return res
}
