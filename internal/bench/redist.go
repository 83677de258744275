package bench

import (
	"fmt"
	"sync"

	"kali/internal/alloctest"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/topology"
)

// Redist measures schedule-driven dynamic redistribution (the run-time
// face of paper §2.4's dynamic distributions): an n×n array ping-pongs
// between row layout [block, *] and column layout [*, block] — the
// transpose at the heart of ADI-style alternating sweeps.  Two rows
// contrast the cold first cycle, which builds both all-to-all plans,
// against warm cycles replaying them from the content-addressed store:
// the replay builds nothing and — with payloads and partitions drawn
// from the machine's buffer pools — allocates nothing (allocs/cycle
// 0.00, pinned by TestRedistributeReplayAllocationFree).
//
// Message and byte counts come from the machine's TagRedist-attributed
// Stats columns; "other msgs" shows that no redistribution traffic
// leaks into the forall counters (and vice versa).
func Redist(opt Options) *Table {
	n, p, reps := 256, 8, 20
	if opt.Quick {
		n, p, reps = 64, 4, 10
	}
	t := &Table{
		ID:     "redist",
		Title:  "dynamic redistribution: row-block <-> column-block ping-pong (ADI transpose)",
		Labels: []string{"phase"},
		Columns: []Column{exact("plan builds", "count", 0), benefit("plan hits", "count", 0),
			exact("redist msgs/cycle", "count", 1), exact("redist bytes/cycle", "bytes", 0),
			exact("other msgs", "count", 0), exact("allocs/cycle", "count", 2),
			simSec("redist time/cycle", 4)},
		Notes: []string{
			fmt.Sprintf("NCUBE/7, %dx%d real array, %d processors, %d warm ping-pong cycles", n, n, p, reps),
		},
	}
	redistRun(t, n, p, reps, machine.NCUBE7())
	return t
}

// redistRun executes one cold ping-pong cycle and reps warm ones and
// adds a row for each regime to t.
func redistRun(t *Table, n, p, reps int, params machine.Params) {
	g := topology.MustGrid(p)
	rows := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, g)
	cols := dist.Must([]int{n, n}, []dist.DimSpec{dist.CollapsedDim(), dist.BlockDim()}, g)
	mach := sim.MustNew(p, params)

	builds0, hits0 := darray.RedistBuilds(), darray.RedistHits()
	var mu sync.Mutex
	var coldStats, warmBase machine.Stats
	var coldTime, warmTime float64
	var coldBuilds, coldHits, warmupBuilds, warmupHits, warmBuilds, warmHits int
	var warmMallocs uint64
	mach.Run(func(nd *machine.Node) {
		a := darray.New("u", rows, nd)
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				if a.IsLocal(i, j) {
					a.Set(float64(i*n+j), i, j)
				}
			}
		}
		// Cold cycle: both plans are built here.
		darray.Redistribute(a, cols)
		nd.Barrier()
		darray.Redistribute(a, rows)
		nd.Barrier()
		statsAfterCold := nd.Stats()
		timeAfterCold := nd.PhaseTime(darray.PhaseRedistribute)
		if nd.ID() == 0 {
			mu.Lock()
			coldBuilds = darray.RedistBuilds() - builds0
			coldHits = darray.RedistHits() - hits0
			mu.Unlock()
		}
		nd.Barrier()

		// A few unmeasured warm cycles grow the buffer pools to the
		// pattern's peak demand before the measured ones.
		cycle := func() {
			darray.Redistribute(a, cols)
			nd.Barrier()
			darray.Redistribute(a, rows)
		}
		var warmupStats machine.Stats
		var timeAfterWarmup float64
		mallocs := alloctest.Mallocs(nd, 3, reps, cycle, func() {
			warmupStats, timeAfterWarmup = nd.Stats(), nd.PhaseTime(darray.PhaseRedistribute)
			if nd.ID() == 0 {
				mu.Lock()
				warmupBuilds = darray.RedistBuilds() - builds0
				warmupHits = darray.RedistHits() - hits0
				mu.Unlock()
			}
			// The plan counters are process-wide: Mallocs lets no node
			// start the measured cycles before node 0 has read them.
		})

		mu.Lock()
		coldStats = coldStats.Add(statsAfterCold)
		warmBase = warmBase.Add(warmupStats)
		if timeAfterCold > coldTime {
			coldTime = timeAfterCold
		}
		if dt := nd.PhaseTime(darray.PhaseRedistribute) - timeAfterWarmup; dt > warmTime {
			warmTime = dt
		}
		if nd.ID() == 0 {
			warmMallocs = mallocs
		}
		mu.Unlock()
	})
	warmStats := mach.TotalStats().Sub(warmBase)
	warmBuilds = darray.RedistBuilds() - builds0 - warmupBuilds
	warmHits = darray.RedistHits() - hits0 - warmupHits

	row := func(phase string, builds, hits int, st machine.Stats, cycles int, allocs, tm float64) {
		c := float64(cycles)
		t.add([]string{phase}, float64(builds), float64(hits),
			float64(st.RedistMsgsSent)/c, float64(st.RedistBytesSent)/c,
			float64(st.MsgsSent-st.RedistMsgsSent), allocs, tm/c)
	}
	// The cold cycle's allocations include one-time plan construction.
	row("cold (build)", coldBuilds, coldHits, coldStats, 1, none, coldTime)
	row("warm (replay)", warmBuilds, warmHits, warmStats, reps, float64(warmMallocs)/float64(reps), warmTime)
}
