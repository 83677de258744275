// Package relax is the paper's Figure 4 program: nearest-neighbor
// relaxation (Jacobi) on a user-defined mesh, written against the Kali
// runtime.  The mesh arrives as adjacency lists (count/adj/coef), so
// the inner reference old_a[adj[i,j]] is data-dependent and exercises
// the run-time inspector; the inspector runs once and its schedule is
// reused by all subsequent sweeps, exactly as in the paper.
//
// The arrays and distributions mirror the paper's declarations:
//
//	var a, old_a : array[1..n] of real            dist by [block];
//	    count    : array[1..n] of integer         dist by [block];
//	    adj      : array[1..n,1..maxdeg] of integer dist by [block,*];
//	    coef     : array[1..n,1..maxdeg] of real    dist by [block,*];
package relax

import (
	"fmt"

	"kali/internal/analysis"
	"kali/internal/core"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/machine"
	"kali/internal/mesh"
)

// Options configures one relaxation experiment.
type Options struct {
	Mesh   *mesh.Mesh
	Sweeps int
	P      int
	Params machine.Params
	// Backend selects the node runtime ("" / "sim" for the
	// virtual-clock simulator, "wall" for real threads).
	Backend string

	// Dist selects the node-dimension distribution of every array
	// (a, old_a, count, adj, coef all align).  The zero value means
	// block — the paper's choice.  Changing it is the paper's §2.4
	// claim made concrete: "a variety of distribution patterns can
	// easily be tried by trivial modification of this program".
	Dist dist.DimSpec
	// Owners, when non-nil, overrides Dist with a user-defined
	// distribution (the paper's "mechanism for user-defined
	// distributions"): Owners[i] is the 0-based owner of node i+1.
	Owners []int

	// NoCache re-runs the inspector every sweep (ablation ABL1).
	NoCache bool
	// Enumerate uses the Saltz-style fully-enumerated executor from
	// the paper's §5 comparison (ablation ABL7): no locality tests or
	// searches during execution, more schedule storage.
	Enumerate bool
	// CheckConvergence adds the while-loop convergence reduction each
	// sweep (off in the paper's timed runs, which sweep a fixed count).
	CheckConvergence bool
	// Tol stops early when the sweep-to-sweep delta drops below it
	// (requires CheckConvergence).
	Tol float64
	// Gather controls whether final values are collected (host-side)
	// for validation.
	Gather bool
}

// Result is the outcome of one experiment.
type Result struct {
	Report core.Report
	// Values is the gathered solution (nil unless Options.Gather).
	Values []float64
	// SweepsRun counts executed relaxation sweeps (less than
	// Options.Sweeps if converged early).
	SweepsRun int
	// NonlocalIters is the max per-node nonlocal iteration count.
	NonlocalIters int
	// ScheduleBytes is the max per-node schedule storage of the
	// relaxation loop (Figure 5 records, buffers, and the enumeration
	// list when Options.Enumerate is set).
	ScheduleBytes int
}

// phaseCopy times the old_a := a copy loop separately from the
// relaxation core, matching the paper's measured regions.
const phaseCopy = "copy"

// Run executes the experiment on a fresh simulated machine.
func Run(opt Options) Result { return run(opt, true, nil) }

// run is Run, with the relaxation core's Segment and Inspect bodies
// (sweepSegment, sweepInspect) attached when segments is set; without
// them every iteration runs and is recorded through Body, which is what
// the tests hold the two against.  A non-nil plans gets each node's
// relaxation-core plan digest (forall.Schedule.Digest).
func run(opt Options, segments bool, plans []uint64) Result {
	if opt.Mesh == nil || opt.Sweeps < 1 || opt.P < 1 {
		panic(fmt.Sprintf("relax: bad options %+v", opt))
	}
	m := opt.Mesh
	var values []float64
	if opt.Gather {
		values = make([]float64, m.N)
	}
	sweepsRun := make([]int, opt.P)
	nonlocal := make([]int, opt.P)
	schedBytes := make([]int, opt.P)
	// Computed once and shared read-only by all simulated nodes.
	init := mesh.InitValues(m)

	nodeDim := opt.Dist
	if nodeDim.Kind == dist.Collapsed && nodeDim.Owner == nil && nodeDim.Block == 0 {
		nodeDim = dist.BlockDim()
	}
	if opt.Owners != nil {
		nodeDim = dist.MapDim(opt.Owners)
	}

	rep := core.Run(core.Config{P: opt.P, Params: opt.Params, Backend: opt.Backend}, func(ctx *core.Context) {
		me := ctx.ID()
		n := m.N

		a := ctx.Array("a", []int{n}, []dist.DimSpec{nodeDim})
		oldA := ctx.Array("old_a", []int{n}, []dist.DimSpec{nodeDim})
		count := ctx.IntArray("count", []int{n}, []dist.DimSpec{nodeDim})
		adj := ctx.IntArray("adj", []int{n, m.MaxDeg},
			[]dist.DimSpec{nodeDim, dist.CollapsedDim()})
		coef := ctx.Array("coef", []int{n, m.MaxDeg},
			[]dist.DimSpec{nodeDim, dist.CollapsedDim()})

		// Set up arrays 'adj' and 'coef' (untimed, like the paper).
		localSet := a.Dist().Pattern(0).Local(me)
		localSet.Each(func(i int) {
			a.Set1(i, init[i-1])
			oldA.Set1(i, init[i-1])
			count.Set1(i, m.Count[i-1])
			row := (i - 1) * m.MaxDeg
			if ar, cr := adj.Span2(i, 1, m.MaxDeg), coef.Span2(i, 1, m.MaxDeg); ar != nil && cr != nil {
				copy(ar, m.Adj[row:row+m.MaxDeg])
				copy(cr, m.Coef[row:row+m.MaxDeg])
				return
			}
			for k := 0; k < m.MaxDeg; k++ {
				adj.Set2(i, k+1, m.Adj[row+k])
				coef.Set2(i, k+1, m.Coef[row+k])
			}
		})

		ctx.Eng.NoCache = opt.NoCache

		copyLoop := &forall.Loop{
			Name: "relax.copy", Lo: 1, Hi: n,
			On: oldA, OnF: analysis.Identity,
			Reads: []forall.ReadSpec{{Array: a, Affine: &analysis.Identity}},
			Phase: phaseCopy,
			Body: func(i int, e *forall.Env) {
				e.Write(oldA, i, e.Read(a, i))
			},
		}

		relaxLoop := &forall.Loop{
			Name: "relax.core", Lo: 1, Hi: n,
			On: a, OnF: analysis.Identity,
			Reads:     []forall.ReadSpec{{Array: oldA}}, // old_a[adj[i,j]]: indirect
			DependsOn: []forall.Dep{adj},
			Enumerate: opt.Enumerate,
			Body: func(i int, e *forall.Env) {
				cnt := e.ReadInt(count, i)
				x := 0.0
				for j := 1; j <= cnt; j++ {
					cf := e.ReadLocal2(coef, i, j)
					x += cf * e.Read(oldA, e.ReadInt2(adj, i, j))
					e.Flops(2)
				}
				e.Flops(1) // the count[i] > 0 test
				if cnt > 0 {
					e.Write(a, i, x)
				}
			},
		}
		if segments {
			copyLoop.Segment = copySegment(ctx.Node, oldA, a)
			relaxLoop.Segment = sweepSegment(ctx.Node, a, oldA, count, adj, coef)
			relaxLoop.Inspect = sweepInspect(oldA, count, adj)
		}

		// The sweep runs through the sequence API; the relaxation core
		// reads old_a, which the copy writes, so the fusion window breaks
		// between them: each loop is a window of its own.
		sweep := []forall.SeqLoop{
			{L: copyLoop, Writes: []*darray.Array{oldA}},
			{L: relaxLoop, Writes: []*darray.Array{a}},
		}

		sweeps := 0
		for sweeps < opt.Sweeps {
			ctx.ForallSeq(sweep)
			sweeps++
			if opt.CheckConvergence {
				delta := 0.0
				localSet.Each(func(i int) {
					d := a.Get1(i) - oldA.Get1(i)
					if d < 0 {
						d = -d
					}
					if d > delta {
						delta = d
					}
				})
				if ctx.AllReduce(delta, "max") < opt.Tol {
					break
				}
			}
		}
		sweepsRun[me] = sweeps

		if s := ctx.Eng.Schedule("relax.core"); s != nil {
			nonlocal[me] = s.NonlocalIters()
			schedBytes[me] = s.MemBytes()
			if plans != nil {
				plans[me] = s.Digest()
			}
		}
		if opt.Gather {
			localSet.Each(func(i int) { values[i-1] = a.Get1(i) })
		}
	})

	res := Result{Report: rep, Values: values, SweepsRun: sweepsRun[0]}
	for i, nl := range nonlocal {
		if nl > res.NonlocalIters {
			res.NonlocalIters = nl
		}
		if schedBytes[i] > res.ScheduleBytes {
			res.ScheduleBytes = schedBytes[i]
		}
	}
	return res
}

// copySegment returns the copy loop's Segment body: dst[lo..hi] :=
// src[lo..hi] as Body copies it, element by element charges included,
// with the clock in the node's ClockCell.
func copySegment(nd *machine.Node, dst, src *darray.Array) func(lo, hi int, e *forall.Env) bool {
	cell, u := nd.ClockCell()
	return func(lo, hi int, e *forall.Env) bool {
		from, checks, search := e.ReadSpan1(src, lo, hi)
		if from == nil {
			return false
		}
		to := e.WriteSpan1(dst, lo, hi)
		if to == nil {
			return false
		}
		t := *cell
		for k := range to {
			t += u.LoopIter
			if checks > 0 {
				t += u.LocTest
				if checks > 1 {
					t += search
				}
			}
			t += u.MemRef // src[i]
			t += u.MemRef // dst[i]
			to[k] = from[k]
		}
		*cell = t
		return true
	}
}

// sweepSegment returns the relaxation core's Segment body: iterations
// lo..hi run as Body runs them one at a time, with the same values and
// the same charges in the same order, but against the local rows of
// count, adj and coef, with a direct store into a, and with the clock
// held in the node's ClockCell.  The indirect read old_a[adj[i,j]] goes
// through an Env.Gather handle, so a boundary run tests every reference
// and reads the remote ones from the receive buffer, at the offsets the
// inspector resolved, and charges their search, as Read does.  A
// run it cannot take whole it declines before any side effect: a
// distribution without a locality window, a count out of [0, maxdeg],
// or an Env that leaves the reads to Read.
func sweepSegment(nd *machine.Node, a, oldA *darray.Array, count, adj *darray.IntArray, coef *darray.Array) func(lo, hi int, e *forall.Env) bool {
	cell, u := nd.ClockCell()
	deg := coef.Extent(1)
	return func(lo, hi int, e *forall.Env) bool {
		cnt := count.Span1(lo, hi)
		if cnt == nil || coef.Span2(lo, 1, deg) == nil || coef.Span2(hi, 1, deg) == nil ||
			adj.Span2(lo, 1, deg) == nil || adj.Span2(hi, 1, deg) == nil {
			return false
		}
		flops := 0
		for _, n := range cnt {
			if n < 0 || n > deg {
				return false
			}
			flops += 2*n + 1
		}
		src, ok := e.Gather(oldA)
		if !ok {
			return false
		}
		dst := e.WriteSpan1(a, lo, hi)
		if dst == nil {
			return false
		}
		t := *cell
		for k, n := range cnt {
			t += u.LoopIter
			t += u.MemRef // count[i]
			cf, ad := coef.Span2(lo+k, 1, deg), adj.Span2(lo+k, 1, deg)
			x := 0.0
			for j := 0; j < n; j++ {
				t += u.MemRef // coef[i,j]
				t += u.MemRef // adj[i,j]
				v, remote := src.At(ad[j])
				if src.Tested {
					t += u.LocTest
					if remote {
						t += src.Search
					}
				}
				t += u.MemRef // old_a[adj[i,j]]
				x += cf[j] * v
				t += 2 * u.Flop
			}
			t += u.Flop
			if n > 0 {
				t += u.MemRef
				dst[k] = x
			}
		}
		*cell = t
		nd.AddFlopCount(int64(flops))
		return true
	}
}

// sweepInspect returns the relaxation core's Inspect body: it records
// iterations lo..hi as the recording pass records Body, reading
// old_a[adj[i,j]] through Env.Read for j up to count[i], in order,
// against the local rows of count and adj.  Body's other work is free
// under the recording pass and cannot fail here: its local reads are
// in range, and its store to a[i] is owner-computes under the on
// clause.  A run it cannot take whole it declines before it begins
// one iteration: a distribution without a locality window, or a count
// out of [0, maxdeg].
func sweepInspect(oldA *darray.Array, count, adj *darray.IntArray) func(lo, hi int, e *forall.Env) bool {
	deg := adj.Extent(1)
	return func(lo, hi int, e *forall.Env) bool {
		cnt := count.Span1(lo, hi)
		if cnt == nil || adj.Span2(lo, 1, deg) == nil || adj.Span2(hi, 1, deg) == nil {
			return false
		}
		for _, n := range cnt {
			if n < 0 || n > deg {
				return false
			}
		}
		for k, n := range cnt {
			e.BeginIter()
			for _, x := range adj.Span2(lo+k, 1, deg)[:n] {
				e.Read(oldA, x)
			}
		}
		return true
	}
}
