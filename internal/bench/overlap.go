package bench

import (
	"fmt"

	"kali/internal/analysis"
	"kali/internal/core"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/machine"
	"kali/internal/mg"
	"kali/internal/topology"
)

// Overlap measures what the production executor buys over the
// reference one: the same cached schedules replayed split-phase (ISend
// posts before the interior sweep, completion-order drain before the
// boundary) with adjacent loops fused into one aggregated send per
// processor pair, against the paper's Figure 3 taken literally
// (kalirun -ref: per loop, blocking sends, fixed-order drain).
// Workloads: the 2-D five-point jacobi (a single loop — a window of
// one: fusion has nothing to merge, so its two msgs columns must
// agree), an ADI cycle whose coupled row/column sweep pairs read the
// same array and fuse between [block,*]↔[*,block] transposes, and the
// multigrid V-cycle (whose prolongation interpolates through the
// sequence API on every level).
//
// Every column is a deterministic cost-model prediction or count and is
// under the CI gate; the pct column expresses the win as a gated cost
// (production as a percentage of reference, < 100 when overlap and
// fusion pay; growth past baseline means they stopped paying and fails
// -diff).  Overlap never changes traffic, but fusion merges messages:
// msgs/rep is reported for both executors, and the production column is
// gated so a lost merge (more envelopes) fails CI.  Byte totals are
// identical in every cell of a row.  allocs/replay comes from the
// production run: warm replay must stay allocation-free.
func Overlap(opt Options) *Table {
	jacobiN, adiN, mgDepth := 96, 128, 9
	pr, pc, mgP := 4, 2, 5
	reps := 200
	if opt.Quick {
		jacobiN, adiN, mgDepth, reps = 48, 48, 6, 25
		pr, pc, mgP = 2, 2, 3
	}
	p := pr * pc
	t := &Table{
		ID:     "overlap",
		Title:  "production executor (split-phase, cross-loop fusion) vs the Figure 3 reference",
		Labels: []string{"workload", "procs"},
		Columns: []Column{simSec("sim time/rep (ref)", 6), simSec("sim time/rep (prod)", 6),
			simPct("sim time pct (prod/ref)", 2),
			exact("msgs/rep (ref)", "count", 1), exact("msgs/rep (prod)", "count", 1),
			exact("allocs/replay", "count", 1)},
		Notes: []string{
			fmt.Sprintf("NCUBE/7 sim; jacobi2d %dx%d, adi %dx%d coupled sweep pairs with transpose ping-pong, multigrid depth %d; %d replays",
				jacobiN, jacobiN, adiN, adiN, mgDepth, reps),
			fmt.Sprintf("mg runs on %d processors: an odd block size misaligns the fine and coarse block boundaries, so both interpolation loops of the prolongation pair exchange boundary values and fusion has messages to merge (when the fine block is exactly twice the coarse one, the even-point loop is fully local)", mgP),
		},
	}
	for _, w := range []struct {
		name    string
		p       int
		program func(reference bool) backendProgram
	}{
		{"jacobi2d", p, func(ref bool) backendProgram { return jacobi2DProgram(jacobiN, pr, pc, ref) }},
		{"adi", p, func(ref bool) backendProgram { return adiOverlapProgram(adiN, p, ref) }},
		{"mg", mgP, func(ref bool) backendProgram { return mgProgram(mgDepth, mgP, ref) }},
	} {
		p := w.p
		ref := backendRun(p, reps, w.program(true))
		prod := backendRun(p, reps, w.program(false))
		pct := 100.0
		if ref.secPerRep > 0 {
			pct = 100 * prod.secPerRep / ref.secPerRep
		}
		t.add([]string{w.name, fmt.Sprint(p)},
			ref.secPerRep, prod.secPerRep, pct,
			ref.msgsPerRep, prod.msgsPerRep, prod.allocsPerRep)
	}
	return t
}

// jacobi2DProgram replays the shared five-point stencil Loop2 on an
// n×n [block,block] array: compile-time schedules, one coalesced
// boundary message to each of up to four neighbors per rep.
func jacobi2DProgram(n, pr, pc int, reference bool) backendProgram {
	return func(nd *machine.Node) func() {
		g := topology.MustGrid(pr, pc)
		d := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g)
		a, old := darray.New("o2a", d, nd), darray.New("o2b", d, nd)
		a.EachLocal(func(gl int) { a.SetLinear(gl, float64(gl%17)) })
		old.EachLocal(func(gl int) { old.SetLinear(gl, float64(gl%13)) })
		eng := forall.NewEngine(nd)
		eng.Reference = reference
		loop := Relax2DLoop(a, old, n)
		return func() { eng.Run2(loop) }
	}
}

// adiOverlapProgram is one ADI cycle with cross-row coupling and a
// coupled sweep pair per phase: two smooths with different stencils
// both read the neighboring rows of u under [block,*] (inspector
// schedules, overlappable boundary traffic) and write independent
// arrays, so the sequence API merges their per-pair messages into one
// aggregated send; then a transpose to [*,block], the coupled pair
// along the other axis, and the transpose back.  Redistribution stays
// phase-synchronous — the contrast isolates what overlap and fusion
// buy the foralls of an otherwise redistribution-bound cycle.
func adiOverlapProgram(n, p int, reference bool) backendProgram {
	return func(nd *machine.Node) func() {
		g := topology.MustGrid(p)
		rows := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, g)
		cols := dist.Must([]int{n, n}, []dist.DimSpec{dist.CollapsedDim(), dist.BlockDim()}, g)
		u := darray.New("oau", rows, nd)
		v := darray.New("oav", rows, nd)
		w := darray.New("oaw", rows, nd)
		line := darray.New("oaline", dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g), nd)
		u.EachLocal(func(gl int) { u.SetLinear(gl, float64(gl%11)) })
		v.EachLocal(func(gl int) { v.SetLinear(gl, 0) })
		w.EachLocal(func(gl int) { w.SetLinear(gl, 0) })
		eng := forall.NewEngine(nd)
		eng.Reference = reference
		// Unlike the pure ADI transpose (where each phase is fully
		// local), every sweep here reads ±1 across the distributed
		// dimension, so each rep has boundary traffic to overlap — and
		// each phase's two sweeps read the same rows of u, so their
		// messages merge under fusion.
		rowSweepV := &forall.Loop{
			Name: "oa.rowv", Lo: 2, Hi: n - 1,
			On: line, OnF: analysis.Identity,
			Reads: []forall.ReadSpec{{Array: u}}, // rows i±1: decided at run time
			Body: func(i int, e *forall.Env) {
				for j := 1; j <= n; j++ {
					x := 0.25*e.ReadAt(u, i-1, j) + 0.5*e.ReadAt(u, i, j) + 0.25*e.ReadAt(u, i+1, j)
					e.Flops(5)
					e.WriteAt(v, x, i, j)
				}
			},
		}
		rowSweepW := &forall.Loop{
			Name: "oa.roww", Lo: 2, Hi: n - 1,
			On: line, OnF: analysis.Identity,
			Reads: []forall.ReadSpec{{Array: u}},
			Body: func(i int, e *forall.Env) {
				for j := 1; j <= n; j++ {
					x := 0.5 * (e.ReadAt(u, i-1, j) + e.ReadAt(u, i+1, j))
					e.Flops(3)
					e.WriteAt(w, x, i, j)
				}
			},
		}
		colSweepV := &forall.Loop{
			Name: "oa.colv", Lo: 2, Hi: n - 1,
			On: line, OnF: analysis.Identity,
			Reads: []forall.ReadSpec{{Array: u}}, // columns j±1: decided at run time
			Body: func(j int, e *forall.Env) {
				for i := 1; i <= n; i++ {
					x := 0.25*e.ReadAt(u, i, j-1) + 0.5*e.ReadAt(u, i, j) + 0.25*e.ReadAt(u, i, j+1)
					e.Flops(5)
					e.WriteAt(v, x, i, j)
				}
			},
		}
		colSweepW := &forall.Loop{
			Name: "oa.colw", Lo: 2, Hi: n - 1,
			On: line, OnF: analysis.Identity,
			Reads: []forall.ReadSpec{{Array: u}},
			Body: func(j int, e *forall.Env) {
				for i := 1; i <= n; i++ {
					x := 0.5 * (e.ReadAt(u, i, j-1) + e.ReadAt(u, i, j+1))
					e.Flops(3)
					e.WriteAt(w, x, i, j)
				}
			},
		}
		rowPair := []forall.SeqLoop{
			{L: rowSweepV, Writes: []*darray.Array{v}},
			{L: rowSweepW, Writes: []*darray.Array{w}},
		}
		colPair := []forall.SeqLoop{
			{L: colSweepV, Writes: []*darray.Array{v}},
			{L: colSweepW, Writes: []*darray.Array{w}},
		}
		return func() {
			eng.RunSequence(rowPair)
			darray.Redistribute(u, cols)
			darray.Redistribute(v, cols)
			darray.Redistribute(w, cols)
			eng.RunSequence(colPair)
			darray.Redistribute(u, rows)
			darray.Redistribute(v, rows)
			darray.Redistribute(w, rows)
		}
	}
}

// mgProgram replays one multigrid V-cycle: every level smooths,
// restricts and prolongs through 1-D block arrays whose ±1 boundary
// exchanges are all compile-time schedules — many small messages whose
// startup-dominated wire time the split-phase executor hides, and
// whose per-level prolongation pair fuses through the sequence API.
func mgProgram(depth, p int, reference bool) backendProgram {
	return func(nd *machine.Node) func() {
		eng := forall.NewEngine(nd)
		eng.Reference = reference
		ctx := &core.Context{Node: nd, Eng: eng, Grid: topology.MustGrid(p)}
		s := mg.New(ctx, depth)
		s.SetRHS(func(x float64) float64 { return x * (1 - x) })
		return func() { s.VCycle() }
	}
}
