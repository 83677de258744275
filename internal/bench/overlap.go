package bench

import (
	"fmt"

	"kali/internal/analysis"
	"kali/internal/core"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/machine/wallclock"
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
// The sim columns are deterministic cost-model predictions and stay
// under the CI gate; the pct column expresses the win gate-compatibly
// (production as a percentage of reference, < 100 when overlap and
// fusion pay; growth past baseline means they stopped paying and fails
// -diff).  Wall columns are measured and excluded as in the backend
// table.  Overlap never changes traffic, but fusion merges messages:
// msgs/rep is reported for both executors, and the production column is
// gated so a lost merge (more envelopes) fails CI.  Byte totals are
// identical in every cell of a row.  allocs/replay comes from the
// production sim run: warm replay must stay allocation-free.
func Overlap(opt Options) *Table {
	jacobiN, adiN, mgDepth := 96, 128, 9
	p, mgP := 8, 5
	const reps = 200
	if opt.Quick {
		jacobiN, adiN, mgDepth = 48, 48, 6
		p, mgP = 4, 3
	}
	t := &Table{
		ID:    "overlap",
		Title: "production executor (split-phase, cross-loop fusion) vs the Figure 3 reference",
		Header: []string{"workload", "threads",
			"sim time/rep (ref)", "sim time/rep (prod)", "sim time pct (prod/ref)",
			"wall ms/rep (ref)", "wall ms/rep (prod)",
			"msgs/rep (ref)", "msgs/rep (prod)", "allocs/replay"},
		Notes: []string{
			fmt.Sprintf("NCUBE/7 sim vs measured wall; jacobi2d %dx%d, adi %dx%d coupled sweep pairs with transpose ping-pong, multigrid depth %d; %d replays",
				jacobiN, jacobiN, adiN, adiN, mgDepth, reps),
			fmt.Sprintf("mg runs on %d threads: an odd block size misaligns the fine and coarse block boundaries, so both interpolation loops of the prolongation pair exchange boundary values and fusion has messages to merge (when the fine block is exactly twice the coarse one, the even-point loop is fully local)", mgP),
		},
	}
	for _, w := range []struct {
		name    string
		p       int
		program func(reference bool) backendProgram
	}{
		{"jacobi2d", p, func(ref bool) backendProgram { return jacobi2DProgram(jacobiN, p, ref) }},
		{"adi", p, func(ref bool) backendProgram { return adiOverlapProgram(adiN, p, ref) }},
		{"mg", mgP, func(ref bool) backendProgram { return mgProgram(mgDepth, mgP, ref) }},
	} {
		p := w.p
		simRef := backendRun(sim.MustNew(p, machine.NCUBE7()), p, reps, w.program(true))
		simProd := backendRun(sim.MustNew(p, machine.NCUBE7()), p, reps, w.program(false))
		wallRef := backendRun(wallclock.MustNew(p, machine.NCUBE7()), p, reps, w.program(true))
		wallProd := backendRun(wallclock.MustNew(p, machine.NCUBE7()), p, reps, w.program(false))
		pct := 100.0
		if simRef.secPerRep > 0 {
			pct = 100 * simProd.secPerRep / simRef.secPerRep
		}
		t.Rows = append(t.Rows, []string{
			w.name, fmt.Sprint(p),
			fmt.Sprintf("%.6f", simRef.secPerRep),
			fmt.Sprintf("%.6f", simProd.secPerRep),
			fmt.Sprintf("%.2f", pct),
			fmt.Sprintf("%.3f", wallRef.secPerRep*1e3),
			fmt.Sprintf("%.3f", wallProd.secPerRep*1e3),
			fmt.Sprintf("%.1f", simRef.msgsPerRep),
			fmt.Sprintf("%.1f", simProd.msgsPerRep),
			fmt.Sprintf("%.1f", simProd.allocsPerRep),
		})
	}
	return t
}

// jacobi2DProgram replays the shared five-point stencil Loop2 on an
// n×n [block,block] array: compile-time schedules, one coalesced
// boundary message to each of up to four neighbors per rep.
func jacobi2DProgram(n, p int, reference bool) backendProgram {
	pr, pc := grid2(p)
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

// grid2 factors p into the most-square pr×pc processor grid.
func grid2(p int) (int, int) {
	pr := 1
	for f := 2; p > 1; {
		if p%f == 0 {
			pr *= f
			p /= f
			f = 2
			if pr >= p {
				break
			}
			continue
		}
		f++
	}
	return pr, p
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
