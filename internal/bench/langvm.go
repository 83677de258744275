package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"kali/internal/analysis"
	"kali/internal/core"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/lang"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/topology"
)

// LangVM measures what compiling .kali forall bodies to bytecode buys:
// the same three language workloads (the jacobi2d, adi and redblack2d
// programs from the interpreter's testdata, sized up) run through the
// tree-walking interpreter (kalirun -novm), through the bytecode VM
// (the default path), and as hand-written Go against the forall engine
// directly — the floor a native code generator could reach.
//
// Per-element cost is host-measured by sweep differencing: the same
// program runs at two sweep counts and the difference divides out
// everything that is not the steady-state loop body — parse, check,
// elaboration, schedule building, payload-pool growth, machine setup.
// ns/elem and the speedup are wall-clock measurements and therefore
// host-dependent (excluded from the CI gate, see costColumn); the
// allocs/elem column is gated — every row must stay at 0.00: the VM
// and native rows because that is the property the bytecode compiler
// exists for, the interpreter rows because the walker runs a loop's
// iterations on one slot-indexed frame.
func LangVM(opt Options) *Table {
	if opt.Quick {
		return langVM(32, 4, 20, 2)
	}
	return langVM(64, 4, 24, 3)
}

// langVM is the table at mesh size n, differencing runs of s1 and s2
// sweeps, each timed reps times.
func langVM(n, s1, s2, reps int) *Table {
	h := n/2 - 1
	t := &Table{
		ID:    "langvm",
		Title: "language-level forall bodies: tree walker vs bytecode VM vs hand-written Go",
		Header: []string{"workload", "path", "ns/elem (measured)", "allocs/elem",
			"speedup vs interp (measured)"},
		Notes: []string{
			fmt.Sprintf("sim backend, ideal cost params, P=%d; per-element = (run at %d sweeps - run at %d sweeps) / extra elements, best of %d pairs; n=%d all workloads",
				langVMProcs, s2, s1, reps, n),
		},
	}
	for _, w := range []struct {
		name          string
		src           func(sweeps int) string
		elemsPerSweep int
		native        func(sweeps int)
	}{
		{"jacobi2d", func(s int) string { return jacobi2DSrc(n, s) },
			n*n + (n-2)*(n-2), nativeJacobi2D(n)},
		{"adi", func(s int) string { return adiSrc(n, s) },
			2 * n * (n - 2), nativeADI(n)},
		{"redblack2d", func(s int) string { return redblack2DSrc(n, s) },
			2 * h * n, nativeRedBlack2D(n)},
	} {
		interp := langVMDiff(func(s int) { runKali(w.src(s), true) }, s1, s2, w.elemsPerSweep, reps)
		vm := langVMDiff(func(s int) { runKali(w.src(s), false) }, s1, s2, w.elemsPerSweep, reps)
		nat := langVMDiff(w.native, s1, s2, w.elemsPerSweep, reps)
		row := func(path string, m langVMMeas, speedup string) []string {
			return []string{w.name, path, fmt.Sprintf("%.1f", m.nsPerElem),
				fmt.Sprintf("%.2f", m.allocsPerElem), speedup}
		}
		t.Rows = append(t.Rows,
			row("interp", interp, "-"),
			row("vm", vm, f2(interp.nsPerElem/vm.nsPerElem)),
			row("native", nat, f2(interp.nsPerElem/nat.nsPerElem)),
		)
	}
	return t
}

// langVMProcs is the processor count every langvm workload uses: the
// rank-2 programs declare a fixed 2x2 grid and adi's agent picks 4 of
// its 1..8 when offered 4.
const langVMProcs = 4

// runKali compiles and runs one language workload end to end.
func runKali(src string, noVM bool) {
	prog, err := lang.Compile(src)
	if err != nil {
		panic(fmt.Sprintf("bench langvm: %v", err))
	}
	prog.NoVM = noVM
	if _, err := prog.Run(core.Config{P: langVMProcs, Params: machine.Ideal()}); err != nil {
		panic(fmt.Sprintf("bench langvm: %v", err))
	}
}

// langVMMeas is one differenced per-element measurement.
type langVMMeas struct {
	nsPerElem     float64
	allocsPerElem float64
}

// langVMDiff times run at two sweep counts and charges the difference
// to the extra elements.  Scheduler and GC noise only ever add, so each
// sweep count keeps its own minimum over reps and the two minima are
// differenced (the minimum of per-pair differences would reward a slow
// short run).
func langVMDiff(run func(sweeps int), s1, s2, elemsPerSweep, reps int) langVMMeas {
	denom := float64((s2 - s1) * elemsPerSweep)
	t1, t2 := math.Inf(1), math.Inf(1)
	a1, a2 := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for r := 0; r < reps; r++ {
		t, a := hostMeasure(func() { run(s1) })
		t1, a1 = math.Min(t1, t), min(a1, a)
		t, a = hostMeasure(func() { run(s2) })
		t2, a2 = math.Min(t2, t), min(a2, a)
	}
	m := langVMMeas{nsPerElem: math.Max((t2-t1)*1e9/denom, 0)}
	if a2 > a1 {
		m.allocsPerElem = float64(a2-a1) / denom
	}
	return m
}

// hostMeasure runs f once, returning its wall-clock seconds and the
// process-wide malloc count (monotonic, so the GC can stay on — its
// pause time is part of what the walker's garbage costs).
func hostMeasure(f func()) (sec float64, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	f()
	sec = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	return sec, after.Mallocs - before.Mallocs
}

// jacobi2DSrc is testdata/jacobi2d.kali with parametric size and sweep
// count: a [block,block] five-point relaxation with a shifted on
// clause, plus the whole-array copy forall.
func jacobi2DSrc(n, sweeps int) string {
	return fmt.Sprintf(`
processors Procs : array[1..2, 1..2];
const nx = %d;
      ny = %d;
      sweeps = %d;
var u, old : array[1..ny, 1..nx] of real dist by [block, block] on Procs;
    r, c, i, s : integer;
begin
    for r in 1..ny do
        for c in 1..nx do
            if (r = 1) or (r = ny) or (c = 1) or (c = nx) then
                i := (r-1)*nx + c;
                u[r,c] := 1.0 + float(i mod 7);
            end;
        end;
    end;
    for s in 1..sweeps do
        forall r in 1..ny, c in 1..nx on old[r,c].loc do
            old[r,c] := u[r,c];
        end;
        forall r in 1..ny-2, c in 1..nx-2 on u[r+1,c+1].loc do
            u[r+1,c+1] := 0.25*old[r,c+1] + 0.25*old[r+1,c] + 0.25*old[r+1,c+2] + 0.25*old[r+2,c+1];
        end;
    end;
end.
`, n, n, sweeps)
}

// adiSrc is testdata/adi.kali with parametric size: row sweeps in
// [block,*], a redistribution to [*,block] for the column sweeps, and
// back — the body is an inner sequential for loop per line.
func adiSrc(n, sweeps int) string {
	return fmt.Sprintf(`
processors Procs : array[1..P] with P in 1..8;
const n = %d;
      sweeps = %d;
var u : array[1..n, 1..n] of real dist by [block, *] on Procs;
    row : array[1..n] of real dist by [block] on Procs;
    r, c, s : integer;
begin
    for r in 1..n do
        for c in 1..n do
            u[r,c] := float((r*13 + c*7) mod 11);
        end;
    end;
    for s in 1..sweeps do
        forall r in 1..n on row[r].loc do
            var c2 : integer;
            for c2 in 2..n-1 do
                u[r,c2] := 0.25*u[r,c2-1] + 0.5*u[r,c2] + 0.25*u[r,c2+1];
            end;
        end;
        redistribute u as [*, block];
        forall c in 1..n on row[c].loc do
            var r2 : integer;
            for r2 in 2..n-1 do
                u[r2,c] := 0.25*u[r2-1,c] + 0.5*u[r2,c] + 0.25*u[r2+1,c];
            end;
        end;
        redistribute u as [block, *];
    end;
end.
`, n, sweeps)
}

// redblack2DSrc is testdata/redblack2d.kali with parametric size:
// strided (non-unit coefficient) on clauses and reads.
func redblack2DSrc(n, sweeps int) string {
	return fmt.Sprintf(`
processors Procs : array[1..2, 1..2];
const n = %d;
      sweeps = %d;
      h = n div 2 - 1;
var u : array[1..n, 1..n] of real dist by [block, block] on Procs;
    k, c, s : integer;
begin
    for c in 1..n do
        u[1, c] := 1.0;
        u[n, c] := 5.0;
    end;
    for s in 1..sweeps do
        forall k in 1..h, c in 1..n on u[2*k+1, c].loc do
            u[2*k+1, c] := 0.5 * (u[2*k, c] + u[2*k+2, c]);
        end;
        forall k in 1..h, c in 1..n on u[2*k, c].loc do
            u[2*k, c] := 0.5 * (u[2*k-1, c] + u[2*k+1, c]);
        end;
    end;
end.
`, n, sweeps)
}

// nativeJacobi2D is the jacobi2d program hand-written against the
// forall engine: what a Go programmer (or a native code generator)
// would emit for the same loops, including the cost-model charges.
func nativeJacobi2D(n int) func(sweeps int) {
	return func(sweeps int) {
		m := sim.MustNew(langVMProcs, machine.Ideal())
		m.Run(func(nd *machine.Node) {
			g := topology.MustGrid(2, 2)
			d := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g)
			u := darray.New("lvj-u", d, nd)
			old := darray.New("lvj-old", d, nd)
			u.EachLocal(func(gl int) { u.SetLinear(gl, 1+float64(gl%7)) })
			eng := forall.NewEngine(nd)
			cp := &forall.Loop2{
				Name: "lvj-copy", LoI: 1, HiI: n, LoJ: 1, HiJ: n, On: old,
				Body: func(i, j int, e *forall.Env) {
					e.WriteAt(old, e.ReadLocal2(u, i, j), i, j)
				},
			}
			relax := &forall.Loop2{
				Name: "lvj-relax", LoI: 1, HiI: n - 2, LoJ: 1, HiJ: n - 2,
				On: u, OnF2: *analysis.Shift2(1, 1),
				Reads: []forall.ReadSpec{
					{Array: old, Affine2: analysis.Shift2(0, 1)}, {Array: old, Affine2: analysis.Shift2(1, 0)},
					{Array: old, Affine2: analysis.Shift2(1, 2)}, {Array: old, Affine2: analysis.Shift2(2, 1)},
				},
				Body: func(i, j int, e *forall.Env) {
					x := 0.25*e.ReadAt(old, i, j+1) + 0.25*e.ReadAt(old, i+1, j) +
						0.25*e.ReadAt(old, i+1, j+2) + 0.25*e.ReadAt(old, i+2, j+1)
					e.Flops(7)
					e.WriteAt(u, x, i+1, j+1)
				},
			}
			for s := 0; s < sweeps; s++ {
				eng.Run2(cp)
				eng.Run2(relax)
			}
		})
	}
}

// nativeADI is the adi program hand-written: communication-free line
// sweeps in each layout, with the [block,*]<->[*,block] transpose as
// explicit Redistribute calls replayed from the plan store.
func nativeADI(n int) func(sweeps int) {
	return func(sweeps int) {
		m := sim.MustNew(langVMProcs, machine.Ideal())
		m.Run(func(nd *machine.Node) {
			g := topology.MustGrid(nd.P())
			rows := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, g)
			cols := dist.Must([]int{n, n}, []dist.DimSpec{dist.CollapsedDim(), dist.BlockDim()}, g)
			u := darray.New("lva-u", rows, nd)
			line := darray.New("lva-line", dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g), nd)
			u.EachLocal(func(gl int) { u.SetLinear(gl, float64(gl%11)) })
			eng := forall.NewEngine(nd)
			rowSweep := &forall.Loop{
				Name: "lva-rows", Lo: 1, Hi: n, On: line, OnF: analysis.Identity,
				Body: func(r int, e *forall.Env) {
					for c := 2; c < n; c++ {
						e.WriteAt(u, 0.25*e.ReadLocal2(u, r, c-1)+0.5*e.ReadLocal2(u, r, c)+
							0.25*e.ReadLocal2(u, r, c+1), r, c)
					}
					e.Flops(5 * (n - 2))
				},
			}
			colSweep := &forall.Loop{
				Name: "lva-cols", Lo: 1, Hi: n, On: line, OnF: analysis.Identity,
				Body: func(c int, e *forall.Env) {
					for r := 2; r < n; r++ {
						e.WriteAt(u, 0.25*e.ReadLocal2(u, r-1, c)+0.5*e.ReadLocal2(u, r, c)+
							0.25*e.ReadLocal2(u, r+1, c), r, c)
					}
					e.Flops(5 * (n - 2))
				},
			}
			for s := 0; s < sweeps; s++ {
				eng.Run(rowSweep)
				darray.Redistribute(u, cols)
				eng.Run(colSweep)
				darray.Redistribute(u, rows)
			}
		})
	}
}

// nativeRedBlack2D is the redblack2d program hand-written: two strided
// Loop2 sweeps per iteration.
func nativeRedBlack2D(n int) func(sweeps int) {
	return func(sweeps int) {
		m := sim.MustNew(langVMProcs, machine.Ideal())
		m.Run(func(nd *machine.Node) {
			g := topology.MustGrid(2, 2)
			d := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g)
			u := darray.New("lvr-u", d, nd)
			u.EachLocal(func(gl int) {
				switch r := gl / n; r {
				case 0:
					u.SetLinear(gl, 1.0)
				case n - 1:
					u.SetLinear(gl, 5.0)
				}
			})
			eng := forall.NewEngine(nd)
			h := n/2 - 1
			stride := func(c int) analysis.Affine2 {
				return analysis.Affine2{I: analysis.Affine{A: 2, C: c}, J: analysis.Identity}
			}
			red := &forall.Loop2{
				Name: "lvr-red", LoI: 1, HiI: h, LoJ: 1, HiJ: n,
				On: u, OnF2: stride(1),
				Reads: []forall.ReadSpec{
					{Array: u, Affine2: &analysis.Affine2{I: analysis.Affine{A: 2}, J: analysis.Identity}},
					{Array: u, Affine2: &analysis.Affine2{I: analysis.Affine{A: 2, C: 2}, J: analysis.Identity}},
				},
				Body: func(k, c int, e *forall.Env) {
					x := 0.5 * (e.ReadAt(u, 2*k, c) + e.ReadAt(u, 2*k+2, c))
					e.Flops(3)
					e.WriteAt(u, x, 2*k+1, c)
				},
			}
			black := &forall.Loop2{
				Name: "lvr-black", LoI: 1, HiI: h, LoJ: 1, HiJ: n,
				On: u, OnF2: stride(0),
				Reads: []forall.ReadSpec{
					{Array: u, Affine2: &analysis.Affine2{I: analysis.Affine{A: 2, C: -1}, J: analysis.Identity}},
					{Array: u, Affine2: &analysis.Affine2{I: analysis.Affine{A: 2, C: 1}, J: analysis.Identity}},
				},
				Body: func(k, c int, e *forall.Env) {
					x := 0.5 * (e.ReadAt(u, 2*k-1, c) + e.ReadAt(u, 2*k+1, c))
					e.Flops(3)
					e.WriteAt(u, x, 2*k, c)
				},
			}
			for s := 0; s < sweeps; s++ {
				eng.Run2(red)
				eng.Run2(black)
			}
		})
	}
}
