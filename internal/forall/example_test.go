package forall_test

import (
	"fmt"
	"sync"

	"kali/internal/analysis"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/mesh"
	"kali/internal/topology"
)

// ExampleEngine_Run2 exercises multi-dimensional processor arrays,
// which the paper declares ("Multi-dimensional processor arrays can be
// declared similarly") but evaluates only in 1-D.  The same five-point
// relaxation runs under
//
//	processors Procs : array[1..P]        (block rows)
//	processors Procs : array[1..p, 1..p]  (block×block tiles)
//
// and the surface-to-volume effect appears: at equal processor counts,
// square tiles exchange ~2/√P as many boundary elements as row bands,
// so the 2-D decomposition pulls ahead as P grows.
//
// It then compares the §5 executor variants in 2-D: the same
// relaxation, written with a shifted (non-identity) affine on clause,
// still builds its schedule at compile time; the Saltz-style
// enumerated executor must instead run the inspector and keep a
// per-reference list, which needs strictly more schedule storage.
func ExampleEngine_Run2() {
	const side, sweeps = 64, 20
	m := mesh.Rect(side, side)
	want := mesh.SeqJacobi(m, mesh.InitValues(m), sweeps)

	fmt.Printf("five-point relaxation, %dx%d mesh, %d sweeps (NCUBE/7)\n\n", side, side, sweeps)
	fmt.Printf("%-14s %8s %14s %12s %12s %12s\n", "decomposition", "procs", "schedule", "executor", "inspector", "bytes moved")

	for _, cfg := range []struct {
		name   string
		pr, pc int
	}{
		{"4x1 rows", 4, 1}, {"2x2 tiles", 2, 2},
		{"16x1 rows", 16, 1}, {"4x4 tiles", 4, 4},
	} {
		got, exec, insp, bytes, kind := run2D(side, side, cfg.pr, cfg.pc, sweeps)
		if d := mesh.MaxDelta(got, want); d != 0 {
			panic(fmt.Sprintf("%s: WRONG ANSWER (%g)", cfg.name, d))
		}
		fmt.Printf("%-14s %8d %14s %11.3fs %11.3fs %12d\n",
			cfg.name, cfg.pr*cfg.pc, kind, exec, insp, bytes)
	}
	fmt.Println("\ntiles win at P=16: each tile's perimeter (4·n/√P) is half the row")
	fmt.Println("band's boundary (2·n), halving both messages and buffer searches.")

	kindPre, memPre := variantStorage2D(side, false)
	kindEnum, memEnum := variantStorage2D(side, true)
	fmt.Printf("\nshifted on clause (on a[i+1,j+1].loc) on 2x2 tiles:\n")
	fmt.Printf("  precomputed: build %-12v %6d schedule B/proc\n", kindPre, memPre)
	fmt.Printf("  enumerated:  build %-12v %6d schedule B/proc\n", kindEnum, memEnum)
	// Output:
	// five-point relaxation, 64x64 mesh, 20 sweeps (NCUBE/7)
	//
	// decomposition     procs       schedule     executor    inspector  bytes moved
	// 4x1 rows              4   compile-time       4.440s       0.001s        59520
	// 2x2 tiles             4   compile-time       4.237s       0.001s        39680
	// 16x1 rows            16   compile-time       1.622s       0.001s       297600
	// 4x4 tiles            16   compile-time       1.600s       0.001s       119040
	//
	// tiles win at P=16: each tile's perimeter (4·n/√P) is half the row
	// band's boundary (2·n), halving both messages and buffer searches.
	//
	// shifted on clause (on a[i+1,j+1].loc) on 2x2 tiles:
	//   precomputed: build compile-time  17152 schedule B/proc
	//   enumerated:  build inspector     20080 schedule B/proc
}

// variantStorage2D runs one relaxation sweep on a 2x2 grid with a
// shifted affine on clause and reports the schedule's provenance and
// worst per-node storage for the chosen executor variant.
func variantStorage2D(n int, enumerate bool) (forall.BuildKind, int) {
	g := topology.MustGrid(2, 2)
	d := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g)
	mach := sim.MustNew(4, machine.NCUBE7())
	var kind forall.BuildKind
	mem := 0
	var mu sync.Mutex
	mach.Run(func(nd *machine.Node) {
		a := darray.New("a", d, nd)
		old := darray.New("old", d, nd)
		eng := forall.NewEngine(nd)
		eng.Run2(&forall.Loop2{
			Name: "relax-shifted", LoI: 1, HiI: n - 2, LoJ: 1, HiJ: n - 2,
			On:   a,
			OnF2: analysis.Affine2{I: analysis.Affine{A: 1, C: 1}, J: analysis.Affine{A: 1, C: 1}},
			Reads: []forall.ReadSpec{
				{Array: old, Affine2: analysis.Shift2(0, 1)}, {Array: old, Affine2: analysis.Shift2(2, 1)},
				{Array: old, Affine2: analysis.Shift2(1, 0)}, {Array: old, Affine2: analysis.Shift2(1, 2)},
			},
			Enumerate: enumerate,
			Body: func(i, j int, e *forall.Env) {
				x := 0.25 * (e.ReadAt(old, i, j+1) + e.ReadAt(old, i+2, j+1) +
					e.ReadAt(old, i+1, j) + e.ReadAt(old, i+1, j+2))
				e.Flops(9)
				e.WriteAt(a, x, i+1, j+1)
			},
		})
		mu.Lock()
		s := eng.Schedule2("relax-shifted")
		kind = s.Kind()
		mem = max(mem, s.MemBytes())
		mu.Unlock()
	})
	return kind, mem
}

// run2D runs the relaxation as 2-D foralls on a pr×pc grid of the
// simulated NCUBE/7.  The stencil subscripts are per-dimension affine,
// so the engine derives the halo-exchange schedules at compile time:
// no inspector pass.
func run2D(nx, ny, pr, pc, sweeps int) ([]float64, float64, float64, int, forall.BuildKind) {
	g := topology.MustGrid(pr, pc)
	d := dist.Must([]int{ny, nx}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g)
	mach := sim.MustNew(pr*pc, machine.NCUBE7())
	out := make([]float64, nx*ny)
	var kind forall.BuildKind
	var mu sync.Mutex
	mach.Run(func(nd *machine.Node) {
		a := darray.New("a", d, nd)
		old := darray.New("old", d, nd)
		for r := 1; r <= ny; r++ {
			for c := 1; c <= nx; c++ {
				if a.IsLocal(r, c) && (r == 1 || r == ny || c == 1 || c == nx) {
					i := (r-1)*nx + c
					a.Set2(r, c, 1.0+float64(i%7))
				}
			}
		}
		eng := forall.NewEngine(nd)
		copyLoop := &forall.Loop2{
			Name: "copy", LoI: 1, HiI: ny, LoJ: 1, HiJ: nx,
			On: old, Reads: []forall.ReadSpec{{Array: a, Affine2: &analysis.Identity2}}, Phase: "copy",
			Body: func(i, j int, e *forall.Env) {
				e.WriteAt(old, e.ReadAt(a, i, j), i, j)
			},
		}
		relaxLoop := &forall.Loop2{
			Name: "relax", LoI: 2, HiI: ny - 1, LoJ: 2, HiJ: nx - 1,
			On: a, Reads: []forall.ReadSpec{
				{Array: old, Affine2: analysis.Shift2(-1, 0)}, {Array: old, Affine2: analysis.Shift2(1, 0)},
				{Array: old, Affine2: analysis.Shift2(0, -1)}, {Array: old, Affine2: analysis.Shift2(0, 1)},
			},
			Body: func(i, j int, e *forall.Env) {
				x := 0.25 * (e.ReadAt(old, i-1, j) + e.ReadAt(old, i+1, j) +
					e.ReadAt(old, i, j-1) + e.ReadAt(old, i, j+1))
				e.Flops(9)
				e.WriteAt(a, x, i, j)
			},
		}
		for s := 0; s < sweeps; s++ {
			eng.Run2(copyLoop)
			eng.Run2(relaxLoop)
		}
		mu.Lock()
		if s := eng.Schedule2("relax"); s != nil {
			kind = s.Kind()
		}
		for r := 1; r <= ny; r++ {
			for c := 1; c <= nx; c++ {
				if a.IsLocal(r, c) {
					out[(r-1)*nx+c-1] = a.Get2(r, c)
				}
			}
		}
		mu.Unlock()
	})
	bytes := 0
	for i := 0; i < mach.P(); i++ {
		bytes += mach.Node(i).Stats().BytesSent
	}
	return out, mach.MaxPhase(forall.PhaseExecutor), mach.MaxPhase(forall.PhaseInspector), bytes, kind
}
