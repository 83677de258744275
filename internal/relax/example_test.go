package relax_test

import (
	"fmt"

	"kali"
	"kali/internal/mesh"
	"kali/internal/relax"
)

// validate panics unless the distributed run reproduced the sequential
// solver bit for bit, so a wrong answer fails the example.
func validate(what string, got, want []float64) {
	if d := mesh.MaxDelta(got, want); d != 0 {
		panic(fmt.Sprintf("%s: WRONG ANSWER (delta %g)", what, d))
	}
}

// ExampleRun_jacobi reproduces the paper's measured experiment end to
// end: the Figure 4 relaxation program on a rectangular mesh with the
// standard five-point Laplacian, run on both simulated machines,
// validated against a sequential solver, with the paper-style timing
// breakdown.
func ExampleRun_jacobi() {
	const side, sweeps, procs = 64, 100, 16
	m := mesh.Rect(side, side)
	fmt.Printf("mesh: %s (%d nodes, %d references per sweep)\n\n",
		m.Desc, m.N, m.TotalRefs())

	// Validate once on the ideal machine against the sequential oracle.
	check := relax.Run(relax.Options{
		Mesh: m, Sweeps: sweeps, P: procs, Params: kali.Ideal(), Gather: true,
	})
	validate("jacobi", check.Values, mesh.SeqJacobi(m, mesh.InitValues(m), sweeps))
	fmt.Printf("validation: distributed == sequential over %d sweeps ✓\n\n", sweeps)

	fmt.Printf("%-8s %8s %10s %10s %10s %9s\n",
		"machine", "procs", "total", "executor", "inspector", "overhead")
	for _, params := range []kali.Params{kali.NCUBE7(), kali.IPSC2()} {
		r := relax.Run(relax.Options{Mesh: m, Sweeps: sweeps, P: procs, Params: params})
		fmt.Printf("%-8s %8d %9.2fs %9.2fs %9.2fs %8.1f%%\n",
			params.Name, procs, r.Report.Total, r.Report.Executor,
			r.Report.Inspector, r.Report.OverheadPct())
	}
	fmt.Println("\nthe inspector runs once; its schedule is reused by every sweep (paper §3.2).")
	// Output:
	// mesh: rect 64x64 (4096 nodes, 15376 references per sweep)
	//
	// validation: distributed == sequential over 100 sweeps ✓
	//
	// machine     procs      total   executor  inspector  overhead
	// NCUBE/7        16     11.80s     10.97s      0.83s      7.0%
	// iPSC/2         16      2.57s      2.54s      0.03s      1.3%
	//
	// the inspector runs once; its schedule is reused by every sweep (paper §3.2).
}

// ExampleRun_distributions demonstrates the paper's §2.4 claim:
// because the forall bodies use a global name space, "a variety of
// distribution patterns can easily be tried by trivial modification of
// this program".  The same Figure 4 relaxation runs under four
// distributions (only Options.Dist changes), and the timing
// differences show why Kali leaves the distribution under programmer
// control: it is the performance-critical decision.
func ExampleRun_distributions() {
	const side, procs, sweeps = 64, 8, 50
	m := mesh.Rect(side, side)
	want := mesh.SeqJacobi(m, mesh.InitValues(m), sweeps)

	fmt.Printf("Figure 4 relaxation, %s, %d sweeps, %d processors (NCUBE/7)\n", m.Desc, sweeps, procs)
	fmt.Printf("the program text is IDENTICAL in every row; only the dist clause changes\n\n")
	fmt.Printf("%-18s %10s %10s %10s %14s\n", "dist by [...]", "total", "executor", "inspector", "nonlocal iters")

	cases := []struct {
		name string
		dim  kali.DimSpec
	}{
		{"block", kali.BlockDim()},
		{"cyclic", kali.CyclicDim()},
		{"block_cyclic(32)", kali.BlockCyclicDim(32)},
		{"block_cyclic(4)", kali.BlockCyclicDim(4)},
	}
	for _, c := range cases {
		// Correctness never varies with the distribution.
		check := relax.Run(relax.Options{
			Mesh: m, Sweeps: sweeps, P: procs, Params: kali.Ideal(),
			Dist: c.dim, Gather: true,
		})
		validate(c.name, check.Values, want)
		r := relax.Run(relax.Options{
			Mesh: m, Sweeps: sweeps, P: procs, Params: kali.NCUBE7(), Dist: c.dim,
		})
		fmt.Printf("%-18s %9.2fs %9.2fs %9.2fs %14d\n",
			c.name, r.Report.Total, r.Report.Executor, r.Report.Inspector, r.NonlocalIters)
	}

	fmt.Println("\nblock wins for stencils: neighbors are contiguous, so only band")
	fmt.Println("boundaries communicate.  cyclic turns nearly every reference nonlocal.")
	fmt.Println("block_cyclic interpolates — the granularity/balance knob of §2.2.")
	// Output:
	// Figure 4 relaxation, rect 64x64, 50 sweeps, 8 processors (NCUBE/7)
	// the program text is IDENTICAL in every row; only the dist clause changes
	//
	// dist by [...]           total   executor  inspector nonlocal iters
	// block                   9.96s      9.26s      0.70s            124
	// cyclic                 40.74s     39.79s      0.95s            496
	// block_cyclic(32)       30.85s     30.09s      0.75s            496
	// block_cyclic(4)        15.40s     14.64s      0.75s            248
	//
	// block wins for stencils: neighbors are contiguous, so only band
	// boundaries communicate.  cyclic turns nearly every reference nonlocal.
	// block_cyclic interpolates — the granularity/balance knob of §2.2.
}

// ExampleRun_unstructured runs the workload the paper's introduction
// motivates: relaxation on an irregular mesh, where the adjacency
// structure is data (adj/coef arrays) and the communication pattern
// cannot be known until run time.  The node numbering is randomly
// permuted, so block distribution scatters each processor's neighbors
// across the whole machine: the inspector discovers the pattern, the
// Crystal router transposes it, and the schedule is reused for every
// sweep.  The last column is the largest per-processor count of
// nonlocal iterations.
func ExampleRun_unstructured() {
	const side, procs, sweeps = 48, 16, 50
	rect := mesh.Rect(side, side)
	unst := mesh.Unstructured(side, side, true, 1990)

	fmt.Printf("comparing meshes with %d nodes on %d processors (%d sweeps, NCUBE/7):\n\n",
		rect.N, procs, sweeps)

	// Correctness first: distributed == sequential on the shuffled mesh.
	got := relax.Run(relax.Options{
		Mesh: unst, Sweeps: sweeps, P: procs, Params: kali.Ideal(), Gather: true,
	})
	validate("unstructured", got.Values, mesh.SeqJacobi(unst, mesh.InitValues(unst), sweeps))
	fmt.Println("validation: shuffled unstructured mesh matches sequential solver ✓")

	fmt.Printf("\n%-32s %8s %10s %10s %10s %14s\n",
		"mesh", "avg deg", "total", "executor", "inspector", "nonlocal iters")
	for _, m := range []*mesh.Mesh{rect, unst} {
		r := relax.Run(relax.Options{Mesh: m, Sweeps: sweeps, P: procs, Params: kali.NCUBE7()})
		fmt.Printf("%-32s %8.1f %9.2fs %9.2fs %9.2fs %14d\n",
			m.Desc, m.AvgDegree(), r.Report.Total, r.Report.Executor,
			r.Report.Inspector, r.NonlocalIters)
	}
	fmt.Println("\nas §4 predicts, the 6-neighbor unstructured grid costs more in every")
	fmt.Println("phase — more references to inspect, more elements to communicate, and")
	fmt.Println("more nonlocal iterations paying the O(log r) buffer search.")
	// Output:
	// comparing meshes with 2304 nodes on 16 processors (50 sweeps, NCUBE/7):
	//
	// validation: shuffled unstructured mesh matches sequential solver ✓
	//
	// mesh                              avg deg      total   executor  inspector nonlocal iters
	// rect 48x48                            4.0      4.19s      3.38s      0.80s             92
	// unstructured 48x48 shuffle=true       6.0     26.57s     25.62s      0.96s            138
	//
	// as §4 predicts, the 6-neighbor unstructured grid costs more in every
	// phase — more references to inspect, more elements to communicate, and
	// more nonlocal iterations paying the O(log r) buffer search.
}

// ExampleRun_loadbalance explores the paper's stated future work: "we
// also plan to look at more complex example programs, including those
// requiring dynamic load balancing."
//
// Only the first quarter of the mesh's rows carry active (interior)
// points, as in an adaptively refined region, so under the block
// distribution one processor owns nearly all the work while the rest
// idle.  A user-defined distribution (Options.Owners, Kali's "dist by
// a user map") re-decomposes without touching the loop body: the
// active rows are dealt evenly and the executor time drops.  The gain
// is bounded: the old_a := a copy sweep is already balanced, and the
// bulk-synchronous pipeline makes every processor wait for its
// neighbors' messages.
func ExampleRun_loadbalance() {
	const nx, ny, sweeps, procs = 32, 64, 50, 4
	m := mesh.Rect(nx, ny)
	// Deactivate rows beyond the first quarter: count = 0 points are
	// pinned and nearly free per sweep.
	for i := 1; i <= m.N; i++ {
		if (i-1)/nx >= ny/4 {
			m.Count[i-1] = 0
		}
	}
	activeRows := ny/4 - 1 // rows 2..ny/4 (row 1 is mesh boundary)
	fmt.Printf("mesh: %dx%d, active rows: 2..%d only (%d references/sweep)\n\n",
		nx, ny, ny/4, m.TotalRefs())

	block := relax.Run(relax.Options{Mesh: m, Sweeps: sweeps, P: procs, Params: kali.NCUBE7()})

	// User map: deal active rows evenly, idle rows proportionally.
	owners := make([]int, m.N)
	active := 0
	for r := 0; r < ny; r++ {
		rowActive := false
		for c := 0; c < nx; c++ {
			if m.Count[r*nx+c] > 0 {
				rowActive = true
				break
			}
		}
		owner := r * procs / ny
		if rowActive {
			owner = min(active*procs/activeRows, procs-1)
			active++
		}
		for c := 0; c < nx; c++ {
			owners[r*nx+c] = owner
		}
	}
	balanced := relax.Run(relax.Options{
		Mesh: m, Sweeps: sweeps, P: procs, Params: kali.NCUBE7(), Owners: owners,
	})

	// Same answer either way.
	check := relax.Run(relax.Options{
		Mesh: m, Sweeps: sweeps, P: procs, Params: kali.Ideal(), Owners: owners, Gather: true,
	})
	validate("user map", check.Values, mesh.SeqJacobi(m, mesh.InitValues(m), sweeps))

	fmt.Printf("%-34s %10s %10s\n", "distribution", "total", "executor")
	fmt.Printf("%-34s %9.2fs %9.2fs\n", "block (one proc does ~all work)",
		block.Report.Total, block.Report.Executor)
	fmt.Printf("%-34s %9.2fs %9.2fs\n", "user map (active rows dealt)",
		balanced.Report.Total, balanced.Report.Executor)
	fmt.Printf("\nexecutor speedup from rebalancing: %.2fx\n",
		block.Report.Executor/balanced.Report.Executor)
	fmt.Println("(bounded below the raw imbalance by the already-balanced copy sweep")
	fmt.Println(" and the neighbor-wait pipeline — the loop body itself is unchanged)")
	// Output:
	// mesh: 32x64, active rows: 2..16 only (1800 references/sweep)
	//
	// distribution                            total   executor
	// block (one proc does ~all work)         7.82s      7.34s
	// user map (active rows dealt)            6.19s      5.72s
	//
	// executor speedup from rebalancing: 1.28x
	// (bounded below the raw imbalance by the already-balanced copy sweep
	//  and the neighbor-wait pipeline — the loop body itself is unchanged)
}
