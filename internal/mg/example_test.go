package mg_test

import (
	"fmt"
	"math"

	"kali"
	"kali/internal/analysis"
	"kali/internal/core"
	"kali/internal/forall"
	"kali/internal/mg"
)

const tol = 1e-6

// ExampleSolver_VCycle tests the paper's §4 conjecture head-on.  The
// paper notes that algorithms needing fewer relaxation sweeps (it names
// multigrid) give the inspector less to amortize against, and
// "suspect[s] our approach would be less useful in such cases".
//
// It solves -u” = π²·sin(πx) to a fixed tolerance three ways on the
// simulated NCUBE/7: plain Jacobi sweeps (many cheap, identical
// iterations: the inspector's best case), multigrid V-cycles with
// compile-time analysis (the affine subscripts of smoothing,
// restriction and prolongation all admit it), and multigrid with the
// run-time inspector forced (what a compiler without the closed-form
// path would emit).  Run-time analysis burdens the fast algorithm with
// schedule building, but the cure is the compile-time analysis, which
// makes multigrid's schedule cost negligible while it solves the
// problem orders of magnitude faster than Jacobi.
func ExampleSolver_VCycle() {
	const depth, procs = 7, 8
	n := 1<<uint(depth) - 1
	fmt.Printf("-u'' = π²sin(πx) on %d points, residual tol %.0e, %d processors (NCUBE/7)\n\n", n, tol, procs)
	fmt.Printf("%-34s %8s %10s %10s %10s %9s\n",
		"method", "iters", "total", "executor", "inspector", "overhead")

	iters, rep := runJacobi(n, procs)
	fmt.Printf("%-34s %8d %9.2fs %9.2fs %9.2fs %8.1f%%\n",
		"jacobi sweeps (compile-time)", iters,
		rep.Total, rep.Executor, rep.Inspector, rep.OverheadPct())

	for _, force := range []bool{false, true} {
		cycles, mrep := runMultigrid(depth, procs, force)
		name := "multigrid (compile-time)"
		if force {
			name = "multigrid (run-time inspector)"
		}
		fmt.Printf("%-34s %8d %9.2fs %9.2fs %9.2fs %8.1f%%\n",
			name, cycles, mrep.Total, mrep.Executor, mrep.Inspector, mrep.OverheadPct())
	}

	fmt.Println("\nthe §4 suspicion holds for run-time analysis: a fast algorithm's few,")
	fmt.Println("varied loops leave the inspector nothing to amortize against.  the cure")
	fmt.Println("is the compile-time path — every multigrid subscript is affine.")
	// Output:
	// -u'' = π²sin(πx) on 127 points, residual tol 1e-06, 8 processors (NCUBE/7)
	//
	// method                                iters      total   executor  inspector  overhead
	// jacobi sweeps (compile-time)          54000    195.35s    195.35s      0.00s      0.0%
	// multigrid (compile-time)                  8      0.79s      0.77s      0.01s      1.9%
	// multigrid (run-time inspector)            8     25.42s      0.76s     24.66s     97.0%
	//
	// the §4 suspicion holds for run-time analysis: a fast algorithm's few,
	// varied loops leave the inspector nothing to amortize against.  the cure
	// is the compile-time path — every multigrid subscript is affine.
}

// runJacobi sweeps until the true residual max-norm is below tol.
func runJacobi(n, procs int) (int, core.Report) {
	iters := 0
	rep := core.Run(core.Config{P: procs, Params: kali.NCUBE7()}, func(ctx *core.Context) {
		h := 1.0 / float64(n+1)
		u := ctx.BlockArray("u", n)
		f := ctx.BlockArray("f", n)
		r := ctx.BlockArray("r", n)
		f.Dist().Pattern(0).Local(ctx.ID()).Each(func(i int) {
			f.Set1(i, math.Pi*math.Pi*math.Sin(math.Pi*float64(i)*h))
		})
		guardedRead := func(e *forall.Env, i int) (float64, float64) {
			left, right := 0.0, 0.0
			if i > 1 {
				left = e.Read(u, i-1)
			}
			if i < n {
				right = e.Read(u, i+1)
			}
			return left, right
		}
		stencil := []forall.ReadSpec{
			{Array: u, Affine: &analysis.Affine{A: 1, C: -1}},
			{Array: u, Affine: &analysis.Affine{A: 1, C: 1}},
			{Array: f, Affine: &analysis.Identity},
		}
		sweep := &forall.Loop{
			Name: "jacobi", Lo: 1, Hi: n,
			On: u, OnF: analysis.Identity, Reads: stencil,
			Body: func(i int, e *forall.Env) {
				left, right := guardedRead(e, i)
				e.Flops(5)
				e.Write(u, i, 0.5*(left+right+h*h*e.Read(f, i)))
			},
		}
		residual := &forall.Loop{
			Name: "jacobi.resid", Lo: 1, Hi: n,
			On: r, OnF: analysis.Identity,
			Reads: append([]forall.ReadSpec{{Array: u, Affine: &analysis.Identity}}, stencil...),
			Body: func(i int, e *forall.Env) {
				left, right := guardedRead(e, i)
				e.Flops(6)
				e.Write(r, i, e.Read(f, i)-(2*e.Read(u, i)-left-right)/(h*h))
			},
		}
		k := 0
		for k < 500000 {
			ctx.Forall(sweep)
			k++
			if k%1000 == 0 {
				ctx.Forall(residual)
				local := 0.0
				r.Dist().Pattern(0).Local(ctx.ID()).Each(func(i int) {
					if v := math.Abs(r.Get1(i)); v > local {
						local = v
					}
				})
				if ctx.AllReduce(local, "max") < tol {
					break
				}
			}
		}
		if ctx.ID() == 0 {
			iters = k
		}
	})
	return iters, rep
}

// runMultigrid V-cycles until converged.
func runMultigrid(depth, procs int, force bool) (int, core.Report) {
	cycles := 0
	rep := core.Run(core.Config{P: procs, Params: kali.NCUBE7()}, func(ctx *core.Context) {
		ctx.Eng.ForceInspector = force
		s := mg.New(ctx, depth)
		s.SetRHS(func(x float64) float64 { return math.Pi * math.Pi * math.Sin(math.Pi*x) })
		c := 0
		for s.ResidualNorm() > tol && c < 60 {
			s.VCycle()
			c++
		}
		if ctx.ID() == 0 {
			cycles = c
		}
	})
	return cycles, rep
}
