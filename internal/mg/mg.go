// Package mg implements a one-dimensional multigrid Poisson solver on
// the Kali runtime — the algorithm class the paper singles out in §4:
// "there are numerical algorithms requiring fewer relaxation
// iterations.  Such algorithms tend to be much more complex, requiring
// incomplete LU factorizations or multigrid techniques, and we suspect
// our approach would be less useful in such cases."
//
// The solver lets that suspicion be tested.  Every loop a V-cycle
// needs — weighted-Jacobi smoothing, residual computation, full
// weighting restriction, linear-interpolation prolongation — has
// affine subscripts (including the stride-2 inter-grid transfers), so
// under Kali's compile-time analysis the schedule cost is negligible;
// and even when the run-time inspector is forced (ForceInspector),
// each level's handful of schedules is built once and cached across
// V-cycles.  ExampleSolver_VCycle prints the trade-off against plain
// Jacobi sweeps, with and without the forced inspector.
//
// Problem: -u” = f on (0,1), u(0) = u(1) = 0, discretized on n = 2^m-1
// interior points.
package mg

import (
	"fmt"
	"math"

	"kali/internal/analysis"
	"kali/internal/core"
	"kali/internal/darray"
	"kali/internal/forall"
)

// level holds one grid level's arrays on one node.
type level struct {
	n  int // interior points
	h2 float64
	u  *darray.Array
	f  *darray.Array
	r  *darray.Array
}

// Solver is a per-node multigrid hierarchy.
type Solver struct {
	ctx    *core.Context
	levels []*level
	// prolong caches each level's interpolation sequence so warm
	// V-cycles replay it without rebuilding the loops.
	prolong [][]forall.SeqLoop
	// Omega is the Jacobi damping factor (2/3 is standard in 1-D).
	Omega float64
	// Nu1, Nu2 are pre-/post-smoothing sweep counts.
	Nu1, Nu2 int
	// CoarseSweeps smooths the coarsest level to near-exactness.
	CoarseSweeps int
}

// New builds a hierarchy for n = 2^depth - 1 fine interior points,
// coarsening down to a single point.  Every node of the machine must
// call New collectively.
func New(ctx *core.Context, depth int) *Solver {
	if depth < 1 {
		panic("mg: depth must be >= 1")
	}
	s := &Solver{ctx: ctx, Omega: 2.0 / 3.0, Nu1: 2, Nu2: 2, CoarseSweeps: 20}
	for l := 0; l < depth; l++ {
		n := 1<<uint(depth-l) - 1
		h := 1.0 / float64(n+1)
		s.levels = append(s.levels, &level{
			n:  n,
			h2: h * h,
			u:  ctx.BlockArray(fmt.Sprintf("u%d", l), n),
			f:  ctx.BlockArray(fmt.Sprintf("f%d", l), n),
			r:  ctx.BlockArray(fmt.Sprintf("r%d", l), n),
		})
	}
	return s
}

// SetRHS initializes the fine right-hand side from fn(x), x ∈ (0,1).
func (s *Solver) SetRHS(fn func(x float64) float64) {
	lv := s.levels[0]
	h := math.Sqrt(lv.h2)
	lv.f.Dist().Pattern(0).Local(s.ctx.ID()).Each(func(i int) {
		lv.f.Set1(i, fn(float64(i)*h))
	})
}

// smooth runs one damped-Jacobi sweep on level l.  All subscripts are
// affine; copy-in/copy-out gives exactly the Jacobi (not Gauss-Seidel)
// update.
func (s *Solver) smooth(l int) {
	lv := s.levels[l]
	omega := s.Omega
	h2 := lv.h2
	u, f := lv.u, lv.f
	s.ctx.Forall(&forall.Loop{
		Name: fmt.Sprintf("mg.smooth%d", l), Lo: 1, Hi: lv.n,
		On: u, OnF: analysis.Identity,
		Reads: []forall.ReadSpec{
			{Array: u, Affine: &analysis.Affine{A: 1, C: -1}},
			{Array: u, Affine: &analysis.Identity},
			{Array: u, Affine: &analysis.Affine{A: 1, C: 1}},
			{Array: f, Affine: &analysis.Identity},
		},
		Body: func(i int, e *forall.Env) {
			left, right := 0.0, 0.0
			if i > 1 {
				left = e.Read(u, i-1)
			}
			if i < lv.n {
				right = e.Read(u, i+1)
			}
			old := e.Read(u, i)
			gs := 0.5 * (left + right + h2*e.Read(f, i))
			e.Flops(7)
			e.Write(u, i, (1-omega)*old+omega*gs)
		},
	})
}

// residual computes r = f - Au on level l.
func (s *Solver) residual(l int) {
	lv := s.levels[l]
	h2 := lv.h2
	u, f, r := lv.u, lv.f, lv.r
	s.ctx.Forall(&forall.Loop{
		Name: fmt.Sprintf("mg.resid%d", l), Lo: 1, Hi: lv.n,
		On: r, OnF: analysis.Identity,
		Reads: []forall.ReadSpec{
			{Array: u, Affine: &analysis.Affine{A: 1, C: -1}},
			{Array: u, Affine: &analysis.Identity},
			{Array: u, Affine: &analysis.Affine{A: 1, C: 1}},
			{Array: f, Affine: &analysis.Identity},
		},
		Body: func(i int, e *forall.Env) {
			left, right := 0.0, 0.0
			if i > 1 {
				left = e.Read(u, i-1)
			}
			if i < lv.n {
				right = e.Read(u, i+1)
			}
			au := (2*e.Read(u, i) - left - right) / h2
			e.Flops(5)
			e.Write(r, i, e.Read(f, i)-au)
		},
	})
}

// restrictTo computes the coarse RHS by full weighting of the fine
// residual: fc[k] = (r[2k-1] + 2 r[2k] + r[2k+1]) / 4 — the stride-2
// affine transfer.
func (s *Solver) restrictTo(l int) {
	fine, coarse := s.levels[l], s.levels[l+1]
	r, fc := fine.r, coarse.f
	s.ctx.Forall(&forall.Loop{
		Name: fmt.Sprintf("mg.restrict%d", l), Lo: 1, Hi: coarse.n,
		On: fc, OnF: analysis.Identity,
		Reads: []forall.ReadSpec{
			{Array: r, Affine: &analysis.Affine{A: 2, C: -1}},
			{Array: r, Affine: &analysis.Affine{A: 2, C: 0}},
			{Array: r, Affine: &analysis.Affine{A: 2, C: 1}},
		},
		Body: func(k int, e *forall.Env) {
			e.Flops(4)
			e.Write(fc, k, 0.25*(e.Read(r, 2*k-1)+2*e.Read(r, 2*k)+e.Read(r, 2*k+1)))
		},
	})
}

// zero clears a level's solution.
func (s *Solver) zero(l int) {
	lv := s.levels[l]
	u := lv.u
	s.ctx.Forall(&forall.Loop{
		Name: fmt.Sprintf("mg.zero%d", l), Lo: 1, Hi: lv.n,
		On: u, OnF: analysis.Identity,
		Body: func(i int, e *forall.Env) {
			e.Write(u, i, 0)
		},
	})
}

// prolongAdd interpolates the coarse correction up to the fine grid:
// even fine points coincide with coarse points; odd ones average their
// coarse neighbors.  The interpolation lands in the fine residual
// array — dead scratch here, its content already restricted — and a
// purely local loop adds it into u.  Both interpolation loops read
// only the coarse solution, so the sequence API fuses their messages
// into one send per processor pair (the add loop reads what they
// wrote and starts a new window; it moves no data anyway).
func (s *Solver) prolongAdd(l int) {
	if s.prolong == nil {
		s.prolong = make([][]forall.SeqLoop, len(s.levels))
	}
	if s.prolong[l] != nil {
		s.ctx.ForallSeq(s.prolong[l])
		return
	}
	fine, coarse := s.levels[l], s.levels[l+1]
	u, uc, r := fine.u, coarse.u, fine.r
	// Fine point 2k gets uc[k] directly.
	even := &forall.Loop{
		Name: fmt.Sprintf("mg.prolongE%d", l), Lo: 1, Hi: coarse.n,
		On: r, OnF: analysis.Affine{A: 2, C: 0},
		Reads: []forall.ReadSpec{
			{Array: uc, Affine: &analysis.Identity},
		},
		Body: func(k int, e *forall.Env) {
			e.Write(r, 2*k, e.Read(uc, k))
		},
	}
	// Fine point 2k-1 averages uc[k-1] and uc[k] (zero outside).
	odd := &forall.Loop{
		Name: fmt.Sprintf("mg.prolongO%d", l), Lo: 1, Hi: coarse.n + 1,
		On: r, OnF: analysis.Affine{A: 2, C: -1},
		Reads: []forall.ReadSpec{
			{Array: uc, Affine: &analysis.Affine{A: 1, C: -1}},
			{Array: uc, Affine: &analysis.Identity},
		},
		Body: func(k int, e *forall.Env) {
			corr := 0.0
			if k > 1 {
				corr += e.Read(uc, k-1)
			}
			if k <= coarse.n {
				corr += e.Read(uc, k)
			}
			e.Flops(3)
			e.Write(r, 2*k-1, 0.5*corr)
		},
	}
	// u += r, owner-aligned on both sides: no communication.
	add := &forall.Loop{
		Name: fmt.Sprintf("mg.prolongA%d", l), Lo: 1, Hi: fine.n,
		On: u, OnF: analysis.Identity,
		Reads: []forall.ReadSpec{
			{Array: u, Affine: &analysis.Identity},
			{Array: r, Affine: &analysis.Identity},
		},
		Body: func(i int, e *forall.Env) {
			e.Flops(1)
			e.Write(u, i, e.Read(u, i)+e.Read(r, i))
		},
	}
	s.prolong[l] = []forall.SeqLoop{
		{L: even, Writes: []*darray.Array{r}},
		{L: odd, Writes: []*darray.Array{r}},
		{L: add, Writes: []*darray.Array{u}},
	}
	s.ctx.ForallSeq(s.prolong[l])
}

// VCycle runs one V-cycle from the finest level.
func (s *Solver) VCycle() {
	s.vcycle(0)
}

func (s *Solver) vcycle(l int) {
	if l == len(s.levels)-1 {
		for k := 0; k < s.CoarseSweeps; k++ {
			s.smooth(l)
		}
		return
	}
	for k := 0; k < s.Nu1; k++ {
		s.smooth(l)
	}
	s.residual(l)
	s.restrictTo(l)
	s.zero(l + 1)
	s.vcycle(l + 1)
	s.prolongAdd(l)
	for k := 0; k < s.Nu2; k++ {
		s.smooth(l)
	}
}

// ResidualNorm returns the max-norm of the fine-grid residual
// (collective: every node gets the same value).
func (s *Solver) ResidualNorm() float64 {
	s.residual(0)
	lv := s.levels[0]
	local := 0.0
	lv.r.Dist().Pattern(0).Local(s.ctx.ID()).Each(func(i int) {
		if v := math.Abs(lv.r.Get1(i)); v > local {
			local = v
		}
	})
	return s.ctx.AllReduce(local, "max")
}

// Gather collects the fine-grid solution into out (host-side; indices
// 0..n-1 are interior points).  Each node writes its own elements.
func (s *Solver) Gather(out []float64) {
	lv := s.levels[0]
	lv.u.Dist().Pattern(0).Local(s.ctx.ID()).Each(func(i int) {
		out[i-1] = lv.u.Get1(i)
	})
}
