package forall

import (
	"testing"

	"kali/internal/analysis"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/topology"
)

// Line reads: a rank-1 loop reading a rank-2 array through one affine
// subscript (ReadSpec.Dim) and one arbitrary one.  The read is analyzed
// while the array's layout distributes exactly that dimension; under any
// other layout the loop takes the inspector.

// lineSumLoop sums line i+c of x along dimension dim into out[i]: the
// row x[i+c, *] for dim 0, the column x[*, i+c] for dim 1.
func lineSumLoop(name string, lo, hi, dim, c int, out, x *darray.Array) *Loop {
	n := x.Extent(1 - dim)
	return &Loop{
		Name: name, Lo: lo, Hi: hi,
		On: out, OnF: analysis.Identity,
		Reads: []ReadSpec{{Array: x, Affine: &analysis.Affine{A: 1, C: c}, Dim: dim}},
		Body: func(i int, e *Env) {
			s := 0.0
			for k := 1; k <= n; k++ {
				if dim == 0 {
					s += e.Read2(x, i+c, k)
				} else {
					s += e.Read2(x, k, i+c)
				}
			}
			e.Write(out, i, s)
		},
	}
}

// lineSum is what lineSumLoop leaves in out[i] when x[r, k] = 100r + k.
func lineSum(i, dim, c, n int) float64 {
	s := 0.0
	for k := 1; k <= n; k++ {
		if dim == 0 {
			s += float64(100*(i+c) + k)
		} else {
			s += float64(100*k + i + c)
		}
	}
	return s
}

// TestLineReadsFollowTheLayout: under each layout of x a shifted row
// read and a shifted column read each take the compile-time path when
// the layout distributes the dimension they subscript and the inspector
// otherwise, and both paths compute every line sum.  A compile-time plan
// receives whole lines, so it receives at least what the inspector's
// plan for the same loop does.
func TestLineReadsFollowTheLayout(t *testing.T) {
	const n, p = 12, 4
	g := topology.MustGrid(p)
	layouts := map[string][]dist.DimSpec{
		"[block,*]":  {dist.BlockDim(), dist.CollapsedDim()},
		"[*,block]":  {dist.CollapsedDim(), dist.BlockDim()},
		"[cyclic,*]": {dist.CyclicDim(), dist.CollapsedDim()},
		"[*,cyclic]": {dist.CollapsedDim(), dist.CyclicDim()},
	}
	dOut := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	for name, specs := range layouts {
		dx := dist.Must([]int{n, n}, specs, g)
		for dim := range 2 {
			want := BuildInspector
			if dx.Pattern(dim) != nil {
				want = BuildCompileTime
			}
			mach := sim.MustNew(p, machine.Ideal())
			mach.Run(func(nd *machine.Node) {
				x, out := darray.New("x", dx, nd), darray.New("out", dOut, nd)
				for r := 1; r <= n; r++ {
					for k := 1; k <= n; k++ {
						if x.IsLocal2(r, k) {
							x.Set2(r, k, float64(100*r+k))
						}
					}
				}
				eng := NewEngine(nd)
				eng.Run(lineSumLoop("shift", 1, n-1, dim, 1, out, x))
				if k := eng.LastBuildKind(); k != want {
					t.Errorf("%s dim %d: built %v, want %v", name, dim, k, want)
				}
				ct := eng.Schedule("shift")
				insp := NewEngine(nd)
				insp.ForceInspector = true
				insp.Run(lineSumLoop("shift", 1, n-1, dim, 1, out, x))
				if got, floor := ct.RecvCount(), insp.Schedule("shift").RecvCount(); got < floor {
					t.Errorf("%s dim %d node %d: plan receives %d elements, the inspector's %d", name, dim, nd.ID(), got, floor)
				}
				for i := 1; i < n; i++ {
					if out.IsLocal1(i) && out.Get1(i) != lineSum(i, dim, 1, n) {
						t.Errorf("%s dim %d: out[%d] = %g, want %g", name, dim, i, out.Get1(i), lineSum(i, dim, 1, n))
					}
				}
			})
		}
	}
}

// TestLinePlansNeverCrossDimensions: plans for row reads and for column
// reads are never adopted for each other.  Two loops alike but for the
// dimension they read have different share keys even while the array's
// layout is one and the same; across a transpose the column loop builds
// its own plan instead of adopting the row loop's, the row loop replays
// its own when the layout returns, and a second row loop adopts it.
func TestLinePlansNeverCrossDimensions(t *testing.T) {
	const n, p = 12, 4
	g := topology.MustGrid(p)
	rows := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, g)
	cols := dist.Must([]int{n, n}, []dist.DimSpec{dist.CollapsedDim(), dist.BlockDim()}, g)
	dOut := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	mach := sim.MustNew(p, machine.Ideal())
	mach.Run(func(nd *machine.Node) {
		x, out := darray.New("x", rows, nd), darray.New("out", dOut, nd)
		for r := 1; r <= n; r++ {
			for k := 1; k <= n; k++ {
				if x.IsLocal2(r, k) {
					x.Set2(r, k, float64(100*r+k))
				}
			}
		}
		var c0, c1 loopCore
		lineSumLoop("l", 1, n, 0, 0, out, x).lower(&c0)
		lineSumLoop("l", 1, n, 1, 0, out, x).lower(&c1)
		if k0, k1 := shareKeyOf(&c0), shareKeyOf(&c1); k0 == k1 || k0.fingerprint() == k1.fingerprint() {
			t.Errorf("row and column reads of one layout share key %+v", k0)
		}

		eng := NewEngine(nd)
		check := func(step string, dim int, want BuildKind) {
			if k := eng.LastBuildKind(); k != want {
				t.Errorf("node %d, %s: %v, want %v", nd.ID(), step, k, want)
			}
			for i := 1; i <= n; i++ {
				if out.IsLocal1(i) && out.Get1(i) != lineSum(i, dim, 0, n) {
					t.Errorf("node %d, %s: out[%d] = %g, want %g", nd.ID(), step, i, out.Get1(i), lineSum(i, dim, 0, n))
				}
			}
		}
		eng.Run(lineSumLoop("rows", 1, n, 0, 0, out, x))
		check("rows under [block,*]", 0, BuildCompileTime)
		darray.Redistribute(x, cols)
		eng.Run(lineSumLoop("cols", 1, n, 1, 0, out, x))
		check("cols under [*,block]", 1, BuildCompileTime)
		darray.Redistribute(x, rows)
		eng.Run(lineSumLoop("rows", 1, n, 0, 0, out, x))
		check("rows back under [block,*]", 0, BuildCached)
		eng.Run(lineSumLoop("rows2", 1, n, 0, 0, out, x))
		check("a second row loop", 0, BuildShared)
		if eng.Builds() != 2 || eng.SharedHits() != 1 {
			t.Errorf("node %d: %d built, %d adopted; want 2 and 1", nd.ID(), eng.Builds(), eng.SharedHits())
		}
	})
}
