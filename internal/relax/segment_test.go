package relax

import (
	"fmt"
	"math"
	"testing"

	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/mesh"
)

// TestSegmentsMatchBody: the relaxation with its Segment bodies (the
// copy loop's and the core's, over Env.Gather) and the same program
// with every iteration through Body give the same solution and, on the
// simulator, the same Report to the bit — phase clocks, elapsed time,
// traffic, builds — and the same schedule storage, on a rectangular and
// a shuffled mesh, at P 1, 2, 4 and 8, under every distribution kind,
// with and without Enumerate and the convergence reduction.  Under
// block every interior iteration of both loops and every boundary
// iteration of the core runs by segments (under Enumerate the boundary
// keeps Body); the other kinds have no locality window, and their runs
// go to Body.
func TestSegmentsMatchBody(t *testing.T) {
	meshes := map[string]*mesh.Mesh{"rect": mesh.Rect(12, 10), "shuffled": mesh.Unstructured(16, 16, true, 3)}
	for mname, m := range meshes {
		for _, p := range []int{1, 2, 4, 8} {
			owners := make([]int, m.N)
			for i := range owners {
				owners[i] = (i * i / 3) % p
			}
			for _, dc := range []struct {
				name   string
				spec   dist.DimSpec
				owners []int
			}{
				{"block", dist.BlockDim(), nil},
				{"cyclic", dist.CyclicDim(), nil},
				{"block_cyclic", dist.BlockCyclicDim(5), nil},
				{"map", dist.DimSpec{}, owners},
			} {
				for _, enum := range []bool{false, true} {
					opt := Options{Mesh: m, Sweeps: 3, P: p, Params: machine.IPSC2(), Dist: dc.spec, Owners: dc.owners,
						Enumerate: enum, CheckConvergence: !enum, Gather: true}
					tag := fmt.Sprintf("%s %s p=%d enumerate=%v", mname, dc.name, p, enum)
					want, got := run(opt, false), run(opt, true)
					compareRuns(t, tag, got, want, true)
					w, g := want.Report, got.Report
					if w.SegmentIters+w.BoundarySegmentIters != 0 {
						t.Errorf("%s: without segments %d interior and %d boundary iterations ran by segments", tag, w.SegmentIters, w.BoundarySegmentIters)
					}
					windowed := dc.name == "block" || p == 1
					wantBoundary := 0
					if windowed && !enum {
						wantBoundary = g.BoundaryIters
					}
					if windowed && g.SegmentIters != g.InteriorIters || !windowed && g.SegmentIters != 0 || g.BoundarySegmentIters != wantBoundary {
						t.Errorf("%s: %d of %d interior and %d of %d boundary iterations by segments", tag,
							g.SegmentIters, g.InteriorIters, g.BoundarySegmentIters, g.BoundaryIters)
					}
				}
			}
		}
	}
	// The wall backend: the same solution and traffic.
	for _, p := range []int{1, 4} {
		opt := Options{Mesh: meshes["shuffled"], Sweeps: 3, P: p, Params: machine.NCUBE7(), Backend: "wall", Gather: true}
		compareRuns(t, fmt.Sprintf("wall p=%d", p), run(opt, true), run(opt, false), false)
	}
}

// compareRuns fails unless got and want agree on the solution, the
// sweep and schedule counts, and the Report — all of it when exact (the
// simulator), traffic and builds otherwise — but for the segment
// counters.
func compareRuns(t *testing.T, tag string, got, want Result, exact bool) {
	t.Helper()
	for i := range want.Values {
		if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
			t.Fatalf("%s: a[%d] = %v by segments, want %v", tag, i+1, got.Values[i], want.Values[i])
		}
	}
	if got.SweepsRun != want.SweepsRun || got.NonlocalIters != want.NonlocalIters || got.ScheduleBytes != want.ScheduleBytes {
		t.Errorf("%s: sweeps/nonlocal/schedule bytes %d/%d/%d by segments, want %d/%d/%d", tag,
			got.SweepsRun, got.NonlocalIters, got.ScheduleBytes, want.SweepsRun, want.NonlocalIters, want.ScheduleBytes)
	}
	g, w := got.Report, want.Report
	g.SegmentIters, g.BoundarySegmentIters = w.SegmentIters, w.BoundarySegmentIters
	if !exact {
		g.Total, g.Inspector, g.Executor, g.Redist, g.Elapsed = w.Total, w.Inspector, w.Executor, w.Redist, w.Elapsed
	}
	if g != w {
		t.Errorf("%s: report\n%+v by segments, want\n%+v", tag, g, w)
	}
}
