package relax

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/mesh"
)

// TestSegmentsMatchBody: the relaxation with its Segment bodies (the
// copy loop's and the core's, over Env.Gather) and its Inspect body
// (the core's recording pass), and the same program with every
// iteration run and recorded through Body, give the same solution and,
// on the simulator, the same Report to the bit — phase clocks, elapsed
// time, traffic, builds — the same schedule storage and, on every
// node, the same relaxation-core plan (forall.Schedule.Digest: iteration
// lists, reference streams and their starts, in and out records), on
// a rectangular and a shuffled mesh, at P 1, 2, 4 and 8, under every
// distribution kind, on NCUBE/7 and iPSC/2, with and without Enumerate
// and the convergence reduction.  Under block every interior iteration
// of both loops and every boundary iteration of the core runs by
// segments, and every iteration of the core is recorded a run at a time
// (under Enumerate the boundary and the recording keep Body); the
// other kinds have no locality window, and their runs go to Body.
func TestSegmentsMatchBody(t *testing.T) {
	meshes := map[string]*mesh.Mesh{"rect": mesh.Rect(12, 10), "shuffled": mesh.Unstructured(16, 16, true, 3)}
	params := map[string]machine.Params{"ncube": machine.NCUBE7(), "ipsc": machine.IPSC2()}
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
				for pname, params := range params {
					for _, enum := range []bool{false, true} {
						opt := Options{Mesh: m, Sweeps: 3, P: p, Params: params, Dist: dc.spec, Owners: dc.owners,
							Enumerate: enum, CheckConvergence: !enum, Gather: true}
						tag := fmt.Sprintf("%s %s %s p=%d enumerate=%v", mname, dc.name, pname, p, enum)
						wantPlans, gotPlans := make([]uint64, p), make([]uint64, p)
						want, got := run(opt, false, wantPlans), run(opt, true, gotPlans)
						compareRuns(t, tag, got, want, true)
						if !slices.Equal(gotPlans, wantPlans) {
							t.Errorf("%s: plan digests %x by segments, want %x", tag, gotPlans, wantPlans)
						}
						w, g := want.Report, got.Report
						if w.SegmentIters+w.BoundarySegmentIters+w.InspectSegmentIters != 0 {
							t.Errorf("%s: without segments %d interior, %d boundary and %d recorded iterations ran by segments", tag,
								w.SegmentIters, w.BoundarySegmentIters, w.InspectSegmentIters)
						}
						windowed := dc.name == "block" || p == 1
						wantBoundary, wantInspect := 0, 0
						if windowed && !enum {
							wantBoundary, wantInspect = g.BoundaryIters, m.N
						}
						if windowed && g.SegmentIters != g.InteriorIters || !windowed && g.SegmentIters != 0 ||
							g.BoundarySegmentIters != wantBoundary || g.InspectSegmentIters != wantInspect {
							t.Errorf("%s: %d of %d interior, %d of %d boundary and %d recorded iterations by segments (want %d)", tag,
								g.SegmentIters, g.InteriorIters, g.BoundarySegmentIters, g.BoundaryIters, g.InspectSegmentIters, wantInspect)
						}
					}
				}
			}
		}
	}
	// The wall backend: the same solution, traffic and plans.
	for _, p := range []int{1, 4} {
		opt := Options{Mesh: meshes["shuffled"], Sweeps: 3, P: p, Params: machine.NCUBE7(), Backend: "wall", Gather: true}
		wantPlans, gotPlans := make([]uint64, p), make([]uint64, p)
		tag := fmt.Sprintf("wall p=%d", p)
		compareRuns(t, tag, run(opt, true, gotPlans), run(opt, false, wantPlans), false)
		if !slices.Equal(gotPlans, wantPlans) {
			t.Errorf("%s: plan digests %x by segments, want %x", tag, gotPlans, wantPlans)
		}
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
	g.SegmentIters, g.BoundarySegmentIters, g.InspectSegmentIters = w.SegmentIters, w.BoundarySegmentIters, w.InspectSegmentIters
	if !exact {
		g.Total, g.Inspector, g.Executor, g.Redist, g.Elapsed = w.Total, w.Inspector, w.Executor, w.Redist, w.Elapsed
	}
	if g != w {
		t.Errorf("%s: report\n%+v by segments, want\n%+v", tag, g, w)
	}
}
