package relax

import (
	"math"
	"testing"

	"kali/internal/machine"
	"kali/internal/mesh"
)

// TestMatchesSequential: the distributed relaxation must agree with
// the sequential oracle bit-for-bit (same operation order per point).
func TestMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *mesh.Mesh
		p    int
	}{
		{"rect16x16 P=1", mesh.Rect(16, 16), 1},
		{"rect16x16 P=2", mesh.Rect(16, 16), 2},
		{"rect16x16 P=4", mesh.Rect(16, 16), 4},
		{"rect16x16 P=8", mesh.Rect(16, 16), 8},
		{"rect16x16 P=3 (non-pow2)", mesh.Rect(16, 16), 3},
		{"rect20x12 P=4", mesh.Rect(20, 12), 4},
		{"unstructured P=4", mesh.Unstructured(12, 12, false, 0), 4},
		{"unstructured shuffled P=4", mesh.Unstructured(12, 12, true, 7), 4},
		{"unstructured shuffled P=8", mesh.Unstructured(10, 14, true, 99), 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const sweeps = 10
			want := mesh.SeqJacobi(tc.m, mesh.InitValues(tc.m), sweeps)
			res := Run(Options{
				Mesh: tc.m, Sweeps: sweeps, P: tc.p,
				Params: machine.Ideal(), Gather: true,
			})
			if d := mesh.MaxDelta(res.Values, want); d != 0 {
				t.Fatalf("distributed differs from sequential by %g", d)
			}
			if res.SweepsRun != sweeps {
				t.Fatalf("ran %d sweeps", res.SweepsRun)
			}
		})
	}
}

// TestInspectorRunsOnce: phases are recorded, and the inspector cost
// does not grow with the sweep count (schedule caching).
func TestInspectorRunsOnce(t *testing.T) {
	m := mesh.Rect(16, 16)
	r5 := Run(Options{Mesh: m, Sweeps: 5, P: 4, Params: machine.NCUBE7()})
	r20 := Run(Options{Mesh: m, Sweeps: 20, P: 4, Params: machine.NCUBE7()})
	if r5.Report.Inspector <= 0 || r5.Report.Executor <= 0 {
		t.Fatalf("phases not recorded: %+v", r5.Report)
	}
	if math.Abs(r5.Report.Inspector-r20.Report.Inspector) > 1e-12 {
		t.Fatalf("inspector grew with sweeps: %g vs %g",
			r5.Report.Inspector, r20.Report.Inspector)
	}
	if r20.Report.Executor <= 3*r5.Report.Executor {
		t.Fatalf("executor did not scale with sweeps: %g vs %g",
			r5.Report.Executor, r20.Report.Executor)
	}
}

// TestNoCacheMultipliesInspector: ABL1 — without caching, inspector
// time scales with sweeps.
func TestNoCacheMultipliesInspector(t *testing.T) {
	m := mesh.Rect(12, 12)
	cached := Run(Options{Mesh: m, Sweeps: 8, P: 4, Params: machine.NCUBE7()})
	nocache := Run(Options{Mesh: m, Sweeps: 8, P: 4, Params: machine.NCUBE7(), NoCache: true})
	if nocache.Report.Inspector < 7*cached.Report.Inspector {
		t.Fatalf("NoCache inspector %g should be ~8x cached %g",
			nocache.Report.Inspector, cached.Report.Inspector)
	}
	// Results must still be correct.
	want := mesh.SeqJacobi(m, mesh.InitValues(m), 8)
	res := Run(Options{Mesh: m, Sweeps: 8, P: 4, Params: machine.Ideal(), NoCache: true, Gather: true})
	if d := mesh.MaxDelta(res.Values, want); d != 0 {
		t.Fatalf("NoCache result differs by %g", d)
	}
}

// TestConvergence: with the convergence check on, the run stops early
// once the sweep delta falls under Tol.
func TestConvergence(t *testing.T) {
	m := mesh.Rect(8, 8)
	res := Run(Options{
		Mesh: m, Sweeps: 10000, P: 2, Params: machine.Ideal(),
		CheckConvergence: true, Tol: 1e-6, Gather: true,
	})
	if res.SweepsRun >= 10000 || res.SweepsRun < 10 {
		t.Fatalf("converged after %d sweeps", res.SweepsRun)
	}
	// The fixed point of Jacobi for Laplace: residual must be small.
	again := mesh.SeqJacobi(m, res.Values, 1)
	if d := mesh.MaxDelta(res.Values, again); d > 1e-5 {
		t.Fatalf("not near fixed point: %g", d)
	}
}

// TestNonlocalItersBoundaryRows: with block-distributed rows each
// interior processor's nonlocal iterations are its boundary rows.
func TestNonlocalItersBoundaryRows(t *testing.T) {
	m := mesh.Rect(16, 16) // 16 rows over 4 procs: 4 rows each
	res := Run(Options{Mesh: m, Sweeps: 2, P: 4, Params: machine.Ideal()})
	// Interior procs (1,2) have 2 boundary rows × 16 points = 32
	// nonlocal iterations, minus boundary-column points which make no
	// references at all (count = 0): those rows have 14 interior points
	// → 28 nonlocal iterations.
	if res.NonlocalIters != 28 {
		t.Fatalf("nonlocal iters = %d, want 28", res.NonlocalIters)
	}
}

// TestReportOverheadSmall: with caching over many sweeps, inspector
// overhead is a small fraction — the paper's headline claim.
func TestReportOverheadSmall(t *testing.T) {
	m := mesh.Rect(32, 32)
	res := Run(Options{Mesh: m, Sweeps: 100, P: 4, Params: machine.IPSC2()})
	if pct := res.Report.OverheadPct(); pct > 2.0 {
		t.Fatalf("iPSC/2 inspector overhead = %.2f%%, paper reports <1%%", pct)
	}
}

func TestBadOptionsPanic(t *testing.T) {
	for _, opt := range []Options{
		{},
		{Mesh: mesh.Rect(4, 4), Sweeps: 0, P: 1},
		{Mesh: mesh.Rect(4, 4), Sweeps: 1, P: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %+v", opt)
				}
			}()
			Run(opt)
		}()
	}
}
