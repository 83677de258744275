package relax

import (
	"math"
	"testing"

	"kali/internal/machine"
	"kali/internal/mesh"
)

// TestPaperNumbersPinned fixes the simulated numbers of one irregular
// run — inspector, executor and total time (Figures 7–10), traffic and
// schedule storage (§5).  They are functions of the mesh, the
// distribution and the cost model alone: how the host searches an in
// set, sorts the inspector's list or lays out the simulator's clocks
// must not reach them, and a float that differs in its last bit means
// a charge moved.
func TestPaperNumbersPinned(t *testing.T) {
	m := mesh.Unstructured(64, 64, true, 14)
	for _, tc := range []struct {
		name                       string
		enumerate                  bool
		inspector, executor, total uint64 // math.Float64bits
		msgs, bytes, schedBytes    int
	}{
		{name: "search",
			inspector: 0x3ff015e7c8d1956d, executor: 0x4031db3bd314deeb, total: 0x4032dc9a4fa1f842,
			msgs: 584, bytes: 1425312, schedBytes: 55304},
		{name: "enumerate", enumerate: true,
			inspector: 0x3ff2e8709741d089, executor: 0x400735ab12677373, total: 0x401054f1af042ddc,
			msgs: 584, bytes: 1425312, schedBytes: 90584},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := Run(Options{Mesh: m, Sweeps: 10, P: 8, Params: machine.NCUBE7(), Enumerate: tc.enumerate})
			r := res.Report
			for _, f := range []struct {
				what string
				got  float64
				want uint64
			}{
				{"Report.Inspector", r.Inspector, tc.inspector},
				{"Report.Executor", r.Executor, tc.executor},
				{"Report.Total", r.Total, tc.total},
			} {
				if math.Float64bits(f.got) != f.want {
					t.Errorf("%s = %v (%#x), pinned %v (%#x)", f.what, f.got, math.Float64bits(f.got),
						math.Float64frombits(f.want), f.want)
				}
			}
			if r.MsgsSent != tc.msgs || r.BytesSent != tc.bytes || res.ScheduleBytes != tc.schedBytes {
				t.Errorf("msgs %d bytes %d schedule bytes %d, pinned %d %d %d",
					r.MsgsSent, r.BytesSent, res.ScheduleBytes, tc.msgs, tc.bytes, tc.schedBytes)
			}
		})
	}
}

// TestSweepTimeNotStationary pins the executor time of the first 1…17
// sweeps of Figure 7's P=128 run (128² mesh, NCUBE/7), one run per
// sweep count.  The cost of one sweep is the difference of neighbours
// (in the comments, ms): after the first it cycles with a period of
// about 8, and sweep 16 breaks the cycle.  No sweep stands for the
// others, which is why no code may simulate a few sweeps and multiply
// one of them by the sweeps left: every published cell simulates
// every sweep.
func TestSweepTimeNotStationary(t *testing.T) {
	m := mesh.Rect(128, 128)
	pinned := []uint64{ // math.Float64bits of Report.Executor after s sweeps
		0x3fbabb98c7e29570, //  1: 104.425
		0x3fcab1704ff44748, //  2: 104.115
		0x3fd3ffac1d29ead4, //  3: 103.940
		0x3fdaa459103ca154, //  4: 103.801
		0x3fe0a5efe931935e, //  5: 103.975
		0x3fe3f9fa97e1356e, //  6: 104.009
		0x3fe74d7492790456, //  7: 103.940
		0x3fea9ef0f16f21aa, //  8: 103.697
		0x3fedf2fdb8fdaeca, //  9: 104.010
		0x3ff0a3f141203887, // 10: 104.113
		0x3ff24dae3e6c1ffb, // 11: 103.940
		0x3ff3f6d97b30c343, // 12: 103.801
		0x3ff5a0bb2bba5a45, // 13: 103.975
		0x3ff74ac0831226c9, // 14: 104.009
		0x3ff8f47d805e0e3d, // 15: 103.940
		0x3ffa9ccea28f8848, // 16: 103.593
		0x3ffc4764adff1ef3, // 17: 104.147
	}
	for i, want := range pinned {
		got := Run(Options{Mesh: m, Sweeps: i + 1, P: 128, Params: machine.NCUBE7()}).Report.Executor
		if math.Float64bits(got) != want {
			t.Errorf("%d sweeps: Report.Executor = %v (%#x), pinned %v (%#x)",
				i+1, got, math.Float64bits(got), math.Float64frombits(want), want)
		}
	}
}
