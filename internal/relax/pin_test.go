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
