package relax

import (
	"testing"

	"kali/internal/machine"
	"kali/internal/mesh"
)

// BenchmarkRun is one mesh-inspector op: a fresh machine and engine on
// a shuffled 128² unstructured mesh, P = 8 on NCUBE/7, two sweeps, so
// every run pays the set-up, the inspector and two executor sweeps.
func BenchmarkRun(b *testing.B) {
	m := mesh.Unstructured(128, 128, true, 5)
	b.ReportAllocs()
	for b.Loop() {
		Run(Options{Mesh: m, Sweeps: 2, P: 8, Params: machine.NCUBE7(), Gather: true})
	}
}
