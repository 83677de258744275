// Benchmarks of the host cost of this reproduction.  BenchmarkTables
// regenerates every kalibench experiment at full size, one
// sub-benchmark per table in bench.Order, so each experiment's sizes
// are stated once, in internal/bench; its ns/op is the host cost of a
// table, every sweep simulated.  The simulated numbers themselves are
// what `go run ./cmd/kalibench` prints and the CI gate holds.  The
// benchmarks after it time host data structures no table covers.
package kali_test

import (
	"fmt"
	"testing"

	"kali/internal/bench"
	"kali/internal/comm"
	"kali/internal/crystal"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/mesh"
	"kali/internal/relax"
)

// BenchmarkTables regenerates each paper table and ablation at full
// size (Figures 7–10, the §4 worst case, the ABL* and TXT* tables).
func BenchmarkTables(b *testing.B) {
	for _, id := range bench.Order {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench.Registry[id](bench.Options{})
			}
		})
	}
}

// BenchmarkRangeVsMap is ABL4: the paper's Figure 5 design choice —
// sorted merged range records versus a hash map — measured in host
// time over a boundary-exchange-like set.  (The host finds a record
// through InSet.Find's bucket directory; the O(log r) binary search is
// what the simulator charges.)
func BenchmarkRangeVsMap(b *testing.B) {
	// A typical inspector outcome: 512 nonlocal elements from 2
	// senders, contiguous runs of 128.
	bd := comm.NewBuilder(0)
	hash := map[[2]int]int{}
	slot := 0
	for _, home := range []int{1, 2} {
		base := home * 10000
		for k := 0; k < 256; k++ {
			g := base + k
			bd.Add(g, home)
			hash[[2]int{home, g}] = slot
			slot++
		}
	}
	in := bd.Finalize()
	b.Run("sorted-ranges", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			home := 1 + i%2
			g := home*10000 + (i*7)%256
			if _, ok := in.Find(home, g); !ok {
				b.Fatal("miss")
			}
		}
		b.ReportMetric(float64(in.NumRanges()), "ranges")
	})
	b.Run("hash-map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			home := 1 + i%2
			g := home*10000 + (i*7)%256
			if _, ok := hash[[2]int{home, g}]; !ok {
				b.Fatal("miss")
			}
		}
	})
}

// BenchmarkCrystalRouter measures the all-to-all exchange that builds
// out sets from in sets, at the paper's machine sizes.
func BenchmarkCrystalRouter(b *testing.B) {
	for _, p := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := sim.MustNew(p, machine.Ideal())
				m.Run(func(n *machine.Node) {
					var parcels []crystal.Parcel
					for q := 0; q < 4; q++ {
						parcels = append(parcels, crystal.Parcel{
							Dest: (n.ID() + q + 1) % p, Data: q, Bytes: 40,
						})
					}
					crystal.Route(n, parcels)
				})
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures host-side simulation speed:
// mesh-point updates per wall-clock second (useful when sizing runs).
func BenchmarkSimulatorThroughput(b *testing.B) {
	m := mesh.Rect(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relax.Run(relax.Options{Mesh: m, Sweeps: 10, P: 8, Params: machine.NCUBE7()})
	}
	b.ReportMetric(float64(m.N*10), "point-sweeps/op")
}
