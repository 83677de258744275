// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index).  Each
// benchmark runs the full simulated experiment and reports the
// simulated seconds as custom metrics (sim-total-s, sim-insp-s, ...);
// wall-clock ns/op measures the host cost of the simulation itself.
//
// Figures 7–10 are the paper's tables; "worstcase" covers the §4 text
// numbers; the ABL* benchmarks cover the ablations DESIGN.md calls
// out.  cmd/kalibench prints the same experiments as paper-vs-measured
// tables.
package kali_test

import (
	"fmt"
	"testing"

	"kali/internal/baseline"
	"kali/internal/bench"
	"kali/internal/comm"
	"kali/internal/core"
	"kali/internal/crystal"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/mesh"
	"kali/internal/relax"

	kalianalysis "kali/internal/analysis"
)

// reportRelax runs one relaxation experiment per b.N iteration and
// reports its simulated phase times.
func reportRelax(b *testing.B, opt relax.Options, simulate int) {
	b.Helper()
	var r relax.Result
	for i := 0; i < b.N; i++ {
		r = relax.RunExtrapolated(opt, simulate)
	}
	b.ReportMetric(r.Report.Total, "sim-total-s")
	b.ReportMetric(r.Report.Executor, "sim-exec-s")
	b.ReportMetric(r.Report.Inspector, "sim-insp-s")
	b.ReportMetric(r.Report.OverheadPct(), "insp-ovh-%")
}

// BenchmarkFig7 regenerates Figure 7: NCUBE/7, 128×128 mesh,
// 100 sweeps, varying processor count.
func BenchmarkFig7(b *testing.B) {
	m := mesh.Rect(128, 128)
	for _, p := range []int{2, 4, 8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			reportRelax(b, relax.Options{
				Mesh: m, Sweeps: 100, P: p, Params: machine.NCUBE7(),
			}, 4)
		})
	}
}

// BenchmarkFig8 regenerates Figure 8: iPSC/2, 128×128 mesh,
// 100 sweeps, varying processor count.
func BenchmarkFig8(b *testing.B) {
	m := mesh.Rect(128, 128)
	for _, p := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			reportRelax(b, relax.Options{
				Mesh: m, Sweeps: 100, P: p, Params: machine.IPSC2(),
			}, 4)
		})
	}
}

// BenchmarkFig9 regenerates Figure 9: NCUBE/7, 128 processors,
// varying mesh size (speedup reported vs 1-processor executor time).
func BenchmarkFig9(b *testing.B) {
	for _, side := range []int{64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("mesh=%dx%d", side, side), func(b *testing.B) {
			m := mesh.Rect(side, side)
			var r relax.Result
			var t1 float64
			for i := 0; i < b.N; i++ {
				r = relax.RunExtrapolated(relax.Options{
					Mesh: m, Sweeps: 100, P: 128, Params: machine.NCUBE7(),
				}, 4)
				t1 = relax.SeqExecutorTime(m, 100, machine.NCUBE7())
			}
			b.ReportMetric(r.Report.Total, "sim-total-s")
			b.ReportMetric(r.Report.Inspector, "sim-insp-s")
			b.ReportMetric(r.Report.OverheadPct(), "insp-ovh-%")
			b.ReportMetric(t1/r.Report.Total, "speedup")
		})
	}
}

// BenchmarkFig10 regenerates Figure 10: iPSC/2, 32 processors,
// varying mesh size.
func BenchmarkFig10(b *testing.B) {
	for _, side := range []int{64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("mesh=%dx%d", side, side), func(b *testing.B) {
			m := mesh.Rect(side, side)
			var r relax.Result
			var t1 float64
			for i := 0; i < b.N; i++ {
				r = relax.RunExtrapolated(relax.Options{
					Mesh: m, Sweeps: 100, P: 32, Params: machine.IPSC2(),
				}, 4)
				t1 = relax.SeqExecutorTime(m, 100, machine.IPSC2())
			}
			b.ReportMetric(r.Report.Total, "sim-total-s")
			b.ReportMetric(r.Report.Inspector, "sim-insp-s")
			b.ReportMetric(r.Report.OverheadPct(), "insp-ovh-%")
			b.ReportMetric(t1/r.Report.Total, "speedup")
		})
	}
}

// BenchmarkWorstCase regenerates the §4 text numbers: single-sweep
// inspector overhead (paper: NCUBE 45%..93%, iPSC 35%..41%).
func BenchmarkWorstCase(b *testing.B) {
	m := mesh.Rect(128, 128)
	for _, cfg := range []struct {
		params machine.Params
		p      int
	}{
		{machine.NCUBE7(), 2}, {machine.NCUBE7(), 128},
		{machine.IPSC2(), 2}, {machine.IPSC2(), 32},
	} {
		b.Run(fmt.Sprintf("%s/P=%d", cfg.params.Name, cfg.p), func(b *testing.B) {
			var r relax.Result
			for i := 0; i < b.N; i++ {
				r = relax.Run(relax.Options{Mesh: m, Sweeps: 1, P: cfg.p, Params: cfg.params})
			}
			b.ReportMetric(r.Report.OverheadPct(), "insp-ovh-%")
		})
	}
}

// BenchmarkUnstructured covers TXT2: the ~6-neighbor unstructured mesh
// against the rectangular mesh at equal node count, in natural order
// (the paper's "somewhat higher" case) and with shuffled numbering
// (locality destroyed).
func BenchmarkUnstructured(b *testing.B) {
	for _, mk := range []struct {
		name string
		m    *mesh.Mesh
	}{
		{"rect", mesh.Rect(128, 128)},
		{"natural", mesh.Unstructured(128, 128, false, 0)},
		{"shuffled", mesh.Unstructured(128, 128, true, 1990)},
	} {
		b.Run(mk.name, func(b *testing.B) {
			reportRelax(b, relax.Options{
				Mesh: mk.m, Sweeps: 100, P: 64, Params: machine.NCUBE7(),
			}, 4)
		})
	}
}

// BenchmarkEnumeration is ABL7: the searched executor vs Saltz-style
// full enumeration, with the schedule-storage trade-off as a metric.
func BenchmarkEnumeration(b *testing.B) {
	m := mesh.Rect(128, 128)
	for _, enum := range []bool{false, true} {
		name := "search"
		if enum {
			name = "enumerate"
		}
		b.Run(name, func(b *testing.B) {
			var r relax.Result
			for i := 0; i < b.N; i++ {
				r = relax.RunExtrapolated(relax.Options{
					Mesh: m, Sweeps: 100, P: 64, Params: machine.NCUBE7(), Enumerate: enum,
				}, 4)
			}
			b.ReportMetric(r.Report.Executor, "sim-exec-s")
			b.ReportMetric(float64(r.ScheduleBytes), "sched-B/proc")
		})
	}
}

// BenchmarkDistChoice is ABL5: the same program under different dist
// clauses.
func BenchmarkDistChoice(b *testing.B) {
	m := mesh.Rect(128, 128)
	for _, c := range []struct {
		name string
		dim  dist.DimSpec
	}{
		{"block", dist.BlockDim()},
		{"cyclic", dist.CyclicDim()},
		{"blockcyclic8", dist.BlockCyclicDim(8)},
	} {
		b.Run(c.name, func(b *testing.B) {
			reportRelax(b, relax.Options{
				Mesh: m, Sweeps: 100, P: 16, Params: machine.NCUBE7(), Dist: c.dim,
			}, 4)
		})
	}
}

// BenchmarkGranularity is TXT3: total time on a small mesh has an
// interior minimum in P — why the real estate agent may decline
// processors.
func BenchmarkGranularity(b *testing.B) {
	m := mesh.Rect(32, 32)
	for _, p := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			var r relax.Result
			for i := 0; i < b.N; i++ {
				r = relax.Run(relax.Options{Mesh: m, Sweeps: 10, P: p, Params: machine.NCUBE7()})
			}
			b.ReportMetric(r.Report.Total, "sim-total-s")
		})
	}
}

// BenchmarkScheduleCache is ABL1: inspector amortization.  Without the
// cache the inspector runs every sweep.
func BenchmarkScheduleCache(b *testing.B) {
	m := mesh.Rect(128, 128)
	for _, nocache := range []bool{false, true} {
		name := "cached"
		if nocache {
			name = "nocache"
		}
		b.Run(name, func(b *testing.B) {
			var r relax.Result
			for i := 0; i < b.N; i++ {
				r = relax.Run(relax.Options{
					Mesh: m, Sweeps: 10, P: 16, Params: machine.NCUBE7(), NoCache: nocache,
				})
			}
			b.ReportMetric(r.Report.Inspector, "sim-insp-s")
			b.ReportMetric(r.Report.OverheadPct(), "insp-ovh-%")
		})
	}
}

// BenchmarkKaliVsHand is ABL2: the generated code against hand-written
// message passing.
func BenchmarkKaliVsHand(b *testing.B) {
	const side, sweeps, p = 128, 10, 16
	m := mesh.Rect(side, side)
	b.Run("kali", func(b *testing.B) {
		var r relax.Result
		for i := 0; i < b.N; i++ {
			r = relax.Run(relax.Options{Mesh: m, Sweeps: sweeps, P: p, Params: machine.NCUBE7()})
		}
		b.ReportMetric(r.Report.Total, "sim-total-s")
	})
	b.Run("hand", func(b *testing.B) {
		var r baseline.Result
		for i := 0; i < b.N; i++ {
			r = baseline.Run(baseline.Options{NX: side, NY: side, Sweeps: sweeps, P: p, Params: machine.NCUBE7()})
		}
		b.ReportMetric(r.Report.Total, "sim-total-s")
	})
}

// BenchmarkCompileVsRuntime is ABL3: schedule-acquisition cost of the
// affine Figure 1 shift under both analyses (cache disabled so each
// execution pays it).
func BenchmarkCompileVsRuntime(b *testing.B) {
	const n, p = 1 << 14, 16
	for _, force := range []bool{false, true} {
		name := "compiletime"
		if force {
			name = "inspector"
		}
		b.Run(name, func(b *testing.B) {
			var rep core.Report
			for i := 0; i < b.N; i++ {
				rep = core.Run(core.Config{P: p, Params: machine.NCUBE7()}, func(ctx *core.Context) {
					a := ctx.BlockArray("A", n)
					ctx.Eng.ForceInspector = force
					ctx.Eng.NoCache = true
					ctx.Forall(&forall.Loop{
						Name: "shift", Lo: 1, Hi: n - 1,
						On: a, OnF: kalianalysis.Identity,
						Reads: []forall.ReadSpec{{Array: a, Affine: &kalianalysis.Affine{A: 1, C: 1}}},
						Body:  func(i int, e *forall.Env) { e.Write(a, i, e.Read(a, i+1)) },
					})
				})
			}
			b.ReportMetric(rep.Inspector, "sim-sched-s")
		})
	}
}

// BenchmarkCompileVsRuntime2D is the paper's ABL3 contrast in two
// dimensions: schedule-acquisition cost of the five-point stencil on a
// 2-D processor grid under the rank-2 closed forms vs the run-time
// inspector (cache disabled so every execution pays the build).  The
// stencil loop itself is shared with kalibench's ctvsrt2d table.
func BenchmarkCompileVsRuntime2D(b *testing.B) {
	const n, pr, pc = 128, 4, 4
	for _, force := range []bool{false, true} {
		name := "compiletime"
		if force {
			name = "inspector"
		}
		b.Run(name, func(b *testing.B) {
			var sched float64
			for i := 0; i < b.N; i++ {
				sched, _ = bench.Run2DStencil(n, pr, pc, 5, machine.NCUBE7(), force)
			}
			b.ReportMetric(sched, "sim-sched-s")
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
