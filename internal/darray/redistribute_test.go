package darray

// Tests for schedule-driven dynamic redistribution (paper §2.4's
// dynamic distributions): in-place rebinding, plan caching, and the
// allocation-free ping-pong replay.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kali/internal/alloctest"
	"kali/internal/comm"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/machine/wallclock"
	"kali/internal/topology"
)

// fill2 sets every locally owned element of a rank-2 array to f(i,j).
func fill2(a *Array, n int, f func(i, j int) float64) {
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if a.IsLocal(i, j) {
				a.Set(f(i, j), i, j)
			}
		}
	}
}

// check2 verifies every element sits on the owner the dist reports
// with the value f(i,j).
func check2(t *testing.T, nd *machine.Node, a *Array, n int, f func(i, j int) float64) {
	t.Helper()
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if a.Dist().Owner(i, j) == nd.ID() {
				if !a.IsLocal(i, j) || a.Get(i, j) != f(i, j) {
					t.Errorf("node %d: a[%d,%d] misplaced or wrong", nd.ID(), i, j)
				}
			} else if a.IsLocal(i, j) {
				t.Errorf("node %d: a[%d,%d] locally stored but owned by %d",
					nd.ID(), i, j, a.Dist().Owner(i, j))
			}
		}
	}
}

// TestRedistributeRank2RowToColumn: the transpose remapping at the
// heart of ADI, including a rank-2 [block, block] target on a 2-D
// grid reached from a 1-D row layout on a different grid shape.
func TestRedistributeRank2RowToColumn(t *testing.T) {
	const n, p = 8, 4
	g1 := topology.MustGrid(p)
	g2 := topology.MustGrid(2, 2)
	rows := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, g1)
	cols := dist.Must([]int{n, n}, []dist.DimSpec{dist.CollapsedDim(), dist.BlockDim()}, g1)
	tiles := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g2)
	mach := sim.MustNew(p, machine.Ideal())
	mach.Run(func(nd *machine.Node) {
		f := func(i, j int) float64 { return float64(i*1000 + j) }
		a := New("a", rows, nd)
		fill2(a, n, f)
		Redistribute(a, cols)
		check2(t, nd, a, n, f)
		Redistribute(a, tiles)
		check2(t, nd, a, n, f)
		Redistribute(a, rows)
		check2(t, nd, a, n, f)
	})
}

// TestRedistributePlanCacheKeying: structurally equal remappings on
// distinct Dist objects share one plan per node; a different pair
// builds its own.
func TestRedistributePlanCacheKeying(t *testing.T) {
	const n, p = 24, 4
	g := topology.MustGrid(p)
	mkBlock := func() *dist.Dist { return dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g) }
	mkCyc := func() *dist.Dist { return dist.Must([]int{n}, []dist.DimSpec{dist.CyclicDim()}, g) }
	builds0, hits0 := RedistBuilds(), RedistHits()
	mach := sim.MustNew(p, machine.Ideal())
	mach.Run(func(nd *machine.Node) {
		a := New("a", mkBlock(), nd)
		b := New("b", mkBlock(), nd)
		for i := 1; i <= n; i++ {
			if a.IsLocal1(i) {
				a.Set1(i, float64(i))
				b.Set1(i, float64(-i))
			}
		}
		// Same structural pair, distinct Dist objects: one build, one hit.
		Redistribute(a, mkCyc())
		Redistribute(b, mkCyc())
		// Reverse direction is a different pair: a second build each... but
		// shared between the two arrays again.
		Redistribute(a, mkBlock())
		Redistribute(b, mkBlock())
		nd.Barrier()
		for i := 1; i <= n; i++ {
			if a.IsLocal1(i) && a.Get1(i) != float64(i) {
				t.Errorf("a[%d] = %g after round trip", i, a.Get1(i))
			}
			if b.IsLocal1(i) && b.Get1(i) != float64(-i) {
				t.Errorf("b[%d] = %g after round trip", i, b.Get1(i))
			}
		}
	})
	builds, hits := RedistBuilds()-builds0, RedistHits()-hits0
	if builds != 2*p || hits != 2*p {
		t.Fatalf("builds=%d hits=%d over %d nodes, want %d/%d", builds, hits, p, 2*p, 2*p)
	}
}

// TestRedistributeReplayAllocationFree: once the two transpose plans
// are cached and the payload/partition pools are warm, a full
// ping-pong cycle — pack, all-to-all, rebind, unpack — performs zero
// heap allocations machine-wide, exactly like cached forall replay.
func TestRedistributeReplayAllocationFree(t *testing.T) {
	const n, p, warmup, reps = 16, 4, 4, 12
	g := topology.MustGrid(p)
	rows := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, g)
	cols := dist.Must([]int{n, n}, []dist.DimSpec{dist.CollapsedDim(), dist.BlockDim()}, g)
	mach := sim.MustNew(p, machine.Ideal())
	// The message pool plus every node's partition list; each node's
	// array keeps one partition out between remappings.
	pin := alloctest.Pin{Held: p, Pool: func() comm.PoolStats {
		store := storeOf(mach.Node(0))
		st := store.pool.Stats()
		for i := range store.parts {
			st = st.Add(store.parts[i].Stats())
		}
		return st
	}}
	mach.Run(func(nd *machine.Node) {
		f := func(i, j int) float64 { return float64(i*100 + j) }
		a := New("a", rows, nd)
		fill2(a, n, f)
		// A barrier per remapping, not only per cycle: without it a fast
		// node can start the next phase while a slow receiver still
		// holds the previous payloads.
		pin.Run(nd, warmup, reps, func() {
			Redistribute(a, cols)
			nd.Barrier()
			Redistribute(a, rows)
		})
		check2(t, nd, a, n, f)
	})
	pin.Check(t, "cached redistribution replay")
}

// TestRedistributeRejectsShapeChange: remapping must preserve the
// global shape; a different extent is a programming error.
func TestRedistributeRejectsShapeChange(t *testing.T) {
	const n, p = 8, 2
	g := topology.MustGrid(p)
	d1 := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	d2 := dist.Must([]int{n + 1}, []dist.DimSpec{dist.BlockDim()}, g)
	mach := sim.MustNew(p, machine.Ideal())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape change")
		}
	}()
	mach.Run(func(nd *machine.Node) {
		a := New("a", d1, nd)
		Redistribute(a, d2)
	})
}

// TestRedistributeWrongPayloadDiagnostic: a TagRedist message that is
// not a *comm.Payload is reported by its type, naming the array.
func TestRedistributeWrongPayloadDiagnostic(t *testing.T) {
	const n, p = 8, 2
	g := topology.MustGrid(p)
	d0 := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	d1 := dist.Must([]int{n}, []dist.DimSpec{dist.CyclicDim()}, g)
	mach := sim.MustNew(p, machine.Ideal())
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"redistribute", `"a"`, "[]float64"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not name %s", msg, want)
			}
		}
	}()
	mach.Run(func(nd *machine.Node) {
		if nd.ID() == 1 {
			nd.Send(0, machine.TagRedist, []float64{1, 2}, 16)
			return
		}
		Redistribute(New("a", d0, nd), d1)
	})
}

// drawPlanDist draws a distribution of shape over p processors, each
// distributed dimension block, cyclic or block_cyclic(1…4): on a 1-D
// grid one dimension is distributed and any other is collapsed; a
// rank-2 shape over four processors may instead take the 2×2 grid.
func drawPlanDist(r *rand.Rand, shape []int, p int) *dist.Dist {
	spec := func() dist.DimSpec {
		switch r.Intn(3) {
		case 0:
			return dist.BlockDim()
		case 1:
			return dist.CyclicDim()
		default:
			return dist.BlockCyclicDim(1 + r.Intn(4))
		}
	}
	if len(shape) == 2 && p == 4 && r.Intn(3) == 0 {
		return dist.Must(shape, []dist.DimSpec{spec(), spec()}, topology.MustGrid(2, 2))
	}
	specs := make([]dist.DimSpec, len(shape))
	for dim := range specs {
		specs[dim] = dist.CollapsedDim()
	}
	specs[r.Intn(len(shape))] = spec()
	return dist.Must(shape, specs, topology.MustGrid(p))
}

// checkRuns checks one run list of a plan: every run copies at least
// one element and lies inside its source (srcLen elements) and its
// destination (dstLen); a payload side (packedSrc, packedDst) is read
// or written densely from offset 0; no run could merge into its
// predecessor; and the runs copy want elements in all.
func checkRuns(t *testing.T, what string, runs []redistRun, srcLen, dstLen, want int, packedSrc, packedDst bool) {
	t.Helper()
	total := 0
	for i, r := range runs {
		if r.n < 1 || r.src < 0 || r.src+r.n > srcLen || r.dst < 0 || r.dst+r.n > dstLen {
			t.Errorf("%s: run %d %+v outside source %d or destination %d", what, i, r, srcLen, dstLen)
		}
		if (packedSrc && r.src != total) || (packedDst && r.dst != total) {
			t.Errorf("%s: run %d %+v does not continue the payload at %d", what, i, r, total)
		}
		if i > 0 {
			if q := runs[i-1]; q.src+q.n == r.src && q.dst+q.n == r.dst {
				t.Errorf("%s: runs %d %+v and %d %+v could merge", what, i-1, q, i, r)
			}
		}
		total += r.n
	}
	if total != want {
		t.Errorf("%s: runs copy %d elements, want %d", what, total, want)
	}
}

// checkPlan checks every run list of node me's plan for od → nd, and
// that the old partition's elements are all kept or sent and the new
// partition's all kept or received.
func checkPlan(t *testing.T, s *RedistSchedule, od, nd *dist.Dist, me int) {
	t.Helper()
	oldN, newN := od.LocalCount(me), nd.LocalCount(me)
	if s.newCount != newN {
		t.Errorf("node %d: plan's new count %d, dist says %d", me, s.newCount, newN)
	}
	checkRuns(t, fmt.Sprintf("node %d keep", me), s.keep, oldN, newN, s.keepN, false, false)
	sent, received := s.keepN, s.keepN
	for _, p := range s.sendTo {
		checkRuns(t, fmt.Sprintf("node %d send to %d", me, p.q), p.runs, oldN, p.n, p.n, false, true)
		sent += p.n
	}
	for _, p := range s.recvFrom {
		checkRuns(t, fmt.Sprintf("node %d receive from %d", me, p.q), p.runs, p.n, newN, p.n, true, false)
		received += p.n
	}
	if sent != oldN || received != newN {
		t.Errorf("node %d: kept+sent %d of %d old, kept+received %d of %d new", me, sent, oldN, received, newN)
	}
}

// TestRedistributePlanProperty: over random rank-1 and rank-2 shapes
// and distribution pairs, every element lands on its new owner with
// its value, and every node's plan resolves to runs that hold the
// invariants checkPlan states.
func TestRedistributePlanProperty(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	for c := 0; c < 300; c++ {
		shape := make([]int, 1+r.Intn(2))
		total := 1
		for dim := range shape {
			shape[dim] = 1 + r.Intn(40)
			total *= shape[dim]
		}
		p := 1 + r.Intn(4)
		od, nd := drawPlanDist(r, shape, p), drawPlanDist(r, shape, p)
		sim.MustNew(p, machine.Ideal()).Run(func(node *machine.Node) {
			a := New("a", od, node)
			a.EachLocal(func(g int) { a.SetLinear(g, float64(g)) })
			Redistribute(a, nd)
			for g := 1; g <= total; g++ {
				if nd.Owner(delinearize(shape, g)...) == node.ID() && a.GetLinear(g) != float64(g) {
					t.Errorf("case %d %v → %v: node %d holds %g at %d", c, od, nd, node.ID(), a.GetLinear(g), g)
				}
			}
			if a.LocalCount() != nd.LocalCount(node.ID()) {
				t.Errorf("case %d %v → %v: node %d stores %d elements, want %d",
					c, od, nd, node.ID(), a.LocalCount(), nd.LocalCount(node.ID()))
			}
			if od.Fingerprint() != nd.Fingerprint() {
				checkPlan(t, redistSchedule(storeOf(node), "a", od, nd, node), od, nd, node.ID())
			}
		})
		if t.Failed() {
			t.Fatalf("case %d: shape %v, P=%d, %v → %v", c, shape, p, od, nd)
		}
	}
}

// TestRedistributeTransposeRuns pins the 128² [block,*] ↔ [*,block]
// transpose at P=2: a row piece per row where the two layouts' rows
// differ in length, merged into one run where they agree.
func TestRedistributeTransposeRuns(t *testing.T) {
	const n, p = 128, 2
	g := topology.MustGrid(p)
	rows := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, g)
	cols := dist.Must([]int{n, n}, []dist.DimSpec{dist.CollapsedDim(), dist.BlockDim()}, g)
	sim.MustNew(p, machine.Ideal()).Run(func(nd *machine.Node) {
		for _, c := range []struct {
			od, nd           *dist.Dist
			send, keep, recv int
		}{{rows, cols, 64, 64, 1}, {cols, rows, 1, 64, 64}} {
			s := redistSchedule(storeOf(nd), "a", c.od, c.nd, nd)
			if len(s.sendTo) != 1 || len(s.recvFrom) != 1 {
				t.Errorf("node %d: %d send and %d receive peers, want 1 and 1", nd.ID(), len(s.sendTo), len(s.recvFrom))
				return
			}
			got := [3]int{len(s.sendTo[0].runs), len(s.keep), len(s.recvFrom[0].runs)}
			if got != [3]int{c.send, c.keep, c.recv} {
				t.Errorf("node %d: send/keep/recv runs %v, want %v", nd.ID(), got, [3]int{c.send, c.keep, c.recv})
			}
		}
	})
}

// BenchmarkRedistributeTranspose: one [block,*] → [*,block] → [block,*]
// ping-pong of a 128² array per op on two wall-clock threads, plans
// cached and pools warm.
func BenchmarkRedistributeTranspose(b *testing.B) {
	const n, p = 128, 2
	g := topology.MustGrid(p)
	rows := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, g)
	cols := dist.Must([]int{n, n}, []dist.DimSpec{dist.CollapsedDim(), dist.BlockDim()}, g)
	mach := wallclock.MustNew(p, machine.Ideal())
	b.ReportAllocs()
	mach.Run(func(nd *machine.Node) {
		a := New("a", rows, nd)
		a.EachLocal(func(g int) { a.SetLinear(g, float64(g)) })
		Redistribute(a, cols)
		Redistribute(a, rows)
		// Plans built and pools warm on both nodes: node 0 resets the
		// timer (the benchmark goroutine waits in Run meanwhile).
		nd.Barrier()
		if nd.ID() == 0 {
			b.ResetTimer()
		}
		nd.Barrier()
		for i := 0; i < b.N; i++ {
			Redistribute(a, cols)
			Redistribute(a, rows)
		}
	})
}
