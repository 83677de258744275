package darray

// Tests for schedule-driven dynamic redistribution (paper §2.4's
// dynamic distributions): in-place rebinding, plan caching, and the
// allocation-free ping-pong replay.

import (
	"testing"

	"kali/internal/alloctest"
	"kali/internal/comm"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
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
