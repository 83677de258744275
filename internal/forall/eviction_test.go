package forall

import (
	"testing"

	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/topology"
)

// TestSharedStoreBounded: the content-addressed store must never hold
// more than its capacity, must count evictions, and evicting a
// schedule must never corrupt results — an evicted shape that comes
// back simply rebuilds.
func TestSharedStoreBounded(t *testing.T) {
	const p = 2
	shapes := sharedScheduleCap + 10 // force evictions
	n := 16
	g := topology.MustGrid(p)
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	mach := sim.MustNew(p, machine.Ideal())
	mach.Run(func(nd *machine.Node) {
		out, src := darray.New("out", d, nd), darray.New("src", d, nd)
		for i := 1; i <= n; i++ {
			if src.IsLocal1(i) {
				src.Set1(i, float64(i))
			}
		}
		eng := NewEngine(nd)
		// Each distinct (Lo, Hi) is a distinct share key.
		for hi := 2; hi < 2+shapes; hi++ {
			bound := hi%(n-2) + 2 // in [2, n-1]: reads src[bound+1] <= src[n]
			l := shiftLoop("l", n, out, src)
			l.Hi = bound
			eng.Run(l)
		}
		if got := eng.Store.Stats().Entries; got > sharedScheduleCap {
			t.Errorf("shared store holds %d schedules, cap is %d", got, sharedScheduleCap)
		}
		// Only n-2 distinct bounds exist, so evictions occur only if
		// that exceeds capacity; re-running all shapes in cycle does
		// force misses when the set is larger than the cap.
		for round := 0; round < 3; round++ {
			for hi := 2; hi <= n-1; hi++ {
				l := shiftLoop("l", n, out, src)
				l.Hi = hi
				eng.Run(l)
			}
		}
		// Values stay correct throughout.
		for i := 1; i < n; i++ {
			if out.IsLocal1(i) && i+1 <= n && out.Get1(i) != float64(i+1) {
				t.Errorf("out[%d] = %g, want %g", i, out.Get1(i), float64(i+1))
			}
		}
	})
}

// TestSharedStoreEvictionCounted: overflowing a store whose distinct
// shape count exceeds the capacity must report evictions.
func TestSharedStoreEvictionCounted(t *testing.T) {
	const p = 1
	n := sharedScheduleCap + 20 // enough distinct bounds
	g := topology.MustGrid(p)
	d := dist.Must([]int{n + 2}, []dist.DimSpec{dist.BlockDim()}, g)
	mach := sim.MustNew(p, machine.Ideal())
	mach.Run(func(nd *machine.Node) {
		out, src := darray.New("out", d, nd), darray.New("src", d, nd)
		eng := NewEngine(nd)
		for hi := 2; hi <= n; hi++ {
			l := shiftLoop("l", n+2, out, src)
			l.Hi = hi
			eng.Run(l)
		}
		if eng.SharedEvictions() == 0 {
			t.Errorf("expected evictions after %d distinct shapes with cap %d",
				n-1, sharedScheduleCap)
		}
		if got := eng.Store.Stats().Entries; got != sharedScheduleCap {
			t.Errorf("store holds %d, want exactly cap %d", got, sharedScheduleCap)
		}
	})
}

// TestFusedPlanStoreBounded: cycling through more distinct fusion
// windows than the plan store holds must evict (counted, bounded) and
// never corrupt results — an evicted window that comes back rebuilds
// its plan from its schedules.  Distinct loop bounds give distinct
// schedules, so each window is a distinct plan key.  The window's two
// identically-shaped loops share one plan but, under different names,
// not their receive buffers (TestFusedWindowRepeatsOneLoop covers the
// window whose loops share buffers).
func TestFusedPlanStoreBounded(t *testing.T) {
	const p = 2
	windows := fusedPlanCap + 8 // force plan evictions
	n := windows + 4
	g := topology.MustGrid(p)
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	mach := sim.MustNew(p, machine.Ideal())
	mach.Run(func(nd *machine.Node) {
		out1, out2 := darray.New("out1", d, nd), darray.New("out2", d, nd)
		src := darray.New("src", d, nd)
		for i := 1; i <= n; i++ {
			if src.IsLocal1(i) {
				src.Set1(i, float64(i))
			}
		}
		eng := NewEngine(nd)
		runWindowHi := func(hi int) {
			l1 := shiftLoop("w1", n, out1, src)
			l1.Hi = hi
			l2 := shiftLoop("w2", n, out2, src)
			l2.Hi = hi
			eng.RunSequence([]SeqLoop{
				{L: l1, Writes: []*darray.Array{out1}},
				{L: l2, Writes: []*darray.Array{out2}},
			})
		}
		for round := 0; round < 3; round++ {
			for hi := 2; hi < 2+windows; hi++ {
				runWindowHi(hi)
			}
		}
		if got := eng.FusedPlans(); got > fusedPlanCap {
			t.Errorf("fused plan store holds %d plans, cap is %d", got, fusedPlanCap)
		}
		if eng.FusedPlanEvictions() == 0 {
			t.Errorf("expected plan evictions after %d distinct windows with cap %d",
				windows, fusedPlanCap)
		}
		if eng.FusedWindows() == 0 {
			t.Error("no window actually fused")
		}
		// Values stay correct throughout the eviction churn (the widest
		// window writes out[1..windows+1]).
		for i := 1; i <= windows+1; i++ {
			if out1.IsLocal1(i) && out1.Get1(i) != float64(i+1) {
				t.Errorf("out1[%d] = %g, want %g", i, out1.Get1(i), float64(i+1))
			}
			if out2.IsLocal1(i) && out2.Get1(i) != float64(i+1) {
				t.Errorf("out2[%d] = %g, want %g", i, out2.Get1(i), float64(i+1))
			}
		}
	})
}

// TestRedistPlanStoreBounded: cycling through more distribution pairs
// than the plan store holds must evict (counted in PlanEvictions) and
// keep redistribution correct.
func TestRedistPlanStoreBounded(t *testing.T) {
	const p, n = 1, 64
	g := topology.MustGrid(p)
	mach := sim.MustNew(p, machine.Ideal())
	mach.Run(func(nd *machine.Node) {
		d0 := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
		a := darray.New("a", d0, nd)
		for i := 1; i <= n; i++ {
			if a.IsLocal1(i) {
				a.Set1(i, float64(i))
			}
		}
		// Distinct block-cyclic sizes make distinct fingerprints; each
		// hop is a distinct (old, new) pair = a distinct plan.
		for b := 1; b <= 40; b++ {
			nd2 := dist.Must([]int{n}, []dist.DimSpec{dist.BlockCyclicDim(b)}, g)
			darray.Redistribute(a, nd2)
		}
		for i := 1; i <= n; i++ {
			if a.IsLocal1(i) && a.Get1(i) != float64(i) {
				t.Fatalf("a[%d] = %g after remapping chain, want %g", i, a.Get1(i), float64(i))
			}
		}
	})
	if darray.PlanEvictions(mach) == 0 {
		t.Error("expected plan evictions after 40 distinct remappings with cap 16/node")
	}
}
