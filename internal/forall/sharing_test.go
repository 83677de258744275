package forall

import (
	"testing"

	"kali/internal/alloctest"
	"kali/internal/analysis"
	"kali/internal/comm"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/topology"
)

// shiftLoop builds the canonical affine shift out[i] = src[i+1] used by
// the sharing tests.
func shiftLoop(name string, n int, out, src *darray.Array) *Loop {
	return &Loop{
		Name: name, Lo: 1, Hi: n - 1,
		On: out, OnF: analysis.Identity,
		Reads: []ReadSpec{{Array: src, Affine: &analysis.Affine{A: 1, C: 1}}},
		Body:  func(i int, e *Env) { e.Write(out, i, e.Read(src, i+1)) },
	}
}

// checkShift verifies out[i] == base(i+1) for the locally owned part.
func checkShiftValues(t *testing.T, nd *machine.Node, out *darray.Array, n int, base func(int) float64) {
	t.Helper()
	for i := 1; i < n; i++ {
		if out.IsLocal1(i) && out.Get1(i) != base(i+1) {
			t.Errorf("node %d: %s[%d] = %g, want %g", nd.ID(), out.Name(), i, out.Get1(i), base(i+1))
		}
	}
}

// TestScheduleSharingAcrossLoops: two identically-shaped affine loops
// over *different* arrays — with distributions built as distinct but
// structurally equal Dist objects — must share one plan: the second
// loop builds nothing, adopts the first loop's plan by pointer around
// receive buffers of its own, and both compute correct values.
func TestScheduleSharingAcrossLoops(t *testing.T) {
	const n, p = 32, 4
	g := topology.MustGrid(p)
	specs := []dist.DimSpec{dist.BlockDim()}
	dA := dist.Must([]int{n}, specs, g)
	dB := dist.Must([]int{n}, specs, g) // distinct object, same structure
	mach := sim.MustNew(p, machine.Ideal())
	mach.Run(func(nd *machine.Node) {
		outA, srcA := darray.New("outA", dA, nd), darray.New("srcA", dA, nd)
		outB, srcB := darray.New("outB", dB, nd), darray.New("srcB", dB, nd)
		for i := 1; i <= n; i++ {
			if srcA.IsLocal1(i) {
				srcA.Set1(i, float64(i))
				srcB.Set1(i, float64(i)*10)
			}
		}
		eng := NewEngine(nd)
		eng.Run(shiftLoop("la", n, outA, srcA))
		if k := eng.LastBuildKind(); k != BuildCompileTime {
			t.Errorf("first loop built %v, want compile-time", k)
		}
		eng.Run(shiftLoop("lb", n, outB, srcB))
		if k := eng.LastBuildKind(); k != BuildShared {
			t.Errorf("second loop built %v, want shared", k)
		}
		if eng.Builds() != 1 || eng.SharedHits() != 1 || eng.Store.Stats().Entries != 1 {
			t.Errorf("builds=%d sharedHits=%d store entries=%d, want 1/1/1",
				eng.Builds(), eng.SharedHits(), eng.Store.Stats().Entries)
		}
		sa, sb := eng.Schedule("la"), eng.Schedule("lb")
		if sa == nil || sb == nil || sa.plan != sb.plan {
			t.Fatal("loops la and lb do not hold one shared plan")
		}
		if sa.Digest() != sb.Digest() {
			t.Errorf("shared plan digests differ: %x vs %x", sa.Digest(), sb.Digest())
		}
		for k := range sa.bufs {
			if len(sa.bufs[k]) > 0 && &sa.bufs[k][0] == &sb.bufs[k][0] {
				t.Errorf("slot %d: loops la and lb share a receive buffer", k)
			}
		}
		// Replays of both sharers hit the per-name cache.
		eng.Run(shiftLoop("lb", n, outB, srcB))
		if k := eng.LastBuildKind(); k != BuildCached {
			t.Errorf("sharer replay: %v, want cached", k)
		}
		checkShiftValues(t, nd, outA, n, func(i int) float64 { return float64(i) })
		checkShiftValues(t, nd, outB, n, func(i int) float64 { return float64(i) * 10 })
	})
}

// TestScheduleSharingInvalidate: dropping one sharer's name binding
// must not disturb the other sharer, and the re-run of the dropped
// name re-adopts the shared plan rather than rebuilding.
// InvalidateAll drops the engine's private store too, forcing a true
// rebuild.
func TestScheduleSharingInvalidate(t *testing.T) {
	const n, p = 32, 4
	g := topology.MustGrid(p)
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	mach := sim.MustNew(p, machine.Ideal())
	mach.Run(func(nd *machine.Node) {
		outA, srcA := darray.New("outA", d, nd), darray.New("srcA", d, nd)
		outB, srcB := darray.New("outB", d, nd), darray.New("srcB", d, nd)
		for i := 1; i <= n; i++ {
			if srcA.IsLocal1(i) {
				srcA.Set1(i, float64(i))
				srcB.Set1(i, float64(i)*10)
			}
		}
		eng := NewEngine(nd)
		eng.Run(shiftLoop("la", n, outA, srcA))
		eng.Run(shiftLoop("lb", n, outB, srcB))

		eng.Invalidate("la")
		if eng.Schedule("la") != nil {
			t.Error(`Invalidate("la") left its name binding`)
		}
		// The other sharer still replays from its own binding.
		eng.Run(shiftLoop("lb", n, outB, srcB))
		if k := eng.LastBuildKind(); k != BuildCached {
			t.Errorf("sharer after peer Invalidate: %v, want cached", k)
		}
		// The invalidated name re-adopts the shared plan (builds
		// unchanged) — compile-time schedules cannot go stale.
		eng.Run(shiftLoop("la", n, outA, srcA))
		if k := eng.LastBuildKind(); k != BuildShared {
			t.Errorf("invalidated name rerun: %v, want shared", k)
		}
		if eng.Builds() != 1 {
			t.Errorf("builds = %d after Invalidate rerun, want 1", eng.Builds())
		}
		checkShiftValues(t, nd, outA, n, func(i int) float64 { return float64(i) })
		checkShiftValues(t, nd, outB, n, func(i int) float64 { return float64(i) * 10 })

		eng.InvalidateAll()
		if eng.Store != nil {
			t.Errorf("InvalidateAll kept the private store and its %d plans", eng.Store.Stats().Entries)
		}
		eng.Run(shiftLoop("la", n, outA, srcA))
		if k := eng.LastBuildKind(); k != BuildCompileTime {
			t.Errorf("rerun after InvalidateAll: %v, want compile-time rebuild", k)
		}
		if eng.Builds() != 2 {
			t.Errorf("builds = %d after InvalidateAll rerun, want 2", eng.Builds())
		}
		checkShiftValues(t, nd, outA, n, func(i int) float64 { return float64(i) })
	})
}

// TestScheduleSharingRespectsShape: loops that differ in read affine,
// distribution, or in how reads alias arrays must not share.
func TestScheduleSharingRespectsShape(t *testing.T) {
	const n, p = 32, 4
	g := topology.MustGrid(p)
	dBlock := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	dCyc := dist.Must([]int{n}, []dist.DimSpec{dist.CyclicDim()}, g)
	mach := sim.MustNew(p, machine.Ideal())
	mach.Run(func(nd *machine.Node) {
		out := darray.New("out", dBlock, nd)
		u := darray.New("u", dBlock, nd)
		v := darray.New("v", dBlock, nd)
		w := darray.New("w", dCyc, nd)
		for i := 1; i <= n; i++ {
			if u.IsLocal1(i) {
				u.Set1(i, float64(i))
				v.Set1(i, float64(i))
			}
			if w.IsLocal1(i) {
				w.Set1(i, float64(i))
			}
		}
		eng := NewEngine(nd)
		eng.Run(shiftLoop("base", n, out, u))

		// Different offset: same arrays, different affine.
		eng.Run(&Loop{
			Name: "off", Lo: 2, Hi: n, On: out, OnF: analysis.Identity,
			Reads: []ReadSpec{{Array: u, Affine: &analysis.Affine{A: 1, C: -1}}},
			Body:  func(i int, e *Env) { e.Write(out, i, e.Read(u, i-1)) },
		})
		if k := eng.LastBuildKind(); k != BuildCompileTime {
			t.Errorf("different affine shared a schedule (%v)", k)
		}

		// Different distribution of the read array.
		eng.Run(shiftLoop("cyc", n, out, w))
		if k := eng.LastBuildKind(); k != BuildCompileTime {
			t.Errorf("different distribution shared a schedule (%v)", k)
		}

		// Same shapes but different read → array aliasing: two reads of
		// one array vs one read each of two identically-distributed
		// arrays occupy different slot structures.
		mk := func(name string, a, b *darray.Array) *Loop {
			return &Loop{
				Name: name, Lo: 2, Hi: n - 1, On: out, OnF: analysis.Identity,
				Reads: []ReadSpec{
					{Array: a, Affine: &analysis.Affine{A: 1, C: 1}},
					{Array: b, Affine: &analysis.Affine{A: 1, C: -1}},
				},
				Body: func(i int, e *Env) { e.Write(out, i, e.Read(a, i+1)+e.Read(b, i-1)) },
			}
		}
		eng.Run(mk("two", u, v))
		builds := eng.Builds()
		eng.Run(mk("one", u, u))
		if k := eng.LastBuildKind(); k != BuildCompileTime || eng.Builds() != builds+1 {
			t.Errorf("aliasing change shared a schedule (%v, builds %d->%d)", k, builds, eng.Builds())
		}
		// And the sanity check the other way: a loop with the *same*
		// aliasing as "two" over fresh arrays does share.
		eng.Run(mk("twin", v, u))
		if k := eng.LastBuildKind(); k != BuildShared {
			t.Errorf("identically-aliased loop did not share (%v)", k)
		}
	})
}

// TestScheduleNoSharingForInspector: loops whose reference pattern is
// data-dependent (indirect subscripts) carry no structural identity —
// two of them with identical declared shapes but different index
// arrays must both run the inspector and communicate different
// elements.
func TestScheduleNoSharingForInspector(t *testing.T) {
	const n, p = 16, 4
	g := topology.MustGrid(p)
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	mach := sim.MustNew(p, machine.Ideal())
	mach.Run(func(nd *machine.Node) {
		outA := darray.New("outA", d, nd)
		outB := darray.New("outB", d, nd)
		src := darray.New("src", d, nd)
		idxA := darray.NewInt("idxA", d, nd)
		idxB := darray.NewInt("idxB", d, nd)
		for i := 1; i <= n; i++ {
			if src.IsLocal1(i) {
				src.Set1(i, float64(i))
				idxA.Set1(i, i%n+1) // shift by one
				idxB.Set1(i, n-i+1) // full reversal
			}
		}
		eng := NewEngine(nd)
		gather := func(name string, out *darray.Array, idx *darray.IntArray) *Loop {
			return &Loop{
				Name: name, Lo: 1, Hi: n, On: out, OnF: analysis.Identity,
				Reads:     []ReadSpec{{Array: src}}, // indirect: no affine
				DependsOn: []Dep{idx},
				Body:      func(i int, e *Env) { e.Write(out, i, e.Read(src, e.ReadInt(idx, i))) },
			}
		}
		eng.Run(gather("ga", outA, idxA))
		eng.Run(gather("gb", outB, idxB))
		if eng.Builds() != 2 || eng.SharedHits() != 0 {
			t.Errorf("indirect loops: builds=%d sharedHits=%d, want 2/0", eng.Builds(), eng.SharedHits())
		}
		for i := 1; i <= n; i++ {
			if outA.IsLocal1(i) && outA.Get1(i) != float64(i%n+1) {
				t.Errorf("outA[%d] = %g, want %g", i, outA.Get1(i), float64(i%n+1))
			}
			if outB.IsLocal1(i) && outB.Get1(i) != float64(n-i+1) {
				t.Errorf("outB[%d] = %g, want %g", i, outB.Get1(i), float64(n-i+1))
			}
		}
	})
}

// TestReplayAllocationFree: once a loop's schedule is cached and the
// payload pool is warm, replaying it through the production executor —
// packing, ISend posts, interior compute, the WaitAny drain on the
// schedule's own plan, unpacking, committing writes — performs zero
// heap allocations across the whole machine.  (The reference executor
// allocates by design: it pools nothing.)
func TestReplayAllocationFree(t *testing.T) {
	const n, p, warmup, reps = 64, 4, 5, 20
	g := topology.MustGrid(p)
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	mach := sim.MustNew(p, machine.Ideal())
	pin := alloctest.Pin{Pool: func() comm.PoolStats { return MachinePoolStats(mach) }}
	mach.Run(func(nd *machine.Node) {
		out := darray.New("out", d, nd)
		u := darray.New("u", d, nd)
		v := darray.New("v", d, nd)
		for i := 1; i <= n; i++ {
			if u.IsLocal1(i) {
				u.Set1(i, float64(i))
				v.Set1(i, float64(100*i))
			}
		}
		eng := NewEngine(nd)
		loop := &Loop{
			Name: "replay", Lo: 1, Hi: n - 1,
			On: out, OnF: analysis.Identity,
			Reads: []ReadSpec{
				{Array: u, Affine: &analysis.Affine{A: 1, C: 1}},
				{Array: v, Affine: &analysis.Affine{A: 1, C: 1}},
			},
			Body: func(i int, e *Env) { e.Write(out, i, e.Read(u, i+1)+e.Read(v, i+1)) },
		}
		pin.Run(nd, warmup, reps, func() { eng.Run(loop) })

		for i := 1; i < n; i++ {
			if out.IsLocal1(i) && out.Get1(i) != float64(i+1)+float64(100*(i+1)) {
				t.Errorf("out[%d] = %g after replays", i, out.Get1(i))
			}
		}
	})
	pin.Check(t, "cached replay")
}

// TestRedistributeInvalidatesCachedSchedules: redistributing an array
// bound to a cached (and shared) schedule must not replay the stale
// schedule — the distribution fingerprint is part of the cache entry's
// shape, so the rerun rebuilds (or re-shares under the new shape) and
// computes correct values under the new mapping.  This is the
// correctness half of schedule caching: replaying the old plan would
// ship the wrong elements entirely.
func TestRedistributeInvalidatesCachedSchedules(t *testing.T) {
	const n, p = 32, 4
	g := topology.MustGrid(p)
	dBlock := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	dCyc := dist.Must([]int{n}, []dist.DimSpec{dist.CyclicDim()}, g)
	mach := sim.MustNew(p, machine.Ideal())
	mach.Run(func(nd *machine.Node) {
		out := darray.New("out", dBlock, nd)
		src := darray.New("src", dBlock, nd)
		for i := 1; i <= n; i++ {
			if src.IsLocal1(i) {
				src.Set1(i, float64(i))
			}
		}
		eng := NewEngine(nd)
		eng.Run(shiftLoop("rl", n, out, src))
		if k := eng.LastBuildKind(); k != BuildCompileTime {
			t.Fatalf("first run built %v", k)
		}
		eng.Run(shiftLoop("rl", n, out, src))
		if k := eng.LastBuildKind(); k != BuildCached {
			t.Fatalf("replay before redistribution: %v, want cached", k)
		}

		// Remap the read array: the cached entry (and the shared-store
		// entry it points at) were built for [block] reads and are now
		// stale for this loop.
		darray.Redistribute(src, dCyc)
		eng.Run(shiftLoop("rl", n, out, src))
		if k := eng.LastBuildKind(); k == BuildCached {
			t.Error("stale schedule replayed after redistributing the read array")
		}
		checkShiftValues(t, nd, out, n, func(i int) float64 { return float64(i) })

		// Remap the placement (on) array too: exec sets change, so the
		// entry stored a moment ago must also miss.
		darray.Redistribute(out, dCyc)
		eng.Run(shiftLoop("rl", n, out, src))
		if k := eng.LastBuildKind(); k == BuildCached {
			t.Error("stale schedule replayed after redistributing the on array")
		}
		checkShiftValues(t, nd, out, n, func(i int) float64 { return float64(i) })

		// Ping-pong back: the loop's shape equals the original build, so
		// the engine may legitimately reuse — and the values stay right.
		darray.Redistribute(src, dBlock)
		darray.Redistribute(out, dBlock)
		eng.Run(shiftLoop("rl", n, out, src))
		checkShiftValues(t, nd, out, n, func(i int) float64 { return float64(i) })

		// The content-addressed store never held a stale entry: a second
		// loop of the original shape over fresh arrays still shares.
		out2 := darray.New("out2", dBlock, nd)
		src2 := darray.New("src2", dBlock, nd)
		for i := 1; i <= n; i++ {
			if src2.IsLocal1(i) {
				src2.Set1(i, float64(i))
			}
		}
		eng.Run(shiftLoop("rl2", n, out2, src2))
		if k := eng.LastBuildKind(); k != BuildShared {
			t.Errorf("fresh same-shape loop after remappings: %v, want shared", k)
		}
		checkShiftValues(t, nd, out2, n, func(i int) float64 { return float64(i) })
	})
}
