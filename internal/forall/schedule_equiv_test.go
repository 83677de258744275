package forall

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"kali/internal/analysis"
	"kali/internal/comm"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/index"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/topology"
)

// schedSnap is the comparable projection of one node's schedule.
type schedSnap struct {
	Kind         BuildKind
	ExecLocal    []iteration
	ExecNonlocal []iteration
	In           [][]comm.Range
	InTotal      []int
	Out          [][]comm.Range
}

// expand lists the iterations of an interior segment list in loop
// order.  Schedules are compared on the expansion: how the interior is
// cut into segments is a build-path detail (interval algebra vs
// run-length compression), which iterations run in which order is not.
func expand(segs []segment, rank int) []iteration {
	var out []iteration
	for _, sg := range segs {
		for x := sg.lo; x <= sg.hi; x++ {
			if rank == 2 {
				out = append(out, iteration{i: sg.i, j: x})
			} else {
				out = append(out, iteration{i: x})
			}
		}
	}
	return out
}

// snapshot extracts the comparable parts of a schedule.  Out-set Buf
// fields are receiver-side buffer offsets on the inspector path and
// unused by the executor, so they are normalized away.
func snapshot(s *Schedule) schedSnap {
	snap := schedSnap{
		Kind:         s.kind,
		ExecLocal:    expand(s.execLocal, s.rank),
		ExecNonlocal: append([]iteration(nil), s.execNonlocal...),
	}
	for _, as := range s.slots {
		snap.In = append(snap.In, append([]comm.Range(nil), as.in.Ranges...))
		snap.InTotal = append(snap.InTotal, as.in.Total)
		outs := append([]comm.Range(nil), as.out.Ranges...)
		for i := range outs {
			outs[i].Buf = 0
		}
		snap.Out = append(snap.Out, outs)
	}
	return snap
}

// randDim picks a random distribution spec for one dimension.
func randDim(r *rand.Rand, n, p int) dist.DimSpec {
	switch r.Intn(4) {
	case 0:
		return dist.BlockDim()
	case 1:
		return dist.CyclicDim()
	case 2:
		return dist.BlockCyclicDim(1 + r.Intn(3))
	default:
		// User map: random owner per index — the interval-compressed
		// pattern must agree with every closed-form one.
		owners := make([]int, n)
		for i := range owners {
			owners[i] = r.Intn(p)
		}
		return dist.MapDim(owners)
	}
}

// TestScheduleCompileTimeMatchesInspector2D is the rank-2 executor
// equivalence matrix: for random grid shapes, random per-dimension
// distributions (block / cyclic / block_cyclic / user map), random
// affine *read* subscripts AND random affine *on-clause* subscripts
// (shifts, strides, reflections), all three executor variants —
// compile-time, forced inspector, and Saltz-style enumeration — build
// element-for-element identical communication schedules (same
// iteration lists, same in/out records, same buffer layout, same
// receive counts) and compute the same values.
func TestScheduleCompileTimeMatchesInspector2D(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ny, nx := 4+r.Intn(10), 4+r.Intn(10)
		grids := [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {2, 4}, {4, 2}}
		gr := grids[r.Intn(len(grids))]
		p := gr[0] * gr[1]

		// Per-dimension affine subscripts for two reads of src — shifts
		// most of the time, occasionally strided (a=2) or reflected
		// (a=-1) so the non-unit coefficient paths stay compared.
		randAff := func(n int) analysis.Affine {
			switch r.Intn(6) {
			case 0:
				return analysis.Affine{A: -1, C: n + 1 - (r.Intn(3) - 1)}
			case 1:
				return analysis.Affine{A: 2, C: r.Intn(3) - 1}
			default:
				return analysis.Affine{A: 1, C: r.Intn(5) - 2}
			}
		}
		// On-clause subscripts: identity half the time, else shifted,
		// strided, or reflected placement.
		randOn := func(n int) analysis.Affine {
			switch r.Intn(6) {
			case 0:
				return analysis.Affine{A: 2, C: r.Intn(2)}
			case 1:
				return analysis.Affine{A: -1, C: n + 1}
			case 2:
				return analysis.Affine{A: 1, C: r.Intn(3) - 1}
			default:
				return analysis.Identity
			}
		}
		onF := analysis.Affine2{I: randOn(ny), J: randOn(nx)}
		g1 := analysis.Affine2{I: randAff(ny), J: randAff(nx)}
		g2 := analysis.Affine2{I: randAff(ny), J: randAff(nx)}
		// Loop bounds: iterations whose subscripts stay inside the array
		// for the on clause and both reads (each preimage of [1..n] is
		// one interval, so the intersection is a contiguous range).
		rowSet := index.Range(1, ny).
			Intersect(onF.I.Preimage(index.Range(1, ny))).
			Intersect(g1.I.Preimage(index.Range(1, ny))).
			Intersect(g2.I.Preimage(index.Range(1, ny)))
		colSet := index.Range(1, nx).
			Intersect(onF.J.Preimage(index.Range(1, nx))).
			Intersect(g1.J.Preimage(index.Range(1, nx))).
			Intersect(g2.J.Preimage(index.Range(1, nx)))
		if rowSet.Empty() || colSet.Empty() {
			return true // degenerate range, nothing to compare
		}
		loI, hiI := rowSet.Min(), rowSet.Max()
		loJ, hiJ := colSet.Min(), colSet.Max()

		g := topology.MustGrid(gr[0], gr[1])
		dOn := dist.Must([]int{ny, nx}, []dist.DimSpec{randDim(r, ny, gr[0]), randDim(r, nx, gr[1])}, g)
		dSrc := dist.Must([]int{ny, nx}, []dist.DimSpec{randDim(r, ny, gr[0]), randDim(r, nx, gr[1])}, g)

		run := func(force, enum bool) ([]schedSnap, []float64, []int) {
			mach := sim.MustNew(p, machine.Ideal())
			snaps := make([]schedSnap, p)
			recvs := make([]int, p)
			vals := make([]float64, ny*nx)
			var mu sync.Mutex
			mach.Run(func(nd *machine.Node) {
				dst := darray.New("dst", dOn, nd)
				src := darray.New("src", dSrc, nd)
				for i := 1; i <= ny; i++ {
					for j := 1; j <= nx; j++ {
						if src.IsLocal(i, j) {
							src.Set2(i, j, float64(i*1000+j))
						}
					}
				}
				eng := NewEngine(nd)
				eng.ForceInspector = force
				eng.Run2(&Loop2{
					Name: "equiv", LoI: loI, HiI: hiI, LoJ: loJ, HiJ: hiJ,
					On:   dst,
					OnF2: onF,
					Reads: []ReadSpec{
						{Array: src, Affine2: &g1},
						{Array: src, Affine2: &g2},
					},
					Enumerate: enum,
					Body: func(i, j int, e *Env) {
						v := e.ReadAt(src, g1.I.Apply(i), g1.J.Apply(j)) +
							e.ReadAt(src, g2.I.Apply(i), g2.J.Apply(j))
						e.WriteAt(dst, v, onF.I.Apply(i), onF.J.Apply(j))
					},
				})
				mu.Lock()
				snaps[nd.ID()] = snapshot(eng.Schedule2("equiv"))
				recvs[nd.ID()] = eng.Schedule2("equiv").RecvCount()
				for i := 1; i <= ny; i++ {
					for j := 1; j <= nx; j++ {
						if dst.IsLocal(i, j) {
							vals[(i-1)*nx+(j-1)] = dst.Get2(i, j)
						}
					}
				}
				mu.Unlock()
			})
			return snaps, vals, recvs
		}

		ct, ctVals, ctRecv := run(false, false)
		insp, inspVals, inspRecv := run(true, false)
		enum, enumVals, enumRecv := run(false, true)

		for q := 0; q < p; q++ {
			if ct[q].Kind != BuildCompileTime {
				t.Logf("seed %d node %d: kind %v, want compile-time", seed, q, ct[q].Kind)
				return false
			}
			if insp[q].Kind != BuildInspector || enum[q].Kind != BuildInspector {
				t.Logf("seed %d node %d: kinds %v/%v, want inspector", seed, q, insp[q].Kind, enum[q].Kind)
				return false
			}
			if ctRecv[q] != inspRecv[q] || ctRecv[q] != enumRecv[q] {
				t.Logf("seed %d node %d: recv counts %d/%d/%d differ", seed, q, ctRecv[q], inspRecv[q], enumRecv[q])
				return false
			}
			a, b, c := ct[q], insp[q], enum[q]
			a.Kind, b.Kind, c.Kind = 0, 0, 0
			if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
				t.Logf("seed %d node %d (ny=%d nx=%d grid=%v on=%v src=%v onF=%+v g1=%+v g2=%+v):\n  compile-time %+v\n  inspector    %+v\n  enumerate    %+v",
					seed, q, ny, nx, gr, dOn, dSrc, onF, g1, g2, a, b, c)
				return false
			}
		}

		// Same answer from all three executors, matching the sequential
		// model at the placed (on-clause-mapped) element.
		for i := loI; i <= hiI; i++ {
			for j := loJ; j <= hiJ; j++ {
				want := float64(g1.I.Apply(i)*1000+g1.J.Apply(j)) +
					float64(g2.I.Apply(i)*1000+g2.J.Apply(j))
				k := (onF.I.Apply(i)-1)*nx + (onF.J.Apply(j) - 1)
				if ctVals[k] != want || inspVals[k] != want || enumVals[k] != want {
					t.Logf("seed %d: dst[%d,%d] = %g / %g / %g, want %g",
						seed, onF.I.Apply(i), onF.J.Apply(j), ctVals[k], inspVals[k], enumVals[k], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleCompileTime2DBeatsInspectorCost: the point of the
// closed-form path — schedule acquisition charges no per-iteration
// inspector work and no exchange, so its simulated build time is
// strictly lower.
func TestScheduleCompileTime2DBeatsInspectorCost(t *testing.T) {
	build := func(force bool) float64 {
		const n, pr, pc = 64, 2, 2
		g := topology.MustGrid(pr, pc)
		d := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g)
		mach := sim.MustNew(pr*pc, machine.NCUBE7())
		mach.Run(func(nd *machine.Node) {
			a := darray.New("a", d, nd)
			old := darray.New("old", d, nd)
			eng := NewEngine(nd)
			eng.ForceInspector = force
			eng.NoCache = true
			loop := &Loop2{
				Name: "relax", LoI: 2, HiI: n - 1, LoJ: 2, HiJ: n - 1,
				On:    a,
				Reads: []ReadSpec{{Array: old, Affine2: affine2(1, -1, 1, 0)}, {Array: old, Affine2: affine2(1, 1, 1, 0)}, {Array: old, Affine2: affine2(1, 0, 1, -1)}, {Array: old, Affine2: affine2(1, 0, 1, 1)}},
				Body: func(i, j int, e *Env) {
					x := 0.25 * (e.ReadAt(old, i-1, j) + e.ReadAt(old, i+1, j) +
						e.ReadAt(old, i, j-1) + e.ReadAt(old, i, j+1))
					e.WriteAt(a, x, i, j)
				},
			}
			for s := 0; s < 3; s++ {
				eng.Run2(loop)
			}
		})
		return mach.MaxPhase(PhaseInspector)
	}
	ct, insp := build(false), build(true)
	if ct <= 0 || insp <= 0 {
		t.Fatalf("phases not recorded: compile-time %g, inspector %g", ct, insp)
	}
	if ct*5 >= insp {
		t.Fatalf("compile-time 2-D build (%gs) should be far cheaper than inspector (%gs)", ct, insp)
	}
}

// TestScheduleCacheRankSeparation: a rank-1 loop literally named
// "2d:x" must not collide with a Loop2 named "x" in the unified cache.
func TestScheduleCacheRankSeparation(t *testing.T) {
	g1 := topology.MustGrid(1)
	g2 := topology.MustGrid(1, 1)
	d1 := dist.Must([]int{6}, []dist.DimSpec{dist.BlockDim()}, g1)
	d2 := dist.Must([]int{6, 6}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g2)
	mach := sim.MustNew(1, machine.Ideal())
	mach.Run(func(nd *machine.Node) {
		a1 := darray.New("a1", d1, nd)
		a2 := darray.New("a2", d2, nd)
		eng := NewEngine(nd)
		eng.Run(&Loop{
			Name: "2d:x", Lo: 2, Hi: 5, On: a1, OnF: analysis.Identity,
			Body: func(i int, e *Env) { e.Write(a1, i, 1) },
		})
		ran := 0
		eng.Run2(&Loop2{
			Name: "x", LoI: 2, HiI: 5, LoJ: 0, HiJ: 0,
			On:   a2,
			Body: func(i, j int, e *Env) { ran++ },
		})
		if eng.LastBuildKind() == BuildCached {
			t.Error("Loop2 \"x\" reused the schedule of rank-1 loop \"2d:x\"")
		}
		if ran != 0 {
			t.Errorf("Loop2 with empty j-range ran %d iterations (replayed rank-1 exec list?)", ran)
		}
	})
}

func affine2(aI, cI, aJ, cJ int) *analysis.Affine2 {
	return &analysis.Affine2{I: analysis.Affine{A: aI, C: cI}, J: analysis.Affine{A: aJ, C: cJ}}
}

// TestScheduleCacheShapeChangeRebuilds: a cached schedule must not be
// replayed when the same-named loop comes back with a different
// on-clause placement or executor variant — both knobs change which
// iterations run where.
func TestScheduleCacheShapeChangeRebuilds(t *testing.T) {
	const n = 8
	g := topology.MustGrid(2, 2)
	d := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g)
	mach := sim.MustNew(4, machine.Ideal())
	mach.Run(func(nd *machine.Node) {
		a := darray.New("a", d, nd)
		src := darray.New("src", d, nd)
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				if src.IsLocal(i, j) {
					src.Set2(i, j, float64(i*100+j))
				}
			}
		}
		eng := NewEngine(nd)
		mk := func(onF analysis.Affine2, enum bool) *Loop2 {
			return &Loop2{
				Name: "shape", LoI: 1, HiI: n - 1, LoJ: 1, HiJ: n - 1,
				On: a, OnF2: onF,
				Reads:     []ReadSpec{{Array: src, Affine2: &analysis.Identity2}},
				Enumerate: enum,
				Body: func(i, j int, e *Env) {
					e.WriteAt(a, e.ReadAt(src, i, j), onF.I.Apply(i), onF.J.Apply(j))
				},
			}
		}
		ident := analysis.Identity2
		shift := analysis.Affine2{I: analysis.Affine{A: 1, C: 1}, J: analysis.Affine{A: 1, C: 1}}
		eng.Run2(mk(ident, false))
		// Different placement, same name/bounds: must rebuild, and the
		// shifted writes must land on their owners (a stale exec set
		// would panic with a non-owner write).
		eng.Run2(mk(shift, false))
		if eng.LastBuildKind() == BuildCached {
			t.Error("OnF2 change replayed a stale schedule")
		}
		// Executor-variant flip: must rebuild with the enum lists.
		eng.Run2(mk(shift, true))
		if eng.LastBuildKind() == BuildCached {
			t.Error("Enumerate flip replayed a stale schedule")
		}
		// Unchanged shape still hits the cache.
		eng.Run2(mk(shift, true))
		if eng.LastBuildKind() != BuildCached {
			t.Errorf("identical rerun: %v, want cached", eng.LastBuildKind())
		}
		// Read-pattern change, same name/placement/variant: the in/out
		// sets move, so it must rebuild as well.
		eng.Run2(&Loop2{
			Name: "shape", LoI: 1, HiI: n - 1, LoJ: 1, HiJ: n - 1,
			On: a, OnF2: shift,
			Reads:     []ReadSpec{{Array: src, Affine2: analysis.Shift2(0, 1)}},
			Enumerate: true,
			Body: func(i, j int, e *Env) {
				e.WriteAt(a, e.ReadAt(src, i, j+1), shift.I.Apply(i), shift.J.Apply(j))
			},
		})
		if eng.LastBuildKind() == BuildCached {
			t.Error("read-affine change replayed a stale schedule")
		}
	})
}

// TestScheduleCacheKeyByRank: the (rank, name) cache key scheme keeps
// rank-1 and rank-2 loops in disjoint keyspaces even for names that
// would have collided under the old "2d:"+name string prefixing, and
// Invalidate/InvalidateAll drop schedules of both ranks.
func TestScheduleCacheKeyByRank(t *testing.T) {
	g1 := topology.MustGrid(1)
	g2 := topology.MustGrid(1, 1)
	d1 := dist.Must([]int{6}, []dist.DimSpec{dist.BlockDim()}, g1)
	d2 := dist.Must([]int{6, 6}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g2)
	mach := sim.MustNew(1, machine.Ideal())
	mach.Run(func(nd *machine.Node) {
		a1 := darray.New("a1", d1, nd)
		a2 := darray.New("a2", d2, nd)
		eng := NewEngine(nd)
		l1 := &Loop{
			Name: "2d:foo", Lo: 1, Hi: 6, On: a1, OnF: analysis.Identity,
			Body: func(i int, e *Env) { e.Write(a1, i, 1) },
		}
		l2 := &Loop2{
			Name: "foo", LoI: 1, HiI: 6, LoJ: 1, HiJ: 6, On: a2,
			Body: func(i, j int, e *Env) { e.WriteAt(a2, 2, i, j) },
		}
		eng.Run(l1)
		// Under the string-prefix scheme the rank-1 loop "2d:foo" was
		// stored at the key Schedule2("foo") reads.
		if eng.Schedule2("foo") != nil {
			t.Error(`rank-1 loop "2d:foo" is visible as the Loop2 schedule "foo"`)
		}
		if eng.Schedule("2d:foo") == nil {
			t.Error(`rank-1 schedule "2d:foo" not cached under its own name`)
		}
		eng.Run2(l2)
		if eng.LastBuildKind() == BuildCached {
			t.Error(`Loop2 "foo" reused the schedule of rank-1 loop "2d:foo"`)
		}
		if s := eng.Schedule2("foo"); s == nil || s.Rank() != 2 {
			t.Errorf("Schedule2(foo) = %v, want a rank-2 schedule", s)
		}

		// Both ranks cached under one name: rerunning hits the cache.
		l1.Name = "x"
		l2.Name = "x"
		eng.Run(l1)
		eng.Run2(l2)
		eng.Run(l1)
		if eng.LastBuildKind() != BuildCached {
			t.Errorf("rank-1 rerun: %v, want cached", eng.LastBuildKind())
		}
		eng.Run2(l2)
		if eng.LastBuildKind() != BuildCached {
			t.Errorf("rank-2 rerun: %v, want cached", eng.LastBuildKind())
		}

		// Invalidate drops both ranks of that name only.
		eng.Invalidate("x")
		if eng.Schedule("x") != nil || eng.Schedule2("x") != nil {
			t.Error(`Invalidate("x") left a schedule behind`)
		}
		if eng.Schedule("2d:foo") == nil || eng.Schedule2("foo") == nil {
			t.Error(`Invalidate("x") dropped unrelated names`)
		}
		eng.Run(l1)
		if eng.LastBuildKind() == BuildCached {
			t.Error("rank-1 run after Invalidate should rebuild")
		}
		eng.Run2(l2)
		if eng.LastBuildKind() == BuildCached {
			t.Error("rank-2 run after Invalidate should rebuild")
		}

		// InvalidateAll drops everything of every rank.
		eng.InvalidateAll()
		for _, name := range []string{"x", "2d:foo", "foo"} {
			if eng.Schedule(name) != nil || eng.Schedule2(name) != nil {
				t.Errorf("InvalidateAll left %q behind", name)
			}
		}
		eng.Run2(l2)
		if eng.LastBuildKind() == BuildCached {
			t.Error("rank-2 run after InvalidateAll should rebuild")
		}
	})
}
