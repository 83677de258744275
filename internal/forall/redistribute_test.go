package forall

// Tests at the redistribution/forall boundary: a remapped array's next
// loop must build exactly the schedule a fresh array under the new
// distribution would get, and must never replay a schedule built for
// the old mapping (stale-schedule staleness is a correctness bug).

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kali/internal/analysis"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/topology"
)

// schedEqual compares two schedules structurally: iteration lists and
// every slot's in/out range records.
func schedEqual(a, b *Schedule) bool {
	if a == nil || b == nil {
		return a == b
	}
	al, bl := expand(a.execLocal, a.rank), expand(b.execLocal, b.rank)
	if a.rank != b.rank || len(al) != len(bl) ||
		len(a.execNonlocal) != len(b.execNonlocal) || len(a.slots) != len(b.slots) {
		return false
	}
	for i := range al {
		if al[i] != bl[i] {
			return false
		}
	}
	for i := range a.execNonlocal {
		if a.execNonlocal[i] != b.execNonlocal[i] {
			return false
		}
	}
	for k := range a.slots {
		ai, bi := a.slots[k].in, b.slots[k].in
		ao, bo := a.slots[k].out, b.slots[k].out
		if len(ai.Ranges) != len(bi.Ranges) || len(ao.Ranges) != len(bo.Ranges) {
			return false
		}
		for r := range ai.Ranges {
			if ai.Ranges[r] != bi.Ranges[r] {
				return false
			}
		}
		for r := range ao.Ranges {
			if ao.Ranges[r] != bo.Ranges[r] {
				return false
			}
		}
	}
	return true
}

// randSpec draws a random 1-D dist-clause entry, including occasional
// user maps.
func randSpec(r *rand.Rand, n, p int) dist.DimSpec {
	switch r.Intn(4) {
	case 0:
		return dist.BlockDim()
	case 1:
		return dist.CyclicDim()
	case 2:
		return dist.BlockCyclicDim(1 + r.Intn(4))
	default:
		owners := make([]int, n)
		for i := range owners {
			owners[i] = r.Intn(p)
		}
		return dist.MapDim(owners)
	}
}

// TestQuickRedistributeSchedulesMatchFresh: over random (pattern,
// pattern′) pairs, Redistribute preserves every element on the owner
// the new dist reports, and a forall over the redistributed array
// builds a schedule identical to the one a fresh array allocated under
// pattern′ gets — the remapped handle is indistinguishable from a
// natively distributed one.
func TestQuickRedistributeSchedulesMatchFresh(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8 + r.Intn(40)
		p := []int{2, 4, 8}[r.Intn(3)]
		g := topology.MustGrid(p)
		from := dist.Must([]int{n}, []dist.DimSpec{randSpec(r, n, p)}, g)
		to := dist.Must([]int{n}, []dist.DimSpec{randSpec(r, n, p)}, g)
		shift := 1 + r.Intn(3)
		ok := true
		mach := sim.MustNew(p, machine.Ideal())
		mach.Run(func(nd *machine.Node) {
			a := darray.New("a", from, nd)
			b := darray.New("b", to, nd)
			for i := 1; i <= n; i++ {
				if a.IsLocal1(i) {
					a.Set1(i, float64(i)*7)
				}
				if b.IsLocal1(i) {
					b.Set1(i, float64(i)*7)
				}
			}
			darray.Redistribute(a, to)
			me := nd.ID()
			for i := 1; i <= n; i++ {
				owned := to.Pattern(0).Owner(i) == me
				if owned != a.IsLocal1(i) || (owned && a.Get1(i) != float64(i)*7) {
					ok = false
				}
			}
			// Same loop shape over the remapped array and the fresh one,
			// on two engines so the content-addressed store cannot make
			// the comparison vacuous.
			outA := darray.New("outA", to, nd)
			outB := darray.New("outB", to, nd)
			mk := func(name string, out, src *darray.Array) *Loop {
				return &Loop{
					Name: name, Lo: 1, Hi: n - shift,
					On: out, OnF: analysis.Identity,
					Reads: []ReadSpec{{Array: src, Affine: &analysis.Affine{A: 1, C: shift}}},
					Body:  func(i int, e *Env) { e.Write(out, i, e.Read(src, i+shift)) },
				}
			}
			eng1, eng2 := NewEngine(nd), NewEngine(nd)
			eng1.Run(mk("r", outA, a))
			eng2.Run(mk("r", outB, b))
			if !schedEqual(eng1.Schedule("r"), eng2.Schedule("r")) {
				ok = false
			}
			for i := 1; i <= n-shift; i++ {
				if outA.IsLocal1(i) && outA.Get1(i) != float64(i+shift)*7 {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRedistributeSchedulesMatchFresh2D: the rank-2 twin on a 2-D
// processor grid — a [block, block] array remapped to [cyclic, block]
// drives the same Loop2 stencil schedule as a fresh array.
func TestRedistributeSchedulesMatchFresh2D(t *testing.T) {
	const n = 12
	g := topology.MustGrid(2, 2)
	from := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g)
	to := dist.Must([]int{n, n}, []dist.DimSpec{dist.CyclicDim(), dist.BlockDim()}, g)
	mach := sim.MustNew(4, machine.Ideal())
	mach.Run(func(nd *machine.Node) {
		f := func(i, j int) float64 { return float64(i*50 + j) }
		a := darray.New("a", from, nd)
		b := darray.New("b", to, nd)
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				if a.IsLocal(i, j) {
					a.Set(f(i, j), i, j)
				}
				if b.IsLocal(i, j) {
					b.Set(f(i, j), i, j)
				}
			}
		}
		darray.Redistribute(a, to)
		outA := darray.New("outA", to, nd)
		outB := darray.New("outB", to, nd)
		mk := func(out, src *darray.Array) *Loop2 {
			return &Loop2{
				Name: "st", LoI: 2, HiI: n - 1, LoJ: 2, HiJ: n - 1,
				On: out,
				Reads: []ReadSpec{
					{Array: src, Affine2: analysis.Shift2(-1, 0)},
					{Array: src, Affine2: analysis.Shift2(0, 1)},
				},
				Body: func(i, j int, e *Env) {
					e.WriteAt(out, e.ReadAt(src, i-1, j)+e.ReadAt(src, i, j+1), i, j)
				},
			}
		}
		eng1, eng2 := NewEngine(nd), NewEngine(nd)
		eng1.Run2(mk(outA, a))
		eng2.Run2(mk(outB, b))
		if !schedEqual(eng1.Schedule2("st"), eng2.Schedule2("st")) {
			t.Errorf("node %d: remapped rank-2 schedule differs from fresh build", nd.ID())
		}
		for i := 2; i <= n-1; i++ {
			for j := 2; j <= n-1; j++ {
				if outA.IsLocal(i, j) && outA.Get(i, j) != f(i-1, j)+f(i, j+1) {
					t.Errorf("node %d: outA[%d,%d] = %g", nd.ID(), i, j, outA.Get(i, j))
				}
			}
		}
	})
}
