package forall

import (
	"fmt"
	"math"
	"sync"
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

// Tests of the executor pair itself: that a single loop — a fusion
// window of one — costs exactly what the dedicated single-loop executor
// it replaced did, that its plan never touches the bounded store, that
// both executors combine messages per processor pair, and that a nested
// Run is refused by name.

// pinnedRun is what a single-loop workload leaves on the simulator:
// the machine's elapsed clock as float bits, a fold of every node's
// executor phase time bits, and the traffic.
type pinnedRun struct {
	maxClock, executor uint64
	msgs, bytes        int
}

func pinOf(m *machine.Machine) pinnedRun {
	st := m.TotalStats()
	pin := pinnedRun{maxClock: math.Float64bits(m.MaxClock()), msgs: st.MsgsSent, bytes: st.BytesSent}
	// Every node's executor time, not just the slowest's: fold the bit
	// patterns so one changed last bit anywhere changes the pin.
	for i := 0; i < m.P(); i++ {
		pin.executor = pin.executor*31 + math.Float64bits(m.Node(i).PhaseTime(PhaseExecutor))
	}
	return pin
}

// runPinnedJacobi runs sweeps of the n×n jacobi2d copy/relax pair, each
// loop through its own Run2 call.
func runPinnedJacobi(n, sweeps int) pinnedRun {
	g := topology.MustGrid(2, 2)
	d := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g)
	m := sim.MustNew(4, machine.NCUBE7())
	m.Run(func(nd *machine.Node) {
		u := darray.New("u", d, nd)
		old := darray.New("old", d, nd)
		u.EachLocal(func(gl int) { u.SetLinear(gl, float64(gl%7)) })
		shift := func(di, dj int) *analysis.Affine2 {
			return &analysis.Affine2{I: analysis.Affine{A: 1, C: di}, J: analysis.Affine{A: 1, C: dj}}
		}
		copyLoop := &Loop2{
			Name: "copy", LoI: 1, HiI: n, LoJ: 1, HiJ: n, On: old, Phase: "copy",
			Body: func(i, j int, e *Env) { e.Write2(old, i, j, e.ReadLocal2(u, i, j)) },
		}
		relaxLoop := &Loop2{
			Name: "relax", LoI: 2, HiI: n - 1, LoJ: 2, HiJ: n - 1, On: u,
			Reads: []ReadSpec{
				{Array: old, Affine2: shift(-1, 0)}, {Array: old, Affine2: shift(1, 0)},
				{Array: old, Affine2: shift(0, -1)}, {Array: old, Affine2: shift(0, 1)},
			},
			Body: func(i, j int, e *Env) {
				x := 0.25 * (e.Read2(old, i-1, j) + e.Read2(old, i+1, j) +
					e.Read2(old, i, j-1) + e.Read2(old, i, j+1))
				e.Flops(9)
				e.Write2(u, i, j, x)
			},
		}
		eng := NewEngine(nd)
		for s := 0; s < sweeps; s++ {
			eng.Run2(copyLoop)
			eng.Run2(relaxLoop)
		}
	})
	return pinOf(m)
}

// runPinnedGather runs sweeps executions of one indirect (inspector)
// loop over n elements through Run.
func runPinnedGather(n, sweeps int) pinnedRun {
	g := topology.MustGrid(4)
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	m := sim.MustNew(4, machine.NCUBE7())
	m.Run(func(nd *machine.Node) {
		src := darray.New("src", d, nd)
		out := darray.New("out", d, nd)
		idx := darray.NewInt("idx", d, nd)
		src.EachLocal(func(gl int) { src.Set1(gl, float64(gl)*0.5) })
		idx.EachLocal(func(gl int) { idx.Set1(gl, (gl*7)%n+1) })
		loop := &Loop{
			Name: "gather", Lo: 1, Hi: n, On: out, OnF: analysis.Identity,
			Reads:     []ReadSpec{{Array: src}},
			DependsOn: []Dep{idx},
			Body: func(i int, e *Env) {
				e.Flops(1)
				e.Write(out, i, e.Read(src, e.ReadInt(idx, i))+1)
			},
		}
		eng := NewEngine(nd)
		for s := 0; s < sweeps; s++ {
			eng.Run(loop)
		}
	})
	return pinOf(m)
}

// TestWindowOfOnePinned: single-loop Run/Run2 at P=4 on the NCUBE/7
// model reproduce, bit for bit, what the dedicated single-loop executor
// measured at the commit before it was folded into runWindow (these
// constants were recorded there).  The executor phase time is the
// sensitive one: it is a sum of per-loop spans, so timing a loop under
// a posting span plus a loop span — as a fused window is — instead of
// one span can move its last bits.  It rarely does (span ends are
// differences of nearby clocks, mostly exact), which is why the jacobi
// size is one picked because there it does: with the split spans this
// case fails, while the gather case pins the inspector path's numbers
// without being sensitive to the split.
func TestWindowOfOnePinned(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func() pinnedRun
		want pinnedRun
	}{
		{"jacobi2d", func() pinnedRun { return runPinnedJacobi(34, 3) }, pinnedRun{maxClock: 0x3fcf503c5875e2e1, executor: 0xbb0ced4e4cb8e740, msgs: 24, bytes: 3072}},
		{"gather", func() pinnedRun { return runPinnedGather(64, 3) }, pinnedRun{maxClock: 0x3fd9bfd8c88391ab, executor: 0x8bd8b7bc9845f000, msgs: 44, bytes: 2016}},
	} {
		if got := c.run(); got != c.want {
			t.Errorf("%s: %#v, want %#v", c.name, got, c.want)
		}
	}
}

// TestManySingleLoopsStayAllocationFree: more distinct single loops
// than the bounded plan store holds, replayed round-robin (what a deep
// multigrid V-cycle does), still replay without allocating and never
// touch that store — a single loop's plan lives on its schedule.
func TestManySingleLoopsStayAllocationFree(t *testing.T) {
	const nLoops, p, warmup, rounds = fusedPlanCap + 8, 4, 3, 10
	g := topology.MustGrid(p)
	mach := sim.MustNew(p, machine.Ideal())
	pin := alloctest.Pin{Pool: func() comm.PoolStats { return MachinePoolStats(mach) }}

	var evictions, plans int
	mach.Run(func(nd *machine.Node) {
		// Distinct sizes make distinct shapes: every loop builds its own
		// schedule instead of sharing one.
		loops := make([]*Loop, nLoops)
		for k := range loops {
			n := 16 + 4*k
			d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
			out, u := darray.New("out", d, nd), darray.New("u", d, nd)
			u.EachLocal(func(gl int) { u.Set1(gl, float64(gl)) })
			loops[k] = &Loop{
				Name: fmt.Sprint("single", k), Lo: 1, Hi: n - 1,
				On: out, OnF: analysis.Identity,
				Reads: []ReadSpec{{Array: u, Affine: &analysis.Affine{A: 1, C: 1}}},
				Body:  func(i int, e *Env) { e.Write(out, i, e.Read(u, i+1)) },
			}
		}
		eng := NewEngine(nd)
		round := func() {
			for _, l := range loops {
				eng.Run(l)
				// The per-replay barrier bounds in-flight payload demand,
				// as in TestReplayAllocationFree.
				nd.Barrier()
			}
		}
		pin.Run(nd, warmup, rounds, round)
		if nd.ID() == 0 {
			evictions, plans = eng.FusedPlanEvictions(), eng.FusedPlans()
			if eng.Builds() != nLoops {
				t.Errorf("%d builds for %d distinct loops", eng.Builds(), nLoops)
			}
		}
	})
	pin.Check(t, fmt.Sprint(nLoops, " single loops replayed round-robin"))
	if evictions != 0 || plans != 0 {
		t.Errorf("single loops went through the multi-loop plan store: %d plans, %d evictions (want 0, 0)", plans, evictions)
	}
}

// TestCombinedMessagePerPair: with two arrays crossing each block
// boundary, both executors send one combined message per communicating
// processor pair per execution — the paper's "saving on the number of
// messages" — not one per array per pair.
func TestCombinedMessagePerPair(t *testing.T) {
	const n, p = 24, 4
	g := topology.MustGrid(p)
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	for _, reference := range []bool{false, true} {
		mach := sim.MustNew(p, machine.Ideal())
		var mu sync.Mutex
		msgs := 0
		mach.Run(func(nd *machine.Node) {
			out := darray.New("out", d, nd)
			u, v := darray.New("u", d, nd), darray.New("v", d, nd)
			u.EachLocal(func(gl int) { u.Set1(gl, float64(gl)); v.Set1(gl, float64(gl)*100) })
			eng := NewEngine(nd)
			eng.Reference = reference
			loop := &Loop{
				Name: "two-array", Lo: 1, Hi: n - 1,
				On: out, OnF: analysis.Identity,
				Reads: []ReadSpec{
					{Array: u, Affine: &analysis.Affine{A: 1, C: 1}},
					{Array: v, Affine: &analysis.Affine{A: 1, C: 1}},
				},
				Body: func(i int, e *Env) { e.Write(out, i, e.Read(u, i+1)+e.Read(v, i+1)) },
			}
			eng.Run(loop)
			before := nd.Stats().MsgsSent
			eng.Run(loop) // cached: pure executor traffic
			mu.Lock()
			msgs += nd.Stats().MsgsSent - before
			mu.Unlock()
			out.EachLocal(func(i int) {
				if want := float64(i+1) * 101; i < n && out.Get1(i) != want {
					t.Errorf("reference=%v: out[%d] = %g, want %g", reference, i, out.Get1(i), want)
				}
			})
		})
		// Three block boundaries, each crossed in one direction.
		if msgs != p-1 {
			t.Errorf("reference=%v: %d messages per execution, want %d (one per communicating pair)", reference, msgs, p-1)
		}
	}
}

// TestNestedRunPanics: a loop body may not start another loop on its
// own engine; the refusal names the inner loop.
func TestNestedRunPanics(t *testing.T) {
	g := topology.MustGrid(1)
	d := dist.Must([]int{4}, []dist.DimSpec{dist.BlockDim()}, g)
	got := panicText(func() {
		sim.MustNew(1, machine.Ideal()).Run(func(nd *machine.Node) {
			a := darray.New("A", d, nd)
			eng := NewEngine(nd)
			inner := &Loop{Name: "inner", Lo: 1, Hi: 4, On: a, OnF: analysis.Identity,
				Body: func(i int, e *Env) {}}
			outer := &Loop{Name: "outer", Lo: 1, Hi: 4, On: a, OnF: analysis.Identity,
				Body: func(i int, e *Env) { eng.Run(inner) }}
			eng.Run(outer)
		})
	})
	const want = "machine: node 0 panicked: forall inner: Run from inside a running forall body (nested foralls are not supported)"
	if got != want {
		t.Errorf("nested Run: panic %q, want %q", got, want)
	}
}
