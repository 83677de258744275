package forall

import (
	"sync"
	"testing"

	"kali/internal/alloctest"
	"kali/internal/analysis"
	"kali/internal/comm"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/machine/wallclock"
	"kali/internal/topology"
)

// runFusedWavefront runs many sweeps of a coupled pair of five-point
// stencils through the sequence API: each sweep is [copy old := a;
// relax a from old; relax b from old].  The two relaxations read only
// old and write distinct arrays, so they form a fusion window — on the
// wall-clock backend their sections from up to four neighbors complete
// in whatever order the threads physically deliver them, exercising
// the out-of-order drain of the wavefront executor.
func runFusedWavefront(m *machine.Machine, pr, pc, n, sweeps, panicNode, panicSweep int, reference bool) []float64 {
	g := topology.MustGrid(pr, pc)
	d := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g)
	out := make([]float64, 2*n*n)
	var mu sync.Mutex
	m.Run(func(nd *machine.Node) {
		a := darray.New("a", d, nd)
		b := darray.New("b", d, nd)
		old := darray.New("old", d, nd)
		for r := 1; r <= n; r++ {
			for c := 1; c <= n; c++ {
				if a.IsLocal(r, c) && (r == 1 || r == n || c == 1 || c == n) {
					a.Set2(r, c, 1.0+float64(((r-1)*n+c)%7))
					b.Set2(r, c, 2.0+float64(((r-1)*n+c)%5))
				}
			}
		}
		eng := NewEngine(nd)
		eng.Reference = reference
		copyLoop := &Loop2{
			Name: "wave.copy", LoI: 1, HiI: n, LoJ: 1, HiJ: n,
			On:    old,
			Reads: []ReadSpec{{Array: a}},
			Body:  func(i, j int, e *Env) { e.Write2(old, i, j, e.Read2(a, i, j)) },
		}
		relaxA := &Loop2{
			Name: "wave.relaxA", LoI: 2, HiI: n - 1, LoJ: 2, HiJ: n - 1,
			On:    a,
			Reads: []ReadSpec{{Array: old}},
			Body: func(i, j int, e *Env) {
				x := 0.25 * (e.Read2(old, i-1, j) + e.Read2(old, i+1, j) +
					e.Read2(old, i, j-1) + e.Read2(old, i, j+1))
				e.Write2(a, i, j, x)
			},
		}
		relaxB := &Loop2{
			Name: "wave.relaxB", LoI: 2, HiI: n - 1, LoJ: 2, HiJ: n - 1,
			On:    b,
			Reads: []ReadSpec{{Array: old}},
			Body: func(i, j int, e *Env) {
				x := 0.2 * (e.Read2(old, i, j) + e.Read2(old, i-1, j) + e.Read2(old, i+1, j) +
					e.Read2(old, i, j-1) + e.Read2(old, i, j+1))
				e.Write2(b, i, j, x)
			},
		}
		seq := []SeqLoop{
			{L2: copyLoop, Writes: []*darray.Array{old}},
			{L2: relaxA, Writes: []*darray.Array{a}},
			{L2: relaxB, Writes: []*darray.Array{b}},
		}
		for s := 0; s < sweeps; s++ {
			if nd.ID() == panicNode && s == panicSweep {
				// Peers are mid-window with fused sections posted and
				// drains blocked; the panic must poison them free.
				panic("wavefront stress: induced node failure")
			}
			eng.RunSequence(seq)
		}
		mu.Lock()
		for r := 1; r <= n; r++ {
			for c := 1; c <= n; c++ {
				if a.IsLocal(r, c) {
					out[(r-1)*n+c-1] = a.Get2(r, c)
					out[n*n+(r-1)*n+c-1] = b.Get2(r, c)
				}
			}
		}
		mu.Unlock()
	})
	return out
}

// TestWallclockFusedWavefrontStress: many fused sweeps on 8 real
// threads must match the simulator — and the reference oracle — bit
// for bit, out-of-order section completion and all.  Run under -race
// in CI.
func TestWallclockFusedWavefrontStress(t *testing.T) {
	const pr, pc, n, sweeps = 4, 2, 32, 40
	want := runFusedWavefront(sim.MustNew(pr*pc, machine.Ideal()), pr, pc, n, sweeps, -1, -1, false)
	ref := runFusedWavefront(sim.MustNew(pr*pc, machine.Ideal()), pr, pc, n, sweeps, -1, -1, true)
	got := runFusedWavefront(wallclock.MustNew(pr*pc, machine.Ideal()), pr, pc, n, sweeps, -1, -1, false)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("element %d differs after %d fused sweeps: wall %v, sim %v", i, sweeps, got[i], want[i])
		}
		if ref[i] != want[i] {
			t.Fatalf("element %d differs from the reference oracle: fused %v, reference %v", i, want[i], ref[i])
		}
	}
}

// TestWallclockFusedPoisonInFlight: a node panicking while its peers
// hold posted fused sections and sit in the wavefront drain must
// poison the machine free rather than deadlock.
func TestWallclockFusedPoisonInFlight(t *testing.T) {
	const pr, pc, n, sweeps = 4, 2, 32, 12
	defer func() {
		if recover() == nil {
			t.Fatal("expected the induced node panic to propagate")
		}
	}()
	runFusedWavefront(wallclock.MustNew(pr*pc, machine.Ideal()), pr, pc, n, sweeps, 5, 3, false)
}

// TestFusedReplayAllocationFree: once a window's schedules and its
// fused plan are cached and the payload pool is warm, replaying the
// window — packing sections, posting, draining, unpacking,
// bodies, commits — performs zero heap allocations machine-wide, like
// the single-loop replays pinned in sharing_test.go.
func TestFusedReplayAllocationFree(t *testing.T) {
	const n, p, warmup, reps = 64, 4, 5, 20
	g := topology.MustGrid(p)
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	mach := sim.MustNew(p, machine.Ideal())
	pin := alloctest.Pin{Pool: func() comm.PoolStats { return MachinePoolStats(mach) }}

	var windows int
	mach.Run(func(nd *machine.Node) {
		out1 := darray.New("out1", d, nd)
		out2 := darray.New("out2", d, nd)
		u := darray.New("u", d, nd)
		v := darray.New("v", d, nd)
		for i := 1; i <= n; i++ {
			if u.IsLocal1(i) {
				u.Set1(i, float64(i))
				v.Set1(i, float64(100*i))
			}
		}
		eng := NewEngine(nd)
		seq := []SeqLoop{
			{
				L: &Loop{
					Name: "fused.replay1", Lo: 1, Hi: n - 1,
					On: out1, OnF: analysis.Identity,
					Reads: []ReadSpec{{Array: u, Affine: &analysis.Affine{A: 1, C: 1}}},
					Body:  func(i int, e *Env) { e.Write(out1, i, e.Read(u, i+1)) },
				},
				Writes: []*darray.Array{out1},
			},
			{
				L: &Loop{
					Name: "fused.replay2", Lo: 1, Hi: n - 1,
					On: out2, OnF: analysis.Identity,
					Reads: []ReadSpec{
						{Array: u, Affine: &analysis.Affine{A: 1, C: 1}},
						{Array: v, Affine: &analysis.Affine{A: 1, C: 1}},
					},
					Body: func(i int, e *Env) { e.Write(out2, i, e.Read(u, i+1)+e.Read(v, i+1)) },
				},
				Writes: []*darray.Array{out2},
			},
		}
		pin.Run(nd, warmup, reps, func() { eng.RunSequence(seq) })
		if nd.ID() == 0 {
			windows = eng.FusedWindows()
		}

		for i := 1; i < n; i++ {
			if out1.IsLocal1(i) && out1.Get1(i) != float64(i+1) {
				t.Errorf("out1[%d] = %g after fused replays", i, out1.Get1(i))
			}
			if out2.IsLocal1(i) && out2.Get1(i) != float64(i+1)+float64(100*(i+1)) {
				t.Errorf("out2[%d] = %g after fused replays", i, out2.Get1(i))
			}
		}
	})
	if runs := 2 * (warmup + reps); windows != runs { // the pin measures twice
		t.Fatalf("expected every sequence execution to fuse: %d windows over %d runs", windows, runs)
	}
	pin.Check(t, "warm fused replay")
}
