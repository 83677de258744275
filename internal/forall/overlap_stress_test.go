package forall

import (
	"sync"
	"testing"

	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/machine/wallclock"
	"kali/internal/topology"
)

// runOverlapJacobi runs a many-sweep five-point jacobi2d on the given
// machine with the split-phase executor and returns the final grid.
// On the wall-clock backend this hammers the ISend/WaitAny path from
// real threads: every sweep posts boundary sends to up to four
// neighbors and drains them in whatever order they physically
// complete.
func runOverlapJacobi(m *machine.Machine, pr, pc, n, sweeps int, panicNode, panicSweep int) []float64 {
	g := topology.MustGrid(pr, pc)
	d := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g)
	out := make([]float64, n*n)
	var mu sync.Mutex
	m.Run(func(nd *machine.Node) {
		a := darray.New("a", d, nd)
		old := darray.New("old", d, nd)
		for r := 1; r <= n; r++ {
			for c := 1; c <= n; c++ {
				if a.IsLocal(r, c) && (r == 1 || r == n || c == 1 || c == n) {
					a.Set2(r, c, 1.0+float64(((r-1)*n+c)%7))
				}
			}
		}
		eng := NewEngine(nd)
		copyLoop := &Loop2{
			Name: "stress.copy", LoI: 1, HiI: n, LoJ: 1, HiJ: n,
			On:    old,
			Reads: []ReadSpec{{Array: a}},
			Body:  func(i, j int, e *Env) { e.Write2(old, i, j, e.Read2(a, i, j)) },
		}
		relaxLoop := &Loop2{
			Name: "stress.relax", LoI: 2, HiI: n - 1, LoJ: 2, HiJ: n - 1,
			On:    a,
			Reads: []ReadSpec{{Array: old}},
			Body: func(i, j int, e *Env) {
				x := 0.25 * (e.Read2(old, i-1, j) + e.Read2(old, i+1, j) +
					e.Read2(old, i, j-1) + e.Read2(old, i, j+1))
				e.Write2(a, i, j, x)
			},
		}
		for s := 0; s < sweeps; s++ {
			if nd.ID() == panicNode && s == panicSweep {
				// Peers are mid-sweep with posted ISends and blocked
				// drains; the panic must poison them free, not deadlock.
				panic("stress: induced node failure")
			}
			eng.Run2(copyLoop)
			eng.Run2(relaxLoop)
		}
		mu.Lock()
		for r := 1; r <= n; r++ {
			for c := 1; c <= n; c++ {
				if a.IsLocal(r, c) {
					out[(r-1)*n+c-1] = a.Get2(r, c)
				}
			}
		}
		mu.Unlock()
	})
	return out
}

// TestWallclockOverlapStress: a many-iteration jacobi2d on 8 real
// threads exercising out-of-order peer completion in the split-phase
// drain.  Run under -race in CI.  The wall-clock result must match the
// simulator bit for bit — same schedules, same arithmetic, only the
// drain order differs.
func TestWallclockOverlapStress(t *testing.T) {
	const pr, pc, n, sweeps = 4, 2, 32, 40
	want := runOverlapJacobi(sim.MustNew(pr*pc, machine.Ideal()), pr, pc, n, sweeps, -1, -1)
	got := runOverlapJacobi(wallclock.MustNew(pr*pc, machine.Ideal()), pr, pc, n, sweeps, -1, -1)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("element %d differs after %d overlapped sweeps: wall %v, sim %v",
				i, sweeps, got[i], want[i])
		}
	}
}

// TestWallclockOverlapPoisonInFlight: a node panicking while its peers
// have ISends in flight and are blocked in the completion-order drain
// must poison the machine — every waiter released, the panic
// propagated by Machine.Run — rather than deadlock; and after Reset
// the same machine, its queues drained of the dead run's messages and
// its pool short of the buffers that run never returned, computes the
// simulator's answer.
func TestWallclockOverlapPoisonInFlight(t *testing.T) {
	const pr, pc, n, sweeps = 4, 2, 32, 12
	m := wallclock.MustNew(pr*pc, machine.Ideal())
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the induced node panic to propagate")
			}
		}()
		runOverlapJacobi(m, pr, pc, n, sweeps, 5, 3)
	}()
	m.Reset()
	want := runOverlapJacobi(sim.MustNew(pr*pc, machine.Ideal()), pr, pc, n, sweeps, -1, -1)
	got := runOverlapJacobi(m, pr, pc, n, sweeps, -1, -1)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("element %d differs on the reset machine: wall %v, sim %v", i, got[i], want[i])
		}
	}
}
