package forall

import (
	"math/rand"
	"sync"
	"testing"

	"kali/internal/analysis"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/machine/wallclock"
	"kali/internal/topology"
)

// Backend-equivalence property: the simulator and the wall-clock
// backend run the *same* compiled schedules, so over random
// distributions, read patterns, and executor variants they must
// produce byte-identical array contents and identical message counts.
// Only the clocks may differ.

// equivCase is one randomly drawn program shape.
type equivCase struct {
	n, p      int
	spec      dist.DimSpec
	affine    bool // affine read (else indirect via permutation)
	offset    int  // affine read offset
	onOff     int  // affine on-clause offset: iteration i on b[i+onOff]'s owner
	perm      []int
	force     bool // ForceInspector
	enumerate bool
	sweeps    int
}

func drawCase(r *rand.Rand) equivCase {
	c := equivCase{
		n:      8 + r.Intn(40),
		p:      1 + r.Intn(4),
		affine: r.Intn(2) == 0,
		force:  r.Intn(2) == 0,
		sweeps: 1 + r.Intn(3),
	}
	switch r.Intn(3) {
	case 0:
		c.spec = dist.BlockDim()
	case 1:
		c.spec = dist.CyclicDim()
	default:
		c.spec = dist.BlockCyclicDim(1 + r.Intn(4))
	}
	if c.affine {
		c.offset = []int{-2, -1, 1, 2}[r.Intn(4)]
		// Random on-clause: strided placement stays owner-correct because
		// the body writes b[i+onOff], the element the placement names.
		c.onOff = []int{-1, 0, 0, 1}[r.Intn(4)]
	} else {
		c.perm = make([]int, c.n)
		for i := range c.perm {
			c.perm[i] = r.Intn(c.n) + 1
		}
		// The enumerated executor only applies to inspector loops.
		c.enumerate = r.Intn(2) == 0
	}
	return c
}

// equivExec selects one executor variant for a case: the schedule path
// (compile-time unless forced/enumerated) and the executor (production
// by default, the Figure 3 oracle with reference).
type equivExec struct {
	force     bool
	enumerate bool
	reference bool
}

// runEquivCase executes the case's program on the given machine with
// the given executor variant and returns the final gathered contents
// of the output array, the machine-wide message totals, and the
// machine's elapsed clock (virtual seconds on sim).
func runEquivCase(c equivCase, m *machine.Machine, ex equivExec) ([]float64, machine.Stats, float64) {
	g := topology.MustGrid(m.P())
	d := dist.Must([]int{c.n}, []dist.DimSpec{c.spec}, g)
	result := make([]float64, c.n+1)
	var mu sync.Mutex
	m.Run(func(nd *machine.Node) {
		a := darray.New("A", d, nd)
		b := darray.New("B", d, nd)
		a.EachLocal(func(gl int) { a.Set1(gl, float64(gl)*1.5) })
		b.EachLocal(func(gl int) { b.Set1(gl, 0) })
		eng := NewEngine(nd)
		eng.ForceInspector = ex.force
		eng.Reference = ex.reference

		var loop *Loop
		if c.affine {
			// Bounds keep both the read subscript i+offset and the
			// placement/write subscript i+onOff inside [1, n].
			lo, hi := 1, c.n
			if c.offset > 0 {
				hi = c.n - c.offset
			} else {
				lo = 1 - c.offset
			}
			if c.onOff > 0 && c.n-c.onOff < hi {
				hi = c.n - c.onOff
			}
			if c.onOff < 0 && 1-c.onOff > lo {
				lo = 1 - c.onOff
			}
			loop = &Loop{
				Name: "equiv", Lo: lo, Hi: hi,
				On: b, OnF: analysis.Affine{A: 1, C: c.onOff},
				Reads: []ReadSpec{{Array: a, Affine: &analysis.Affine{A: 1, C: c.offset}}},
				Body: func(i int, e *Env) {
					e.Write(b, i+c.onOff, e.Read(a, i+c.offset)+float64(i))
				},
			}
		} else {
			// perm shares the loop's distribution: iteration i runs on
			// b[i]'s owner, which then reads perm[i] locally.
			ip := darray.NewInt("perm", d, nd)
			ip.EachLocal(func(gl int) { ip.Set1(gl, c.perm[gl-1]) })
			loop = &Loop{
				Name: "equiv", Lo: 1, Hi: c.n,
				On: b, OnF: analysis.Identity,
				Reads:     []ReadSpec{{Array: a}}, // indirect
				DependsOn: []Dep{ip},
				Enumerate: ex.enumerate,
				Body: func(i int, e *Env) {
					j := e.ReadInt(ip, i)
					e.Write(b, i, e.Read(a, j)+float64(i))
				},
			}
		}
		for s := 0; s < c.sweeps; s++ {
			eng.Run(loop)
		}
		mu.Lock()
		b.EachLocal(func(gl int) { result[gl] = b.Get1(gl) })
		mu.Unlock()
	})
	return result, m.TotalStats(), m.MaxClock()
}

func TestBackendEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 40; trial++ {
		c := drawCase(r)
		simM := sim.MustNew(c.p, machine.Ideal())
		wallM := wallclock.MustNew(c.p, machine.Ideal())

		ex := equivExec{force: c.force, enumerate: c.enumerate}
		simVals, simStats, _ := runEquivCase(c, simM, ex)
		wallVals, wallStats, _ := runEquivCase(c, wallM, ex)

		for i := range simVals {
			if simVals[i] != wallVals[i] {
				t.Fatalf("trial %d (%+v): element %d differs: sim %v, wall %v",
					trial, c, i, simVals[i], wallVals[i])
			}
		}
		if simStats.MsgsSent != wallStats.MsgsSent || simStats.BytesSent != wallStats.BytesSent {
			t.Fatalf("trial %d (%+v): traffic differs: sim %d msgs/%d bytes, wall %d msgs/%d bytes",
				trial, c, simStats.MsgsSent, simStats.BytesSent, wallStats.MsgsSent, wallStats.BytesSent)
		}
		if simStats.MsgsReceived != wallStats.MsgsReceived {
			t.Fatalf("trial %d: receives differ: sim %d, wall %d",
				trial, simStats.MsgsReceived, wallStats.MsgsReceived)
		}
	}
}

// TestExecutorBackendMatrix is the full equivalence matrix: {prod,
// ref} × {sim, wall} × {compile-time, inspector, enumerate} over random
// distributions, reads and on-clauses.  Every loop here runs alone — a
// window of one — so all four backend/executor combinations of one
// schedule kind must produce bit-identical array contents and
// identical machine-wide Stats (production moves traffic off the
// critical path; it never changes the traffic), and the production
// simulated clock may only shrink relative to the reference, never
// grow.
func TestExecutorBackendMatrix(t *testing.T) {
	type kind struct {
		name      string
		force     bool
		enumerate bool
	}
	r := rand.New(rand.NewSource(8816))
	for trial := 0; trial < 15; trial++ {
		c := drawCase(r)
		var kinds []kind
		if c.affine {
			kinds = []kind{{"compile-time", false, false}, {"inspector", true, false}}
		} else {
			kinds = []kind{{"inspector", false, false}, {"enumerate", false, true}}
		}
		for _, k := range kinds {
			var refVals []float64
			var refStats machine.Stats
			var simClock [2]float64 // prod, ref
			first := true
			for _, backend := range []string{"sim", "wall"} {
				for _, ref := range []bool{false, true} {
					var m *machine.Machine
					if backend == "sim" {
						m = sim.MustNew(c.p, machine.Ideal())
					} else {
						m = wallclock.MustNew(c.p, machine.Ideal())
					}
					ex := equivExec{force: k.force, enumerate: k.enumerate, reference: ref}
					vals, stats, clock := runEquivCase(c, m, ex)
					if backend == "sim" {
						if ref {
							simClock[1] = clock
						} else {
							simClock[0] = clock
						}
					}
					if first {
						refVals, refStats, first = vals, stats, false
						continue
					}
					for i := range vals {
						if vals[i] != refVals[i] {
							t.Fatalf("trial %d %s %s ref=%v (%+v): element %d differs: %v vs %v",
								trial, k.name, backend, ref, c, i, vals[i], refVals[i])
						}
					}
					if stats != refStats {
						t.Fatalf("trial %d %s %s ref=%v (%+v): stats differ: %+v vs %+v",
							trial, k.name, backend, ref, c, stats, refStats)
					}
				}
			}
			if simClock[0] > simClock[1] {
				t.Fatalf("trial %d %s (%+v): production grew the simulated clock over the reference: %.9g > %.9g",
					trial, k.name, c, simClock[0], simClock[1])
			}
		}
	}
}

// TestExecutorEquivalenceRedistribution runs a redistribute ping-pong
// with foralls between the remaps through the same matrix: executor ×
// backend must leave values and Stats identical (redistribution itself
// stays on blocking sends), and production may only shrink sim clocks.
func TestExecutorEquivalenceRedistribution(t *testing.T) {
	const n, p = 48, 4
	run := func(m *machine.Machine, reference bool) ([]float64, machine.Stats, float64) {
		g := topology.MustGrid(p)
		db := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
		dc := dist.Must([]int{n}, []dist.DimSpec{dist.CyclicDim()}, g)
		result := make([]float64, 2*n)
		var mu sync.Mutex
		m.Run(func(nd *machine.Node) {
			a := darray.New("A", db, nd)
			b := darray.New("B", db, nd)
			a.EachLocal(func(gl int) { a.Set1(gl, float64(gl)*1.25) })
			b.EachLocal(func(gl int) { b.Set1(gl, 0) })
			eng := NewEngine(nd)
			eng.Reference = reference
			fwd := &Loop{
				Name: "rd.fwd", Lo: 1, Hi: n - 1,
				On: b, OnF: analysis.Identity,
				Reads: []ReadSpec{{Array: a, Affine: &analysis.Affine{A: 1, C: 1}}},
				Body: func(i int, e *Env) {
					e.Write(b, i, e.Read(a, i+1)+float64(i))
				},
			}
			bwd := &Loop{
				Name: "rd.bwd", Lo: 2, Hi: n,
				On: a, OnF: analysis.Identity,
				Reads: []ReadSpec{{Array: b, Affine: &analysis.Affine{A: 1, C: -1}}},
				Body: func(i int, e *Env) {
					e.Write(a, i, e.Read(b, i-1)*0.5)
				},
			}
			for round := 0; round < 3; round++ {
				eng.Run(fwd)
				darray.Redistribute(a, dc)
				darray.Redistribute(b, dc)
				eng.Run(bwd)
				darray.Redistribute(a, db)
				darray.Redistribute(b, db)
			}
			mu.Lock()
			a.EachLocal(func(gl int) { result[gl-1] = a.Get1(gl) })
			b.EachLocal(func(gl int) { result[n+gl-1] = b.Get1(gl) })
			mu.Unlock()
		})
		return result, m.TotalStats(), m.MaxClock()
	}

	refVals, refStats, _ := run(sim.MustNew(p, machine.Ideal()), false)
	_, _, simRef := run(sim.MustNew(p, machine.Ideal()), true)
	simProd := 0.0
	for _, backend := range []string{"sim", "wall"} {
		for _, ref := range []bool{false, true} {
			var m *machine.Machine
			if backend == "sim" {
				m = sim.MustNew(p, machine.Ideal())
			} else {
				m = wallclock.MustNew(p, machine.Ideal())
			}
			vals, stats, clock := run(m, ref)
			if backend == "sim" && !ref {
				simProd = clock
			}
			for i := range vals {
				if vals[i] != refVals[i] {
					t.Fatalf("%s ref=%v: element %d differs: %v vs %v",
						backend, ref, i, vals[i], refVals[i])
				}
			}
			if stats != refStats {
				t.Fatalf("%s ref=%v: stats differ: %+v vs %+v", backend, ref, stats, refStats)
			}
		}
	}
	if simProd > simRef {
		t.Fatalf("production grew the simulated clock over the reference: %.9g > %.9g", simProd, simRef)
	}
}

// TestBackendEquivalenceRedistribution: the redistribution pipeline
// (plans, pooled payloads, header swaps) must also be
// backend-invariant.
func TestBackendEquivalenceRedistribution(t *testing.T) {
	const n, p = 48, 4
	run := func(m *machine.Machine) ([]float64, machine.Stats) {
		g := topology.MustGrid(p)
		d0 := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
		d1 := dist.Must([]int{n}, []dist.DimSpec{dist.CyclicDim()}, g)
		result := make([]float64, n+1)
		var mu sync.Mutex
		m.Run(func(nd *machine.Node) {
			a := darray.New("A", d0, nd)
			a.EachLocal(func(gl int) { a.Set1(gl, float64(gl)*2.25) })
			for round := 0; round < 3; round++ {
				darray.Redistribute(a, d1)
				darray.Redistribute(a, d0)
			}
			mu.Lock()
			a.EachLocal(func(gl int) { result[gl] = a.Get1(gl) })
			mu.Unlock()
		})
		return result, m.TotalStats()
	}
	simVals, simStats := run(sim.MustNew(p, machine.Ideal()))
	wallVals, wallStats := run(wallclock.MustNew(p, machine.Ideal()))
	for i := range simVals {
		if simVals[i] != wallVals[i] {
			t.Fatalf("element %d differs: sim %v, wall %v", i, simVals[i], wallVals[i])
		}
	}
	if simStats != wallStats {
		t.Fatalf("stats differ: sim %+v, wall %+v", simStats, wallStats)
	}
}

// TestBackendEquivalenceAllReduce: reductions combine in node-id
// order on both backends, so even float results are bit-identical.
func TestBackendEquivalenceAllReduce(t *testing.T) {
	const p = 4
	run := func(m *machine.Machine) []float64 {
		got := make([]float64, p)
		m.Run(func(nd *machine.Node) {
			x := 0.1 * float64(nd.ID()+1) // sums of 0.1s are order-sensitive
			got[nd.ID()] = nd.AllReduce(x, "sum")
		})
		return got
	}
	simVals := run(sim.MustNew(p, machine.Ideal()))
	wallVals := run(wallclock.MustNew(p, machine.Ideal()))
	for i := range simVals {
		if simVals[i] != wallVals[i] {
			t.Fatalf("node %d: sim %v, wall %v", i, simVals[i], wallVals[i])
		}
	}
}
