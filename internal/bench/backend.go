package bench

import (
	"fmt"
	"sync"

	"kali/internal/alloctest"
	"kali/internal/analysis"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/topology"
)

// Backend replays the paper's three program shapes from cached
// schedules on the simulator: a Jacobi shift (a compile-time
// schedule), an ADI-style [block,*]↔[*,block] redistribution ping-pong,
// and an unstructured indirect sweep (an inspector-built schedule).
//
// Every column is the simulator's: the NCUBE/7 cost model's time per
// replay, the traffic per replay, and the process's allocations per
// replay.  The traffic is what the wall-clock backend moves too
// (forall's TestBackendEquivalence* and TestExecutorBackendMatrix pin
// sim ≡ wall); what the same replays cost in host time on real threads
// is benchmark/'s wall-halo and wall-transpose workloads.
func Backend(opt Options) *Table {
	jacobiN, adiN, unstrN := 1<<16, 192, 1<<14
	procs := []int{1, 2, 4, 8}
	// Warm replays cost the same every time in everything this table
	// reports, so the quick run needs only a few of them.
	reps := 200
	if opt.Quick {
		jacobiN, adiN, unstrN, reps = 1<<12, 48, 1<<11, 25
		procs = []int{1, 2, 4}
	}
	t := &Table{
		ID:     "backend",
		Title:  "cached-schedule replays of the three program shapes: predicted time, traffic, allocations",
		Labels: []string{"workload", "procs"},
		Columns: []Column{simSec("sim time/rep", 4), exact("msgs/rep", "count", 1),
			exact("bytes/rep", "bytes", 0), exact("allocs/replay", "count", 1)},
		Notes: []string{
			fmt.Sprintf("sim time is the NCUBE/7 cost model (jacobi N=%d, adi %dx%d, unstructured N=%d, %d replays)",
				jacobiN, adiN, adiN, unstrN, reps),
		},
	}
	for _, w := range []struct {
		name    string
		program func(p int) backendProgram
	}{
		{"jacobi", func(p int) backendProgram { return jacobiProgram(jacobiN) }},
		{"adi", func(p int) backendProgram { return adiProgram(adiN, p) }},
		{"unstructured", func(p int) backendProgram { return unstructuredProgram(unstrN) }},
	} {
		for _, p := range procs {
			r := backendRun(p, reps, w.program(p))
			t.add([]string{w.name, fmt.Sprint(p)}, r.secPerRep, r.msgsPerRep, r.bytesPerRep, r.allocsPerRep)
		}
	}
	return t
}

// backendProgram is one node's share of a workload: setup runs once
// and returns the replay step that is timed.
type backendProgram func(nd *machine.Node) func()

// jacobiProgram is the Jacobi shift: a compile-time affine schedule,
// replayed from the cache with pooled payloads (the zero-alloc path).
func jacobiProgram(n int) backendProgram {
	return func(nd *machine.Node) func() {
		g := topology.MustGrid(nd.P())
		d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
		a, b := darray.New("ja", d, nd), darray.New("jb", d, nd)
		a.EachLocal(func(gl int) { a.Set1(gl, float64(gl)) })
		b.EachLocal(func(gl int) { b.Set1(gl, 0) })
		eng := forall.NewEngine(nd)
		loop := &forall.Loop{
			Name: "jacobi", Lo: 2, Hi: n - 1,
			On: b, OnF: analysis.Identity,
			Reads: []forall.ReadSpec{
				{Array: a, Affine: &analysis.Affine{A: 1, C: -1}},
				{Array: a, Affine: &analysis.Affine{A: 1, C: 1}},
			},
			Body: func(i int, e *forall.Env) {
				e.Write(b, i, 0.5*(e.Read(a, i-1)+e.Read(a, i+1)))
			},
		}
		return func() { eng.Run(loop) }
	}
}

// adiProgram is the ADI sweep's data-movement core: remapping an n×n
// array between [block,*] and [*,block] (the transpose between the
// row and column phases), replayed from the redistribution plan store.
func adiProgram(n, p int) backendProgram {
	return func(nd *machine.Node) func() {
		g := topology.MustGrid(p)
		rows := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, g)
		cols := dist.Must([]int{n, n}, []dist.DimSpec{dist.CollapsedDim(), dist.BlockDim()}, g)
		a := darray.New("adi", rows, nd)
		a.EachLocal(func(gl int) { a.SetLinear(gl, float64(gl)) })
		return func() {
			darray.Redistribute(a, cols)
			darray.Redistribute(a, rows)
		}
	}
}

// unstructuredProgram is the paper's irregular case: an indirect sweep
// whose communication sets only the inspector can derive, replayed
// from the cached inspector schedule.
func unstructuredProgram(n int) backendProgram {
	return func(nd *machine.Node) func() {
		g := topology.MustGrid(nd.P())
		d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
		a, b := darray.New("ua", d, nd), darray.New("ub", d, nd)
		ip := darray.NewInt("uperm", d, nd)
		a.EachLocal(func(gl int) { a.Set1(gl, float64(gl)) })
		b.EachLocal(func(gl int) { b.Set1(gl, 0) })
		// A fixed stride walks off the local block without a PRNG, so
		// every replay moves real nonlocal data deterministically.
		ip.EachLocal(func(gl int) { ip.Set1(gl, (gl*7919)%n+1) })
		eng := forall.NewEngine(nd)
		eng.ForceInspector = true
		loop := &forall.Loop{
			Name: "unstructured", Lo: 1, Hi: n,
			On: b, OnF: analysis.Identity,
			Reads:     []forall.ReadSpec{{Array: a}},
			DependsOn: []forall.Dep{ip},
			Body: func(i int, e *forall.Env) {
				e.Write(b, i, e.Read(a, e.ReadInt(ip, i)))
			},
		}
		return func() { eng.Run(loop) }
	}
}

// backendMeas is one (workload, processor-count) measurement.
type backendMeas struct {
	secPerRep    float64 // max per-node replay-phase time per rep
	msgsPerRep   float64 // machine-wide sends per rep
	bytesPerRep  float64 // machine-wide bytes per rep
	allocsPerRep float64 // process-wide mallocs per rep
}

const phaseBackendReplay = "backend-replay"

// backendRun executes prog on a p-node NCUBE/7 simulator: warmup
// rounds build the schedules, grow the payload pool to the pattern's
// peak demand and prime the phase-timer map, then exactly reps replays
// are timed under the phase clock and counted by alloctest.Mallocs,
// with per-node stats snapshots aggregated for the same window's
// traffic.  The barrier after each replay bounds the in-flight payload
// demand to what warmup grew the pool to.
func backendRun(p, reps int, prog backendProgram) backendMeas {
	m := sim.MustNew(p, machine.NCUBE7())
	var res backendMeas
	var mu sync.Mutex
	var beforeAgg machine.Stats
	m.Run(func(nd *machine.Node) {
		replay := prog(nd)
		step := func() {
			nd.StartPhase(phaseBackendReplay)
			replay()
			nd.StopPhase(phaseBackendReplay)
		}
		var warmupSec float64
		var statsBefore machine.Stats
		mallocs := alloctest.Mallocs(nd, 12, reps, step, func() {
			warmupSec, statsBefore = nd.PhaseTime(phaseBackendReplay), nd.Stats()
		})

		mu.Lock()
		beforeAgg = beforeAgg.Add(statsBefore)
		if dt := nd.PhaseTime(phaseBackendReplay) - warmupSec; dt > res.secPerRep {
			res.secPerRep = dt // max over nodes; divided by reps below
		}
		if nd.ID() == 0 {
			res.allocsPerRep = float64(mallocs) / float64(reps)
		}
		mu.Unlock()
	})
	stats := m.TotalStats().Sub(beforeAgg)
	res.secPerRep /= float64(reps)
	res.msgsPerRep = float64(stats.MsgsSent) / float64(reps)
	res.bytesPerRep = float64(stats.BytesSent) / float64(reps)
	return res
}
