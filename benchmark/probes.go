package main

import (
	"fmt"
	"os"
	"time"

	"kali/internal/analysis"
	"kali/internal/comm"
	"kali/internal/core"
	"kali/internal/crystal"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/lang"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/machine/wallclock"
	"kali/internal/mesh"
	"kali/internal/relax"
	"kali/internal/topology"
)

// Layer probes.  Each layer (a package of the repo) is measured from
// outside: by timing calls into its exported functions, by the twin
// programs, and by the counters it already exports.  Every traced run
// takes all of them; probeShape carries the sizes, so a layer is
// measured at the shapes of the workload being traced and at small
// default shapes otherwise.

type probeShape struct {
	salt int
	// kaliN/kaliSweeps size the jacobi2d source of the lang probes.
	kaliN, kaliSweeps int
	// mesh feeds the relax, comm.find and crystal probes.
	mesh       *mesh.Mesh
	meshSweeps int
	// irregular selects the relaxation twin (inspector-built schedule,
	// mesh.SeqJacobi floor) for the forall probes instead of the
	// stencil twin (compile-time schedule, plain jacobi2d floor).
	irregular bool
	// redistN sizes the redistribution probe; packRanges × packLen is
	// the range shape of the pack/unpack and pool probes.
	redistN             int
	packRanges, packLen int
	// tenants, when set, is the instance the server and store probes
	// drive; otherwise they set up a small one of their own.
	tenants *tenantsHTTP
}

// defaultProbeShape is small, but large enough that sweep differencing
// resolves: the jacobi2d source runs ~10 ms.
func defaultProbeShape(salt int) probeShape {
	return probeShape{
		salt:  salt,
		kaliN: 64, kaliSweeps: 8,
		mesh:       mesh.Unstructured(32, 32, true, int64(salt)),
		meshSweeps: 2,
		redistN:    64,
		packRanges: 4, packLen: 16,
	}
}

// perCallNS returns the median, over 7 batches, of f's time per call.
// The batch size is doubled until one batch takes 200 µs, so the clock
// reads are amortized whatever f costs.
func perCallNS(f func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t0) >= 200*time.Microsecond || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var ns []float64
	for b := 0; b < 7; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		ns = append(ns, float64(time.Since(t0))/float64(n))
	}
	return median(ns)
}

// medianUS returns the median duration of reps calls of f, in µs.
func medianUS(reps int, f func()) float64 {
	var us []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		f()
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us)
}

// runProbes measures every layer and stores each metric under its
// BENCHMARK.json name.
func runProbes(ps probeShape, scratch string, out map[string]float64) error {
	apiNS, tt, err := langAndTwinProbes(ps, out)
	if err != nil {
		return err
	}
	coreProbes(out)
	forallProbes(ps, apiNS, tt, out)
	if err := storeProbes(ps, scratch, out); err != nil {
		return err
	}
	commProbes(ps, out)
	machineProbes(out)
	darrayProbes(ps, out)
	if err := serverProbes(ps, out); err != nil {
		return err
	}
	res := relax.Run(relax.Options{Mesh: ps.mesh, Sweeps: ps.meshSweeps, P: simP, Params: machine.NCUBE7()})
	out["relax.sim_inspector_s"] = res.Report.Inspector
	out["relax.sim_executor_s"] = res.Report.Executor
	return nil
}

// sweepDiffNS times run at s and 2s sweeps and charges the difference
// to the extra elements — everything that is not the steady-state
// loop body (compile, set-up, schedule build, gather) divides out.
// The smaller of two differences is kept: noise only ever adds.
func sweepDiffNS(s, elemsPerSweep int, run func(sweeps int) time.Duration) float64 {
	best := 0.0
	for rep := 0; rep < 2; rep++ {
		d := float64(run(2*s)-run(s)) / float64(s*elemsPerSweep)
		if rep == 0 || d < best {
			best = d
		}
	}
	return max(best, 0)
}

// langAndTwinProbes measures the language front end and VM on the
// jacobi2d source and the Go-API twin of the shape's choice; it
// returns the twin's per-element cost and per-node times for the
// forall probes.
func langAndTwinProbes(ps probeShape, out map[string]float64) (apiNS float64, tt twinTimes, err error) {
	n, s := ps.kaliN, ps.kaliSweeps
	src := jacobi2dSource(n, s, ps.salt)
	cfg := core.Config{P: simP, Params: machine.NCUBE7(), Backend: "sim"}
	var runErr error
	run := func(src string) time.Duration {
		prog, err := lang.Compile(src)
		if err != nil {
			runErr = err
			return 0
		}
		t0 := time.Now()
		if _, err := prog.Run(cfg); err != nil {
			runErr = err
		}
		return time.Since(t0)
	}
	out["lang.parse_us"] = medianUS(15, func() { _, runErr = lang.Parse(src) })
	var checkUS []float64
	for r := 0; r < 15; r++ {
		f, err := lang.Parse(src)
		if err != nil {
			return 0, tt, err
		}
		t0 := time.Now()
		runErr = lang.Check(f)
		checkUS = append(checkUS, float64(time.Since(t0))/1e3)
	}
	out["lang.check_us"] = median(checkUS)
	runMS := func(reps int, src string) float64 {
		var ms []float64
		for r := 0; r < reps; r++ {
			ms = append(ms, float64(run(src))/1e6)
		}
		return median(ms)
	}
	out["lang.run_ms"] = runMS(3, src)
	out["lang.run0_ms"] = runMS(5, jacobi2dSource(n, 0, ps.salt))
	// Sweep differencing needs a few milliseconds of difference to
	// resolve; a tenant-sized source is run at the default size for it.
	def := defaultProbeShape(ps.salt)
	n, s = max(n, def.kaliN), max(s, def.kaliSweeps)
	elems := n*n + (n-2)*(n-2)
	vmNS := sweepDiffNS(s, elems, func(sweeps int) time.Duration { return run(jacobi2dSource(n, sweeps, ps.salt)) })
	stencilNS := sweepDiffNS(s, elems, func(sweeps int) time.Duration {
		t0 := time.Now()
		jacobi2dTwin(n, sweeps, ps.salt, nil, 0, -1)
		return time.Since(t0)
	})
	out["lang.vm_ns_per_elem"] = vmNS
	out["lang.vm_over_api_ns_per_elem"] = vmNS - stencilNS
	if runErr != nil {
		return 0, tt, fmt.Errorf("lang probes: %w", runErr)
	}

	if !ps.irregular {
		_, _, tt = jacobi2dTwin(n, max(s, 3), ps.salt, nil, 0, -1)
		t0 := time.Now()
		const refSweeps = 50
		refJacobi2D(n, refSweeps, ps.salt)
		out["ref.seq_ns_per_elem"] = float64(time.Since(t0)) / float64(refSweeps*elems)
		return stencilNS, tt, nil
	}
	m := ps.mesh
	const twinSweeps = 4
	apiNS = sweepDiffNS(twinSweeps, 2*m.N, func(sweeps int) time.Duration {
		t0 := time.Now()
		relaxTwin(m, sweeps, simP, nil, 0, -1)
		return time.Since(t0)
	})
	_, _, tt = relaxTwin(m, twinSweeps, simP, nil, 0, -1)
	init := mesh.InitValues(m)
	const refSweeps = 20
	t0 := time.Now()
	mesh.SeqJacobi(m, init, refSweeps)
	out["ref.seq_ns_per_elem"] = float64(time.Since(t0)) / float64(refSweeps*2*m.N)
	return apiNS, tt, nil
}

// coreProbes times core.Run of an empty program: the per-run cost
// every tenant request pays, on a fresh and on a reused machine.
func coreProbes(out map[string]float64) {
	cfg := core.Config{P: tenantP, Params: machine.NCUBE7()}
	empty := func(*core.Context) {}
	out["core.fresh_run_us"] = medianUS(30, func() { core.Run(cfg, empty) })
	pooled := cfg
	m, err := core.NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	pooled.Machine = m
	out["core.pooled_run_us"] = medianUS(30, func() { core.Run(pooled, empty) })
}

func forallProbes(ps probeShape, apiNS float64, tt twinTimes, out map[string]float64) {
	out["forall.build_us"] = tt.buildUS()
	out["forall.replay_us"] = tt.replayUS()
	out["forall.sched_bytes"] = float64(tt.schedBytes)
	out["forall.env_ns_per_elem"] = apiNS - out["ref.seq_ns_per_elem"]
	// A warm one-iteration, communication-free loop: what is left is
	// the schedule lookup, the phase bookkeeping and the env checkout.
	sim.MustNew(1, machine.NCUBE7()).Run(func(nd *machine.Node) {
		a := darray.New("c", dist.Must([]int{4}, []dist.DimSpec{dist.BlockDim()}, topology.MustGrid(1)), nd)
		eng := forall.NewEngine(nd)
		loop := &forall.Loop{Name: "call", Lo: 1, Hi: 1, On: a, OnF: analysis.Identity,
			Body: func(i int, e *forall.Env) { e.Write(a, i, 1) }}
		eng.Run(loop)
		out["forall.call_ns"] = perCallNS(func() { eng.Run(loop) })
	})
}

// storeProbes runs one hot tenant program through Server.Run on a
// fresh server (every schedule built), again on the same server
// (adopted from the shared store), and on a fresh server over a
// populated cache directory (revived from disk) — the three rows that
// say whether persisting schedules pays.
func storeProbes(ps probeShape, scratch string, out map[string]float64) error {
	src := jacobi2dSource(side2D(hotSizes[1]), tenantSweeps, ps.salt)
	dir, err := os.MkdirTemp(scratch, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	timeRun := func(cacheDir string, runs int) (ms []float64, err error) {
		srv, err := newTenantServer(cacheDir)
		if err != nil {
			return nil, err
		}
		for r := 0; r < runs; r++ {
			t0 := time.Now()
			if _, err := srv.Run(src); err != nil {
				return nil, err
			}
			ms = append(ms, float64(time.Since(t0))/1e6)
		}
		return ms, nil
	}
	if _, err := timeRun(dir, 1); err != nil { // populate the directory
		return err
	}
	var cold, shared, disk []float64
	for rep := 0; rep < 5; rep++ {
		ms, err := timeRun("", 2)
		if err != nil {
			return err
		}
		cold, shared = append(cold, ms[0]), append(shared, ms[1])
		srv, err := newTenantServer(dir)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := srv.Run(src); err != nil {
			return err
		}
		disk = append(disk, float64(time.Since(t0))/1e6)
		if st := srv.Stats().Store; st.DiskHits == 0 || st.Builds != 0 {
			return fmt.Errorf("store probe: warm-disk server had %d disk hits and %d builds, want >0 and 0", st.DiskHits, st.Builds)
		}
	}
	out["forall.store.cold_run_ms"] = median(cold)
	out["forall.store.shared_run_ms"] = median(shared)
	out["forall.store.disk_run_ms"] = median(disk)
	return nil
}

// meshInSet is the in set the inspector would build for node me of a
// block-distributed relaxation over m: every neighbour stored
// elsewhere, with the (home, index) pairs in reference order.
func meshInSet(m *mesh.Mesh, me, p int) (*comm.InSet, [][2]int) {
	bs := (m.N + p - 1) / p
	lo, hi := me*bs+1, min(m.N, (me+1)*bs)
	b := comm.NewBuilder(me)
	var refs [][2]int
	for i := lo; i <= hi; i++ {
		for k := 0; k < m.Count[i-1]; k++ {
			g := m.Adj[(i-1)*m.MaxDeg+k]
			if home := (g - 1) / bs; home != me {
				b.Add(g, home)
				refs = append(refs, [2]int{home, g})
			}
		}
	}
	return b.Finalize(), refs
}

func commProbes(ps probeShape, out map[string]float64) {
	// Pack and unpack at the shape's range pattern: packRanges blocks
	// of packLen elements, a gap between blocks so they do not merge.
	total := ps.packRanges * ps.packLen
	var outRanges []comm.Range
	in := &comm.InSet{Total: total}
	for k := 0; k < ps.packRanges; k++ {
		lo := 2*k*ps.packLen + 1
		outRanges = append(outRanges, comm.Range{FromProc: 0, ToProc: 1, Low: lo, High: lo + ps.packLen - 1})
		in.Ranges = append(in.Ranges, comm.Range{FromProc: 1, ToProc: 0, Low: lo, High: lo + ps.packLen - 1, Buf: k * ps.packLen})
	}
	outSet := comm.BuildOut(0, outRanges)
	local := make([]float64, 2*total)
	payload := make([]float64, total)
	buf := make([]float64, total)
	copyRange := func(lo, hi int, dst []float64) { copy(dst, local[lo-1:hi]) }
	out["comm.pack_ns_per_elem"] = perCallNS(func() { outSet.PackInto(1, payload, copyRange) }) / float64(total)
	out["comm.unpack_ns_per_elem"] = perCallNS(func() { in.Unpack(1, payload, buf) }) / float64(total)

	var pool comm.BufPool
	pool.Put(pool.Get(total))
	out["comm.pool_getput_ns"] = perCallNS(func() { pool.Put(pool.Get(total)) })

	// The executor's search path: InSet.Find at the mesh's range count.
	meshIn, refs := meshInSet(ps.mesh, 0, simP)
	out["comm.inset_ranges"] = float64(meshIn.NumRanges())
	k := 0
	out["comm.find_ns"] = perCallNS(func() {
		r := refs[k%len(refs)]
		k++
		if _, ok := meshIn.Find(r[0], r[1]); !ok {
			panic("comm probe: recorded element not found")
		}
	})

	// The inspector's exchange: every node routes its in-set records
	// to their home nodes.
	var routeUS []float64
	for rep := 0; rep < 5; rep++ {
		durs := make([]time.Duration, simP)
		sim.MustNew(simP, machine.NCUBE7()).Run(func(nd *machine.Node) {
			in, _ := meshInSet(ps.mesh, nd.ID(), simP)
			var parcels []crystal.Parcel
			for _, q := range in.Senders() {
				rs := in.RangesFrom(q)
				parcels = append(parcels, crystal.Parcel{Dest: q, Data: rs, Bytes: 20 * len(rs)})
			}
			nd.Barrier()
			t0 := time.Now()
			crystal.Route(nd, parcels)
			durs[nd.ID()] = time.Since(t0)
		})
		worst := time.Duration(0)
		for _, d := range durs {
			worst = max(worst, d)
		}
		routeUS = append(routeUS, float64(worst)/1e3)
	}
	out["crystal.route_us"] = median(routeUS)
}

// pingPong measures, on a 2-node machine, half a message round trip
// and one barrier, each as the median of 5 windows of k.
func pingPong(m *machine.Machine, k int) (sendrecvNS, barrierNS float64) {
	var sr, br []float64
	m.Run(func(nd *machine.Node) {
		me := nd.ID()
		for w := 0; w < 6; w++ { // window 0 is warm-up
			nd.Barrier()
			t0 := time.Now()
			for i := 0; i < k; i++ {
				if me == 0 {
					nd.Send(1, machine.TagUser, nil, 8)
					nd.Recv(1, machine.TagUser)
				} else {
					nd.Recv(0, machine.TagUser)
					nd.Send(0, machine.TagUser, nil, 8)
				}
			}
			d1 := time.Since(t0)
			t0 = time.Now()
			for i := 0; i < k; i++ {
				nd.Barrier()
			}
			d2 := time.Since(t0)
			if me == 0 && w > 0 {
				sr = append(sr, float64(d1)/float64(2*k))
				br = append(br, float64(d2)/float64(k))
			}
		}
	})
	return median(sr), median(br)
}

func machineProbes(out map[string]float64) {
	out["machine.wall.sendrecv_ns"], out["machine.wall.barrier_ns"] = pingPong(wallclock.MustNew(wallP, machine.NCUBE7()), 500)
	out["machine.sim.sendrecv_ns"], out["machine.sim.barrier_ns"] = pingPong(sim.MustNew(2, machine.NCUBE7()), 2000)
	sim.MustNew(1, machine.NCUBE7()).Run(func(nd *machine.Node) {
		out["machine.sim.charge_ns"] = perCallNS(func() {
			nd.ChargeFlops(1)
			nd.ChargeMemRefs(1)
			nd.ChargeLocTest()
		})
	})
	idle := func(*machine.Node) {}
	sm := sim.MustNew(tenantP, machine.NCUBE7())
	out["machine.sim.empty_run_us"] = medianUS(30, func() { sm.Run(idle) })
	wm := wallclock.MustNew(wallP, machine.NCUBE7())
	out["machine.wall.empty_run_us"] = medianUS(30, func() { wm.Run(idle) })
}

func darrayProbes(ps probeShape, out map[string]float64) {
	const n = 64
	sim.MustNew(1, machine.NCUBE7()).Run(func(nd *machine.Node) {
		d := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, topology.MustGrid(1))
		a := darray.New("g", d, nd)
		k := 0
		out["darray.getset_ns"] = perCallNS(func() {
			i, j := k/n%n+1, k%n+1
			k++
			a.Set2(i, j, a.Get2(i, j)+1)
		})
		dst := make([]float64, n*n)
		out["darray.copyrange_ns_per_elem"] = perCallNS(func() { a.CopyLinearRange(1, n*n, dst) }) / float64(n*n)
	})

	// One warm redistribution between [block,*] and [*,block] on the
	// wall backend: the slowest node's window time ÷ redistributions.
	rn := ps.redistN
	const perWindow = 20
	var us [wallP][]float64
	wallclock.MustNew(wallP, machine.NCUBE7()).Run(func(nd *machine.Node) {
		rows, cols := rowColDists(rn)
		a := darray.New("r", rows, nd)
		for w := 0; w < 6; w++ { // window 0 is warm-up
			nd.Barrier()
			t0 := time.Now()
			for i := 0; i < perWindow; i++ {
				darray.Redistribute(a, cols)
				darray.Redistribute(a, rows)
			}
			if w > 0 {
				us[nd.ID()] = append(us[nd.ID()], float64(time.Since(t0))/1e3/(2*perWindow))
			}
		}
	})
	var slow []float64
	for w := range us[0] {
		slow = append(slow, max(us[0][w], us[1][w]))
	}
	out["darray.redistribute_us"] = median(slow)
}

// serverProbes compares the request stream over HTTP with the same
// stream through the handler's calls directly; the difference is the
// body read, the loopback and the JSON round trip.
func serverProbes(ps probeShape, out map[string]float64) error {
	t, secs := ps.tenants, 1.0
	if t == nil {
		inst, err := setupTenantsHTTP(int64(ps.salt), quickSizes)
		if err != nil {
			return err
		}
		defer inst.close()
		t, secs = inst.(*tenantsHTTP), 0.15
	}
	viaHTTP := t.drive(budgetFor(secs), nil, t.overHTTP)
	direct := t.drive(budgetFor(secs), nil, t.direct)
	if viaHTTP.failed+direct.failed > 0 {
		return fmt.Errorf("server probe: %d of %d requests failed", viaHTTP.failed+direct.failed, viaHTTP.ops+direct.ops)
	}
	out["server.run_ms"] = median(direct.us) / 1e3
	out["server.http_overhead_us"] = median(viaHTTP.us) - median(direct.us)
	st := t.srv.Stats()
	out["server.errs"] = float64(st.Errs)
	if lookups := st.Store.Hits + st.Store.DiskHits + st.Store.Builds; lookups > 0 {
		out["forall.store.hit_ratio"] = float64(st.Store.Hits+st.Store.DiskHits) / float64(lookups)
	}
	out["forall.store.evictions"] = float64(st.Store.Evictions)
	return nil
}
