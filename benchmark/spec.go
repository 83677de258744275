package main

// The declarations BENCHMARK.json repeats: workloads, end-to-end
// metrics with their bounds, per-layer metrics.  spec_test.go holds
// the two in step.

type workload struct {
	Name  string
	Why   string
	setup func(seed int64, sz sizes) (instance, error)
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: accepted relative worsening
}

var workloads = []workload{
	{"stencil-vm", "kalirun path: generated jacobi2d source compiled and run on 8 sim nodes; time is per-element VM, Env and cost-model work. Inspector, wall transport and server idle.", setupStencilVM},
	{"mesh-inspector", "Figure 4/7 relaxation on 16 shuffled unstructured meshes, fresh engine per run, so every run pays the run-time inspector (recording, comm.Builder, crystal.Route). No VM.", setupMeshInspector},
	{"wall-halo", "Wall backend, 2 pinned threads, warm 1-D Jacobi replay: 5 us of arithmetic under 45 us of hand-off (queue, notify, drain, pool). Many tiny messages; transport changes show here.", setupWallHalo},
	{"wall-transpose", "Same backend used the opposite way: 128x128 redistribute ping-pong, 32 KiB per message. Bulk pack, scatter unpack, partition recycling; a spinning or copying hand-off costs here.", setupWallTranspose},
	{"tenants-http", "POST /run from 2 closed-loop clients, 4 templates, 80% hot and 20% cold sizes: tiny programs, so cost is parse, check, elaborate, machine reset, store lookup, gather, JSON encode.", setupTenantsHTTP},
}

// End-to-end metrics: what a user of kalirun, of the Go API on real
// threads, or of POST /run experiences.  Every workload reports every
// one of them; one op is one program run, one relax.Run, one sweep,
// one redistribute ping-pong, or one request.
var endToEndSpecs = []metricSpec{
	{"op_p50_us", "us", "lower", 0.25},
	{"op_tail_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// Per-layer metrics, from the traced run: the workload's own counters
// plus the layer probes (probes.go) at the workload's sizes.  Reported,
// never gated.
var perLayerSpecs = []metricSpec{
	{Name: "lang.parse_us", Unit: "us", Better: "lower"},
	{Name: "lang.check_us", Unit: "us", Better: "lower"},
	{Name: "lang.run_ms", Unit: "ms", Better: "lower"},
	{Name: "lang.run0_ms", Unit: "ms", Better: "lower"},
	{Name: "lang.vm_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "lang.vm_over_api_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "core.fresh_run_us", Unit: "us", Better: "lower"},
	{Name: "core.pooled_run_us", Unit: "us", Better: "lower"},
	{Name: "forall.build_us", Unit: "us", Better: "lower"},
	{Name: "forall.replay_us", Unit: "us", Better: "lower"},
	{Name: "forall.call_ns", Unit: "ns", Better: "lower"},
	{Name: "forall.env_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "forall.builds_per_op", Unit: "count", Better: "lower"},
	{Name: "forall.shared_hits_per_op", Unit: "count", Better: "higher"},
	{Name: "forall.sched_bytes", Unit: "bytes", Better: "lower"},
	{Name: "forall.store.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "forall.store.evictions", Unit: "count", Better: "lower"},
	{Name: "forall.store.cold_run_ms", Unit: "ms", Better: "lower"},
	{Name: "forall.store.shared_run_ms", Unit: "ms", Better: "lower"},
	{Name: "forall.store.disk_run_ms", Unit: "ms", Better: "lower"},
	{Name: "comm.pack_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "comm.unpack_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "comm.find_ns", Unit: "ns", Better: "lower"},
	{Name: "comm.inset_ranges", Unit: "count", Better: "lower"},
	{Name: "comm.pool_getput_ns", Unit: "ns", Better: "lower"},
	{Name: "comm.pool_news_per_op", Unit: "count", Better: "lower"},
	{Name: "crystal.route_us", Unit: "us", Better: "lower"},
	{Name: "machine.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "machine.bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "machine.wall.sendrecv_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.wall.barrier_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.sim.sendrecv_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.sim.barrier_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.sim.charge_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.sim.empty_run_us", Unit: "us", Better: "lower"},
	{Name: "machine.wall.empty_run_us", Unit: "us", Better: "lower"},
	{Name: "darray.getset_ns", Unit: "ns", Better: "lower"},
	{Name: "darray.copyrange_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "darray.redistribute_us", Unit: "us", Better: "lower"},
	{Name: "darray.redist_builds_per_op", Unit: "count", Better: "lower"},
	{Name: "server.run_ms", Unit: "ms", Better: "lower"},
	{Name: "server.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.errs", Unit: "count", Better: "lower"},
	{Name: "relax.sim_inspector_s", Unit: "sim_s", Better: "lower"},
	{Name: "relax.sim_executor_s", Unit: "sim_s", Better: "lower"},
	{Name: "sim_total_s", Unit: "sim_s", Better: "lower"},
	{Name: "ref.seq_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "runtime.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_us_per_op", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}
