// Command benchmark is the repository's host-time performance ledger.
//
// The paper argues from a split of measured time: §4 and Figures 7–10
// break total time into inspector and executor and reason from that
// split.  This program does the same for host time.  It runs five
// named workloads — stencil-vm, mesh-inspector, wall-halo,
// wall-transpose and tenants-http — checks every result against a
// reference written in plain Go, and prints end-to-end metrics (what a
// user of kalirun, of the Go API on real threads, or of POST /run
// experiences) and, from a second, traced run, per-layer metrics (one
// group per package of the repository).  BENCHMARK.json names the
// metrics and their bounds; README.md says how to read them.
//
// Every layer is measured from outside: by timing calls into its
// exported functions, by twin programs written one layer lower, and by
// the counters the program already exports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"kali/internal/darray"
	"kali/internal/forall"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	traceOut  string
	scratch   string
	quick     bool
	jsonOnly  bool
	aa        bool
	selfcheck bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all five, each untraced and then traced)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of all input generation")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured pass")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome trace-event file of the traced pass (default <scratch>/trace-<workload>.json)")
	flag.StringVar(&o.scratch, "scratch", ".bench_build/scratch", "directory for the trace files and the store probe's cache")
	flag.BoolVar(&o.quick, "quick", false, "small sizes and short passes: a smoke run, not a measurement")
	flag.BoolVar(&o.jsonOnly, "json", false, "print only the final JSON object")
	flag.BoolVar(&o.aa, "aa", false, "run the suite twice and compare the two runs against the bounds")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "only check the twins against the programs they mirror, and determinism")
	flag.Parse()
	if flag.NArg() > 0 || o.trace < 0 || o.trace > 1 || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	// The benchmark is sized for a 2-core host: two pinned wall-clock
	// threads, two closed-loop clients.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return err
	}
	sz := fullSizes
	if o.quick {
		sz = quickSizes
		o.seconds = min(o.seconds, 0.3)
	}
	selected := workloads
	if o.workload != "" {
		selected = nil
		for _, w := range workloads {
			if w.Name == o.workload {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
	}
	say := func(format string, args ...any) {
		if !o.jsonOnly {
			fmt.Printf(format, args...)
		}
	}
	say("host %s/%s, %d CPUs, GOMAXPROCS %d, %s, seed %d\n",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.seed)
	if runtime.NumCPU() < wallP {
		say("fewer than %d CPUs: the wall-halo and wall-transpose timings are unresolved, read their counts only\n", wallP)
	}

	// Without this the twin-derived layer numbers could describe a
	// different program than the one measured.
	if err := selfCheck(o.seed, sz, selected); err != nil {
		return fmt.Errorf("selfcheck: %w", err)
	}
	say("selfcheck: twins match the programs they mirror; simulated statistics repeat exactly\n")
	if o.selfcheck {
		return nil
	}

	if o.aa {
		return runAA(o, sz, selected, say)
	}
	single := o.workload != ""
	results, err := runSuite(o, sz, selected, !single || o.trace == 0, !single || o.trace == 1, say)
	if err != nil {
		return err
	}
	failed := 0
	for _, r := range results {
		failed += r.Failed
	}
	// The last line of output is one JSON object.
	var last any = suiteSummary(o, results)
	if single {
		last = results[0].driverResult
	}
	if err := json.NewEncoder(os.Stdout).Encode(last); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed their reference check", failed)
	}
	return nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the object a single-workload run ends with.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type workloadResult struct {
	Name string `json:"-"`
	driverResult
}

// suiteSummary is the object a whole-suite run ends with.  claim is
// null: this program measures, it does not compare commits.
func suiteSummary(o options, results []workloadResult) map[string]any {
	byName := map[string]driverResult{}
	for _, r := range results {
		byName[r.Name] = r.driverResult
	}
	return map[string]any{
		"claim":      nil,
		"host":       runtime.GOOS + "/" + runtime.GOARCH,
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"seed":       o.seed,
		"seconds":    o.seconds,
		"quick":      o.quick,
		"workloads":  byName,
	}
}

func runSuite(o options, sz sizes, ws []workload, e2e, layers bool, say func(string, ...any)) ([]workloadResult, error) {
	var results []workloadResult
	for i, w := range ws {
		r := workloadResult{Name: w.Name}
		r.Metrics = map[string]metricValue{}
		say("\n== %s ==\n", w.Name)
		if e2e {
			if err := measureEndToEnd(w, o, sz, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			printMetrics(say, endToEndSpecs, r.Metrics)
		}
		if layers {
			if err := measureLayers(w, i+1, o, sz, &r, say); err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			printMetrics(say, perLayerSpecs, r.Metrics)
		}
		r.Correct = r.Failed == 0
		say("attempted %d ops, failed %d (fail ratio %.3g)\n", r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
		results = append(results, r)
	}
	return results, nil
}

func printMetrics(say func(string, ...any), specs []metricSpec, got map[string]metricValue) {
	for _, m := range specs {
		v, ok := got[m.Name]
		if !ok {
			continue
		}
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("  (%s is better, bound %.0f%%)", m.Better, 100*m.Bound)
		}
		say("  %-32s %14.6g %-6s%s\n", m.Name, v.Value, v.Unit, bound)
	}
}

// setupReps is how often an end-to-end run sets the workload up; the
// median is reported as setup_s and the last instance is measured.
const setupReps = 3

// measureEndToEnd sets the workload up, runs the untraced measured
// pass and fills in the end-to-end metrics.
func measureEndToEnd(w workload, o options, sz sizes, r *workloadResult) error {
	var inst instance
	var setupS []float64
	for k := 0; k < setupReps; k++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(o.seed, sz); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()
	s := timedPass(inst, budgetFor(o.seconds), nil)
	set := func(name string, v float64) { r.Metrics[name] = metricValue{v, specOf(endToEndSpecs, name).Unit} }
	set("op_p50_us", median(s.us))
	set("op_tail_us", tailOf(s.us))
	set("setup_s", median(setupS))
	r.Attempted += s.ops
	r.Failed += s.failed
	return nil
}

// timedPass runs one measured pass and records how long it took.
func timedPass(inst instance, b budget, tr *tracer) samples {
	t0 := time.Now()
	s := inst.measure(b, tr)
	s.wall = time.Since(t0).Seconds()
	return s
}

func specOf(specs []metricSpec, name string) metricSpec {
	for _, m := range specs {
		if m.Name == name {
			return m
		}
	}
	panic("benchmark: metric " + name + " is not declared in spec.go")
}

// measureLayers sets the workload up afresh and takes the per-layer
// metrics: a fixed number of ops untraced (exact counters, allocation
// and GC cost per op), the same number traced (spans; the difference
// between the two medians is the tracing overhead), the twin under
// spans, and the layer probes.  Fixed op counts make the counters
// repeat exactly; --seconds only caps the passes.
func measureLayers(w workload, pid int, o options, sz sizes, r *workloadResult, say func(string, ...any)) error {
	inst, err := w.setup(o.seed, sz)
	if err != nil {
		return err
	}
	defer inst.close()
	ops := sz.layerOps[w.Name]
	capAt := func() budget {
		b := budgetFor(o.seconds)
		b.maxSamples = ops
		return b
	}

	// MemStats are read outside the timed passes, the collector stays
	// at its default setting: users pay for GC.
	var before, after runtime.MemStats
	newsBefore, redistBefore := forall.PayloadPoolStats().News, darray.RedistBuilds()
	runtime.ReadMemStats(&before)
	plain := timedPass(inst, capAt(), nil)
	runtime.ReadMemStats(&after)
	news, redist := forall.PayloadPoolStats().News-newsBefore, darray.RedistBuilds()-redistBefore

	tr := newTracer()
	traced := timedPass(inst, capAt(), tr)
	twinBudget := capAt()
	twinBudget.maxSamples = max(ops/4, 1)
	inst.twin(twinBudget, tr)

	layer := map[string]float64{}
	n := float64(max(plain.ops, 1))
	layer["runtime.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / n
	layer["runtime.alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n
	layer["runtime.gc_cycles_per_op"] = float64(after.NumGC-before.NumGC) / n
	layer["runtime.gc_pause_us_per_op"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e3 / n
	layer["machine.msgs_per_op"] = float64(plain.msgs) / n
	layer["machine.bytes_per_op"] = float64(plain.bytes) / n
	layer["forall.builds_per_op"] = float64(plain.builds) / n
	layer["forall.shared_hits_per_op"] = float64(plain.sharedHits) / n
	layer["comm.pool_news_per_op"] = float64(news) / n
	layer["darray.redist_builds_per_op"] = float64(redist) / n
	layer["sim_total_s"] = plain.simTotal / n
	layer["ops_per_s"] = n / plain.wall
	if base := median(plain.us); base > 0 {
		layer["trace.overhead_pct"] = 100 * (median(traced.us) - base) / base
	}
	if err := runProbes(inst.probeShape(), o.scratch, layer); err != nil {
		return err
	}
	for _, m := range perLayerSpecs {
		v, ok := layer[m.Name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		r.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	r.Attempted += plain.ops + traced.ops
	r.Failed += plain.failed + traced.failed

	path := o.traceOut
	if path == "" {
		path = fmt.Sprintf("%s/trace-%s.json", o.scratch, w.Name)
	}
	if err := tr.write(path, pid, w.Name); err != nil {
		return err
	}
	say("traced pass: %d spans (%d dropped) written to %s\n", len(tr.spans), tr.dropped, path)
	say("  %-28s %8s %12s %12s\n", "span", "count", "median us", "self ms")
	for _, st := range tr.summarize() {
		say("  %-28s %8d %12.1f %12.2f\n", st.Name, st.Count, st.MedianUS, st.SelfMS)
	}
	return nil
}

// exactMetrics are the per-layer counts that must repeat between two
// runs of the same code and seed: exactly, except that simulated time
// is a float sum whose last bits depend on which of two concurrent
// tenants built a schedule and which adopted it.
var exactMetrics = []string{"sim_total_s", "machine.msgs_per_op", "machine.bytes_per_op", "forall.builds_per_op"}

const simTimeTol = 1e-9

// runAA runs the suite twice on the same binary and prints, per
// workload and end-to-end metric, both values, their relative
// difference and the bound: the evidence that the benchmark repeats
// within its own bounds.
func runAA(o options, sz sizes, ws []workload, say func(string, ...any)) error {
	quiet := func(string, ...any) {}
	var runs [2][]workloadResult
	for k := range runs {
		say("\nA/A run %d of 2\n", k+1)
		var err error
		if runs[k], err = runSuite(o, sz, ws, true, true, quiet); err != nil {
			return err
		}
	}
	var out []string
	say("\n%-16s %-14s %14s %14s %8s %7s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for i, a := range runs[0] {
		b := runs[1][i]
		for _, m := range endToEndSpecs {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			diff := 0.0
			if va != 0 {
				diff = (vb - va) / va
			}
			verdict := ""
			if diff > m.Bound || -diff > m.Bound {
				verdict = "  OUT OF BOUND"
				out = append(out, a.Name+"/"+m.Name)
			}
			say("%-16s %-14s %14.6g %14.6g %+7.1f%% %6.0f%%%s\n", a.Name, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
		for _, name := range exactMetrics {
			va, vb := a.Metrics[name].Value, b.Metrics[name].Value
			verdict := "exact"
			if math.Abs(va-vb) > simTimeTol*math.Abs(va) {
				verdict = "DIFFERS"
				out = append(out, a.Name+"/"+name)
			}
			say("%-16s %-22s %14.9g %14.9g  %s\n", a.Name, name, va, vb, verdict)
		}
		if a.Failed+b.Failed > 0 {
			out = append(out, a.Name+"/failed")
		}
	}
	sort.Strings(out)
	summary := map[string]any{"claim": nil, "aa_out_of_bound": out, "run1": suiteSummary(o, runs[0]), "run2": suiteSummary(o, runs[1])}
	if err := json.NewEncoder(os.Stdout).Encode(summary); err != nil {
		return err
	}
	if len(out) > 0 {
		return fmt.Errorf("A/A runs disagree beyond the bounds: %s", strings.Join(out, ", "))
	}
	return nil
}
