package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"kali/internal/mesh"
)

// Generators are functions of the seed alone.
func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"jacobi2d source": func(s int64) any { return jacobi2dSource(32, 4, saltOf(s)) },
		"tenant mix": func(s int64) any {
			var srcs []string
			m, rng := genTenantMix(s), clientRNG(s, 0)
			for k := 0; k < 50; k++ {
				srcs = append(srcs, m.draw(rng).src)
			}
			return srcs
		},
		"meshes": func(s int64) any {
			var adj [][]int
			for _, m := range genMeshes(s, 3, 12) {
				adj = append(adj, m.Adj)
			}
			return adj
		},
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
}

// The generated tenant programs agree with their plain-Go references
// when run by the code under test (one size per template).
func TestTenantReferencesMatchServer(t *testing.T) {
	srv, err := newTenantServer("")
	if err != nil {
		t.Fatal(err)
	}
	for tm := template(0); tm < numTemplates; tm++ {
		p := genTenantProgram(tm, 19, saltOf(3))
		res, err := srv.Run(p.src)
		if err != nil {
			t.Fatalf("template %d: %v", tm, err)
		}
		if !closeTo(res.Arrays[p.print], p.want) {
			t.Errorf("template %d: server result differs from the reference", tm)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	if beyond := tailChunk - 1 - rankOf(tailChunk, tailRank); beyond < minBeyond {
		t.Errorf("p%v of %d samples has only %d beyond it", tailRank, tailChunk, beyond)
	}
	up := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i%tailChunk + 1)
		}
		return xs
	}
	if got := tailOf(up(tailChunk - 1)); got != median(up(tailChunk-1)) {
		t.Errorf("too few samples for a tail: got %v, want the median", got)
	}
	// Three full chunks of 1..1100 and a remainder: each chunk's p99 is 1089.
	if got := tailOf(up(3*tailChunk + 500)); got != 1089 {
		t.Errorf("tailOf = %v, want 1089", got)
	}
	asc := up(100)
	if got := percentile(asc, 50); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50 (nearest rank)", got)
	}
	if got := percentile(asc, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
}

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and spec.go declare the same workloads and metrics,
// within the contract's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want only benchmark", b.Paths)
	}
	if len(b.Workloads) != len(workloads) || len(b.EndToEnd) != len(endToEndSpecs) || len(b.PerLayer) != len(perLayerSpecs) {
		t.Fatalf("BENCHMARK.json has %d/%d/%d workloads/end-to-end/per-layer entries, spec.go %d/%d/%d",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), len(workloads), len(endToEndSpecs), len(perLayerSpecs))
	}
	if len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("too many entries: %d workloads, %d end-to-end, %d per-layer", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if s := workloads[i]; w.Name != s.Name || w.Why != s.Why {
			t.Errorf("workload %d: BENCHMARK.json %q differs from spec.go %q", i, w.Name, s.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		if s := endToEndSpecs[i]; m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v differs from spec.go %+v", i, m, s)
		}
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q or bound %v outside the contract", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric in seconds, lower is better")
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		if s := perLayerSpecs[i]; m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v differs from spec.go %+v", i, m, s)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("per-layer %s: unit %q outside the contract", m.Name, m.Unit)
		}
	}
}

func metricNames(specs []metricSpec) []string {
	var names []string
	for _, m := range specs {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// A -quick run emits exactly the declared metrics: every workload the
// end-to-end ones, and (on the cheapest workload, traced) the
// per-layer ones, with a loadable trace file.
func TestQuickRunEmitsDeclaredMetrics(t *testing.T) {
	o := options{seed: 1, seconds: 0.05, scratch: t.TempDir(), quick: true}
	quiet := func(string, ...any) {}
	if err := selfCheck(o.seed, quickSizes, workloads); err != nil {
		t.Fatal(err)
	}
	results, err := runSuite(o, quickSizes, workloads, true, false, quiet)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(workloads) {
		t.Fatalf("%d workloads ran, %d declared", len(results), len(workloads))
	}
	emitted := func(r workloadResult) []string {
		var names []string
		for n, v := range r.Metrics {
			names = append(names, n)
			if v.Unit == "" {
				t.Errorf("%s/%s has no unit", r.Name, n)
			}
		}
		sort.Strings(names)
		return names
	}
	for i, r := range results {
		if r.Name != workloads[i].Name || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("workload %d: %s attempted %d failed %d", i, r.Name, r.Attempted, r.Failed)
		}
		if got, want := emitted(r), metricNames(endToEndSpecs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s emitted %v, declared %v", r.Name, got, want)
		}
		for n, v := range r.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s/%s = %v: end-to-end metrics must never be 0", r.Name, n, v.Value)
			}
		}
	}

	var traced []workload
	for _, w := range workloads {
		if w.Name == "wall-transpose" {
			traced = append(traced, w)
		}
	}
	results, err = runSuite(o, quickSizes, traced, false, true, quiet)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := emitted(results[0]), metricNames(perLayerSpecs); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run emitted %v, declared %v", got, want)
	}
	raw, err := os.ReadFile(filepath.Join(o.scratch, "trace-wall-transpose.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args map[string]int
		}
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace file does not load: %v", err)
	}
	if len(trace.TraceEvents) == 0 || trace.TraceEvents[0].Ph != "X" || trace.TraceEvents[0].Args == nil {
		t.Errorf("trace file has %d events, want complete events with op and parent", len(trace.TraceEvents))
	}
}

// A span's self time excludes what its children cover.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = append(tr.spans,
		span{name: "parent", start: 0, end: 1000_000, parent: -1},
		span{name: "child", start: 100_000, end: 400_000, parent: 0},
	)
	for _, s := range tr.summarize() {
		want := map[string]float64{"parent": 0.7, "child": 0.3}[s.Name]
		if d := s.SelfMS - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s self time %v ms, want %v", s.Name, s.SelfMS, want)
		}
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", 0, 0, -1)) // the untraced pass must be a no-op
}

// The hand-built in set of the probes is what the inspector's builder
// makes: sorted by (home, index), every recorded element findable.
func TestMeshInSetFindsEveryReference(t *testing.T) {
	in, refs := meshInSet(mesh.Unstructured(12, 12, true, 5), 1, 4)
	if len(refs) == 0 {
		t.Fatal("no nonlocal references on a shuffled mesh")
	}
	for _, r := range refs {
		if _, ok := in.Find(r[0], r[1]); !ok {
			t.Fatalf("element %v not found", r)
		}
	}
}
