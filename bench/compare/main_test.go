package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// scaled returns xs multiplied by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestVerdictRule(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	// Two host states, as in BENCH_17: the quartiles lie 30% apart.
	bimodal := []float64{130, 131, 129, 130, 132, 100, 101, 99, 100, 102}
	for _, c := range []struct {
		name           string
		parent, change []float64
		lower          bool
		want           string
		wins, losses   int
	}{
		{"ten of ten won, beyond the quartiles", tight, scaled(tight, 0.8), true, better, 10, 0},
		{"ten of ten won, inside the parent's quartiles", bimodal, scaled(bimodal, 0.8), true, unresolved, 10, 0},
		{"eight of ten won", tight, []float64{80, 80, 80, 80, 80, 80, 80, 80, 110, 110}, true, within, 8, 2},
		{"nine won and a tie", tight, []float64{80, 80, 80, 80, 102, 80, 80, 80, 80, 80}, true, better, 9, 0},
		{"identical", tight, tight, true, within, 0, 0},
		{"identical, parent's spread wider than the bound", bimodal, bimodal, true, unresolved, 0, 0},
		// BENCH_18's stencil-vm: the same code on both sides, medians 8% apart.
		{"pairs mixed, median a twelfth worse, spread within the bound", tight,
			[]float64{96, 109, 107, 108, 110, 90, 108, 109, 95, 108}, true, within, 3, 7},
		{"ten of ten lost by a tenth", tight, scaled(tight, 1.1), true, worse, 0, 10},
		{"beyond the bound", tight, scaled(tight, 1.3), true, regression, 0, 10},
		{"median beyond the bound, pairs mixed, spread within it", tight,
			[]float64{130, 131, 129, 130, 132, 128, 90, 90, 90, 90}, true, regression, 4, 6},
		{"median beyond the bound, pairs mixed, parent's spread wider than it", bimodal,
			[]float64{160, 90, 160, 90, 160, 160, 160, 90, 160, 160}, true, unresolved, 3, 7},
		{"higher is better: gained", tight, scaled(tight, 1.2), false, better, 10, 0},
		{"higher is better: lost beyond the bound", tight, scaled(tight, 0.7), false, regression, 0, 10},
	} {
		r := compare(c.parent, c.change, c.lower, 0.25)
		if r.Verdict != c.want || r.Wins != c.wins || r.Losses != c.losses {
			t.Errorf("%s: %q with %d won, %d lost; want %q, %d, %d", c.name, r.Verdict, r.Wins, r.Losses, c.want, c.wins, c.losses)
		}
	}
}

func TestQuartilesInterpolate(t *testing.T) {
	s := summarise([]float64{4, 1, 3, 2})
	if s.Q1 != 1.75 || s.Median != 2.5 || s.Q3 != 3.25 || s.Runs[0] != 4 {
		t.Errorf("got %+v; want quartiles 1.75 / 2.5 / 3.25 and the runs in their given order", s)
	}
}

// TestReport: runs are paired by seed whatever order they arrive in, a
// seed only one side ran is left out, and the document is valid JSON
// with one line per metric.
func TestReport(t *testing.T) {
	var in strings.Builder
	for seed := 5; seed >= 1; seed-- {
		for _, side := range []string{"change", "parent"} {
			if seed == 5 && side == "change" {
				continue
			}
			v := 100 + seed
			if side == "change" {
				v -= 50
			}
			fmt.Fprintf(&in, `{"workload":"wall-halo","seed":%d,"side":%q,"first":"parent","result":{"correct":true,"attempted":10,"failed":%d,"metrics":{"op_p50_us":{"value":%d,"unit":"us"},"op_tail_us":{"value":%d,"unit":"us"},"setup_s":{"value":1,"unit":"s"}}}}`+"\n",
				seed, side, seed%2, v, 2*v)
		}
	}
	var out bytes.Buffer
	if err := report(strings.NewReader(in.String()), &out, "../../BENCHMARK.json", "abc", "working tree"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads map[string]map[string]json.RawMessage `json:"workloads"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	wl := doc.Workloads["wall-halo"]
	var p50 row
	if err := json.Unmarshal(wl["op_p50_us"], &p50); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(p50.Parent.Runs) != "[101 102 103 104]" || fmt.Sprint(p50.Change.Runs) != "[51 52 53 54]" || p50.Verdict != better {
		t.Errorf("op_p50_us: %+v", p50)
	}
	if string(wl["seeds"]) != "[1,2,3,4]" || !strings.Contains(string(wl["failed_over_attempted"]), `"parent":"3/50"`) {
		t.Errorf("seeds %s, failures %s", wl["seeds"], wl["failed_over_attempted"])
	}
	if string(wl["attempted"]) != `{"change":[10,10,10,10],"parent":[10,10,10,10]}` {
		t.Errorf("attempted %s", wl["attempted"])
	}
	if n := strings.Count(out.String(), "\n"); n > 20 {
		t.Errorf("%d lines for one workload:\n%s", n, out.String())
	}
}

// TestTailNote: an op_tail_us row is flagged when most of one side's
// runs fall below the benchmark's tailChunk samples and most of the
// other's do not — the tail of the first is its median — and only then.
func TestTailNote(t *testing.T) {
	for _, c := range []struct {
		parent, change []int
		want           string
	}{
		{[]int{990, 1130, 1020}, []int{1460, 1660, 1500}, "parent tail is a median, change tail a p99"},
		{[]int{1460, 1660, 1500}, []int{990, 1130, 1020}, "parent tail is a p99, change tail a median"},
		{[]int{990, 1000, 1020}, []int{1050, 1090, 1099}, ""},
		{[]int{14_000_000, 15_000_000}, []int{15_000_000, 14_000_000}, ""},
	} {
		if got := tailNote(map[string][]int{"parent": c.parent, "change": c.change}); got != c.want {
			t.Errorf("parent %v, change %v: note %q, want %q", c.parent, c.change, got, c.want)
		}
	}
}

// TestTailChunkIsTheBenchmarks: tailChunk is the constant of that name
// in benchmark/stats.go, read from its source, so that the two cannot
// drift apart.
func TestTailChunkIsTheBenchmarks(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "../../benchmark/stats.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for k, name := range vs.Names {
			if name.Name != "tailChunk" || k >= len(vs.Values) {
				continue
			}
			found = true
			lit, ok := vs.Values[k].(*ast.BasicLit)
			if !ok {
				t.Errorf("benchmark/stats.go: tailChunk is no literal")
				continue
			}
			if v, err := strconv.Atoi(strings.ReplaceAll(lit.Value, "_", "")); err != nil || v != tailChunk {
				t.Errorf("benchmark/stats.go: tailChunk = %s, bench/compare has %d", lit.Value, tailChunk)
			}
		}
		return false
	})
	if !found {
		t.Error("benchmark/stats.go declares no tailChunk")
	}
}
