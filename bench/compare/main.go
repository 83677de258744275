// Command compare summarises the alternating parent/change runs that
// bench/compare.sh makes of benchmark/run.sh into one compact JSON
// document (bench/BENCH_<pr>.json): per workload and end-to-end metric
// of BENCHMARK.json the two sides' medians and quartiles, the pairs
// won and lost, a verdict, and every run's value; per workload every
// run's attempted ops, and a note on an op_tail_us row whose two sides
// measured different statistics (tailNote).  It times the host,
// not the paper's machines: the paper's own numbers (§4, Figures 7–10)
// are cmd/kalibench's.
//
// It reads one JSON object per line on standard input,
//
//	{"workload":W,"seed":S,"side":"parent"|"change","first":SIDE,"result":R}
//
// where R is the object a single-workload benchmark run ends with, and
// the metrics and their bounds from BENCHMARK.json in the working
// directory (the repository root, where compare.sh runs it).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// metricSpec is one end_to_end entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is one input line.
type run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Side     string `json:"side"`
	First    string `json:"first"`
	Result   struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// side is one commit's runs of one metric on one workload.
type side struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"` // in pair order
}

// row is one (workload, metric) comparison.
type row struct {
	Unit    string  `json:"unit"`
	Parent  side    `json:"parent"`
	Change  side    `json:"change"`
	Ratio   float64 `json:"change_over_parent"`
	Bound   float64 `json:"bound"`
	Wins    int     `json:"change_wins"`
	Losses  int     `json:"change_losses"`
	Verdict string  `json:"verdict"`
	Note    string  `json:"note,omitempty"`
}

// quantile interpolates linearly between the order statistics of the
// sorted sample, as the earlier hand-made BENCH files did.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func summarise(runs []float64) side {
	s := append([]float64(nil), runs...)
	sort.Float64s(s)
	return side{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), Runs: runs}
}

// Verdicts.  A difference is resolved when one side won at least nine
// tenths of the pairs (ties count for neither) and the medians differ
// by more than the distance between the parent's quartiles.
const (
	better     = "better"
	worse      = "worse, within the bound"
	within     = "no regression, within the bound"
	unresolved = "unresolved"
	regression = "regression"
)

// compare applies the rule to paired runs (parent[i] and change[i] ran
// back to back on one seed).  A change whose median is worse than the
// parent's by more than bound (a fraction of the parent's median) is a
// regression.  When no difference is resolved, what the runs say
// depends on the parent's own spread: with its quartiles no further
// apart than the bound a median inside the bound is no regression;
// with them further apart these runs cannot tell, and only that is
// unresolved.
func compare(parent, change []float64, lowerIsBetter bool, bound float64) row {
	r := row{Parent: summarise(parent), Change: summarise(change), Bound: bound}
	for i := range parent {
		switch d := change[i] - parent[i]; {
		case d == 0:
		case (d < 0) == lowerIsBetter:
			r.Wins++
		default:
			r.Losses++
		}
	}
	pm, cm := r.Parent.Median, r.Change.Median
	r.Ratio = cm / pm
	iqr := r.Parent.Q3 - r.Parent.Q1
	worsening := (cm - pm) / pm
	if !lowerIsBetter {
		worsening = -worsening
	}
	need := 0.9 * float64(len(parent))
	resolved := math.Abs(cm-pm) > iqr && (float64(r.Wins) >= need || float64(r.Losses) >= need)
	tight := iqr <= bound*pm
	switch {
	case worsening > bound && (resolved || tight):
		r.Verdict = regression
	case resolved && worsening < 0:
		r.Verdict = better
	case resolved:
		r.Verdict = worse
	case tight:
		r.Verdict = within
	default:
		r.Verdict = unresolved
	}
	return r
}

// pairUp returns the values of one metric for the seeds both sides
// ran, in seed order.
func pairUp(runs []run, metric string) (seeds []int64, parent, change []float64) {
	bySeed := map[int64]map[string]float64{}
	for _, r := range runs {
		m, ok := r.Result.Metrics[metric]
		if !ok {
			continue
		}
		if bySeed[r.Seed] == nil {
			bySeed[r.Seed] = map[string]float64{}
		}
		bySeed[r.Seed][r.Side] = m.Value
	}
	for seed, v := range bySeed {
		if len(v) == 2 {
			seeds = append(seeds, seed)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, seed := range seeds {
		parent = append(parent, bySeed[seed]["parent"])
		change = append(change, bySeed[seed]["change"])
	}
	return seeds, parent, change
}

// tailChunk is benchmark/stats.go's: a pass of fewer samples reports
// its median as op_tail_us, a longer one the median of the p99s of its
// chunks of tailChunk samples.  The benchmark is a module of its own
// that this command does not import; TestTailChunkIsTheBenchmarks reads
// the constant from its source.
const tailChunk = 1100

// attempted returns each side's attempted ops per run, for seeds in
// order.
func attempted(runs []run, seeds []int64) map[string][]int {
	out := map[string][]int{}
	for _, side := range []string{"parent", "change"} {
		for _, seed := range seeds {
			for _, r := range runs {
				if r.Seed == seed && r.Side == side {
					out[side] = append(out[side], r.Result.Attempted)
				}
			}
		}
	}
	return out
}

// tailNote flags an op_tail_us row whose two sides measured different
// statistics: on a workload whose every op is one sample, a side whose
// runs mostly attempted fewer than tailChunk ops reports its median as
// its tail.  A change that only raises throughput past the step turns
// its tail from a median into a p99.
func tailNote(att map[string][]int) string {
	short := func(ns []int) bool {
		below := 0
		for _, n := range ns {
			if n < tailChunk {
				below++
			}
		}
		return 2*below > len(ns)
	}
	switch p, c := short(att["parent"]), short(att["change"]); {
	case p && !c:
		return "parent tail is a median, change tail a p99"
	case !p && c:
		return "parent tail is a p99, change tail a median"
	}
	return ""
}

// failures is one side's failed operations over its attempted ones,
// with incorrect runs (an op differed from its oracle) counted apart.
func failures(runs []run, which string) string {
	failed, attempted, incorrect := 0, 0, 0
	for _, r := range runs {
		if r.Side != which {
			continue
		}
		failed += r.Result.Failed
		attempted += r.Result.Attempted
		if !r.Result.Correct {
			incorrect++
		}
	}
	s := fmt.Sprintf("%d/%d", failed, attempted)
	if incorrect > 0 {
		s += fmt.Sprintf(", %d incorrect run(s)", incorrect)
	}
	return s
}

func main() {
	parentRef := flag.String("parent", "", "parent commit")
	changeRef := flag.String("change", "", "description of the change's tree")
	flag.Parse()
	if err := report(os.Stdin, os.Stdout, "BENCHMARK.json", *parentRef, *changeRef); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
}

func report(in io.Reader, out io.Writer, specPath, parentRef, changeRef string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	if len(spec.EndToEnd) == 0 {
		return fmt.Errorf("%s declares no end_to_end metric", specPath)
	}
	byWorkload := map[string][]run{}
	sc := bufio.NewScanner(in)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("bad run line %q: %w", sc.Text(), err)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	if err := sc.Err(); err != nil {
		return err
	}

	// Every metric goes on one line, so the raw runs stay in the file
	// without making it thousands of lines long.  The document is
	// assembled in memory; the first marshalling error is kept.
	var doc bytes.Buffer
	line := func(indent, key string, v any, last bool) {
		b, merr := json.Marshal(v)
		if merr != nil && err == nil {
			err = fmt.Errorf("%s: %w", key, merr)
		}
		comma := ","
		if last {
			comma = ""
		}
		fmt.Fprintf(&doc, "%s%q: %s%s\n", indent, key, b, comma)
	}
	doc.WriteString("{\n")
	line(" ", "parent", parentRef, false)
	line(" ", "change", changeRef, false)
	line(" ", "host", fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()), false)
	line(" ", "method", "bench/compare.sh: parent and change exported to their own directories under .bench_build/compare, "+
		"`bash benchmark/run.sh --workload W --seed S --seconds 10 --trace 0` once per side and seed, "+
		"the side that runs first alternating from seed to seed; runs are listed in seed order", false)
	line(" ", "rule", "better / worse, within the bound: the difference is resolved, that is one side won at least nine tenths of the pairs "+
		"(ties for neither) and the medians differ by more than the distance between the parent's quartiles; "+
		"regression: the change's median is worse by more than the metric's bound, and the difference is resolved or the parent's quartiles "+
		"lie no further apart than the bound; no regression, within the bound: no difference resolved, the median no worse than the bound "+
		"and the parent's quartiles no further apart than it; unresolved: no difference resolved and the parent's quartiles further apart than the bound", false)
	doc.WriteString(" \"workloads\": {\n")
	var present []string
	for _, w := range spec.Workloads {
		if len(byWorkload[w.Name]) > 0 {
			present = append(present, w.Name)
		}
	}
	for wi, name := range present {
		runs := byWorkload[name]
		fmt.Fprintf(&doc, "  %q: {\n", name)
		seeds, _, _ := pairUp(runs, spec.EndToEnd[0].Name)
		att := attempted(runs, seeds)
		line("   ", "seeds", seeds, false)
		line("   ", "attempted", att, false)
		line("   ", "failed_over_attempted", map[string]string{"parent": failures(runs, "parent"), "change": failures(runs, "change")}, false)
		for mi, m := range spec.EndToEnd {
			_, parent, change := pairUp(runs, m.Name)
			if len(parent) == 0 {
				return fmt.Errorf("%s: no complete pair reports %s", name, m.Name)
			}
			r := compare(parent, change, m.Better == "lower", m.Bound)
			r.Unit = m.Unit
			if m.Name == "op_tail_us" {
				r.Note = tailNote(att)
			}
			line("   ", m.Name, r, mi == len(spec.EndToEnd)-1)
		}
		if wi == len(present)-1 {
			doc.WriteString("  }\n")
		} else {
			doc.WriteString("  },\n")
		}
	}
	doc.WriteString(" }\n}\n")
	if err != nil {
		return err
	}
	_, err = out.Write(doc.Bytes())
	return err
}
