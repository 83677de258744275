// Package bench regenerates every table and figure of the paper's
// evaluation (Figures 7–10 are tables; Figures 1–6 are program/code
// artifacts exercised elsewhere), plus the ablations docs/CLI.md
// lists.  Each generator returns a Table of typed columns carrying the
// values the simulated machines determine — the cost model's clocks
// and exact counts of messages, bytes, builds, hits and allocations —
// next to the paper's published values, so the output is a direct
// paper-vs-simulated comparison that repeats exactly and that Compare
// can gate in CI.  Host time is not measured here: that is the
// benchmark module's job (benchmark/run.sh).
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"kali/internal/analysis"
	"kali/internal/baseline"
	"kali/internal/core"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/mesh"
	"kali/internal/relax"
	"kali/internal/topology"
)

// Column declares one numeric column of a Table: what it measures, how
// Render prints it, and how the CI gate (Compare) treats it.
type Column struct {
	Name string
	// Unit is "s" (simulated seconds), "%", "bytes" or "count"; empty
	// for a plain ratio.
	Unit string `json:",omitempty"`
	// Prec is how many decimals Render prints.
	Prec int `json:",omitempty"`
	// Gated columns fail Compare when a cell is worse than the
	// baseline's by more than Tol, relative to the baseline; a Tol of 0
	// is exact.  Worse is larger, or smaller under HigherIsBetter.
	Gated          bool    `json:",omitempty"`
	Tol            float64 `json:",omitempty"`
	HigherIsBetter bool    `json:",omitempty"`
}

// simTol is the tolerance of simulated seconds and percentages: the
// simulator is deterministic, so it only has to absorb another
// platform's floating-point contraction, not run-to-run noise.
const simTol = 0.005

func simSec(name string, prec int) Column {
	return Column{Name: name, Unit: "s", Prec: prec, Gated: true, Tol: simTol}
}

func simPct(name string, prec int) Column {
	return Column{Name: name, Unit: "%", Prec: prec, Gated: true, Tol: simTol}
}

// exact is a gated count (messages, bytes, builds, allocations): any
// growth is a regression.
func exact(name, unit string, prec int) Column {
	return Column{Name: name, Unit: unit, Prec: prec, Gated: true}
}

// benefit is a gated count whose loss is the regression (cache hits).
func benefit(name, unit string, prec int) Column {
	return Column{Name: name, Unit: unit, Prec: prec, Gated: true, HigherIsBetter: true}
}

// info is a column the gate ignores: the paper's published constants
// and figures derived from gated ones.
func info(name, unit string, prec int) Column {
	return Column{Name: name, Unit: unit, Prec: prec}
}

// Value is one numeric cell; NaN (JSON null, rendered "-") where a row
// has nothing to report in a column.
type Value float64

var none = math.NaN()

func (v Value) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(v)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(v))
}

func (v *Value) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*v = Value(none)
		return nil
	}
	return json.Unmarshal(b, (*float64)(v))
}

// Row is one line of a Table: the labels that identify it (one per
// Table.Labels) and one Value per Table.Columns.
type Row struct {
	Labels []string
	Values []Value
}

// Key identifies the row within its table.
func (r Row) Key() string { return strings.Join(r.Labels, " / ") }

// Table is one experiment's results.
type Table struct {
	ID      string
	Title   string
	Labels  []string // headers of the label columns, which come first
	Columns []Column
	Rows    []Row
	Notes   []string
}

func (t *Table) add(labels []string, values ...float64) {
	row := Row{Labels: labels, Values: make([]Value, len(values))}
	for i, v := range values {
		row.Values[i] = Value(v)
	}
	t.Rows = append(t.Rows, row)
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	header := append([]string(nil), t.Labels...)
	for _, c := range t.Columns {
		header = append(header, c.Name)
	}
	lines := [][]string{header}
	for _, row := range t.Rows {
		cells := append([]string(nil), row.Labels...)
		for i, v := range row.Values {
			cells = append(cells, t.Columns[i].format(float64(v)))
		}
		lines = append(lines, cells)
	}
	widths := make([]int, len(header))
	for _, cells := range lines {
		for i, c := range cells {
			widths[i] = max(widths[i], len(c))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	for _, cells := range lines {
		for i, c := range cells {
			fmt.Fprintf(&b, "%*s  ", widths[i], c)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func (c Column) format(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	s := strconv.FormatFloat(v, 'f', c.Prec, 64)
	if c.Unit == "%" {
		s += "%"
	}
	return s
}

// Options controls experiment sizing.
type Options struct {
	// Quick shrinks problem sizes and processor counts so the whole
	// suite runs in seconds (used by tests); full sizes reproduce the
	// paper exactly.
	Quick bool
}

// Generator produces one experiment table.
type Generator func(Options) *Table

// Registry maps experiment ids (kalibench -list; docs/CLI.md describes
// each) to generators.
var Registry = map[string]Generator{
	"fig7":         Fig7,
	"fig8":         Fig8,
	"fig9":         Fig9,
	"fig10":        Fig10,
	"worstcase":    WorstCase,
	"unstructured": Unstructured,
	"caching":      Caching,
	"baseline":     Baseline,
	"ctvsrt":       CompileVsRuntime,
	"ctvsrt2d":     CompileVsRuntime2D,
	"distchoice":   DistChoice,
	"enumeration":  Enumeration,
	"enumerate2d":  Enumeration2D,
	"commvec":      CommVec,
	"redist":       Redist,
	"granularity":  Granularity,
	"backend":      Backend,
	"overlap":      Overlap,
	"tenants":      Tenants,
}

// Order lists the experiments in presentation order.
var Order = []string{
	"fig7", "fig8", "fig9", "fig10",
	"worstcase", "unstructured", "caching", "baseline", "ctvsrt", "ctvsrt2d",
	"distchoice", "enumeration", "enumerate2d", "commvec", "redist", "granularity",
	"backend", "overlap", "tenants",
}

const sweeps = 100

// paperFig7 holds the published NCUBE/7 table (Figure 7).
var paperFig7 = map[int][4]float64{ // P -> total, exec, insp, ovh%
	2: {246.07, 244.04, 2.03, 0.8}, 4: {127.46, 126.12, 1.34, 1.1},
	8: {68.38, 67.28, 1.10, 1.6}, 16: {38.95, 37.88, 1.07, 2.7},
	32: {24.36, 23.21, 1.15, 4.7}, 64: {17.71, 16.42, 1.29, 7.3},
	128: {12.64, 11.19, 1.45, 11.5},
}

// paperFig8 holds the published iPSC/2 table (Figure 8).
var paperFig8 = map[int][4]float64{
	2: {60.69, 60.34, 0.34, 0.56}, 4: {31.20, 31.02, 0.18, 0.57},
	8: {16.23, 16.13, 0.10, 0.60}, 16: {8.88, 8.82, 0.06, 0.64},
	32: {5.27, 5.23, 0.04, 0.70},
}

// paperFig9 holds Figure 9 (NCUBE/7, 128 procs, varying mesh):
// size -> total, exec, insp, ovh%, speedup.
var paperFig9 = map[int][5]float64{
	64: {4.97, 3.56, 1.38, 27.8, 23.9}, 128: {12.64, 11.19, 1.45, 11.5, 37.3},
	256: {34.13, 32.52, 1.61, 4.7, 55.2}, 512: {93.78, 91.68, 2.10, 2.2, 80.4},
	1024: {305.03, 301.31, 3.72, 1.2, 98.9},
}

// paperFig10 holds Figure 10 (iPSC/2, 32 procs, varying mesh).
var paperFig10 = map[int][5]float64{
	64: {1.88, 1.86, 0.02, 0.85, 15.7}, 128: {5.27, 5.23, 0.04, 0.70, 22.5},
	256: {17.65, 17.54, 0.11, 0.62, 26.8}, 512: {65.17, 64.79, 0.38, 0.58, 29.1},
	1024: {249.75, 248.34, 1.41, 0.56, 30.3},
}

// varyProcs renders a Figure 7/8-style table: fixed mesh, varying P.
func varyProcs(id, title string, params machine.Params, procs []int,
	side int, paper map[int][4]float64) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Labels: []string{"procs"},
		Columns: []Column{simSec("total", 2), simSec("executor", 2), simSec("inspector", 2), simPct("overhead", 1),
			info("paper total", "s", 2), info("paper insp", "s", 2), info("paper ovh", "%", 1)},
		Notes: []string{
			fmt.Sprintf("time in seconds for %d sweeps over a %dx%d mesh (simulated %s)",
				sweeps, side, side, params.Name),
		},
	}
	m := mesh.Rect(side, side)
	for _, p := range procs {
		r := relax.Run(relax.Options{Mesh: m, Sweeps: sweeps, P: p, Params: params})
		pv, ok := paper[p]
		if !ok {
			pv = [4]float64{none, none, none, none}
		}
		t.add([]string{fmt.Sprint(p)},
			r.Report.Total, r.Report.Executor, r.Report.Inspector, r.Report.OverheadPct(),
			pv[0], pv[2], pv[3])
	}
	return t
}

// Fig7 regenerates Figure 7: NCUBE/7, 128×128 mesh, varying processors.
func Fig7(opt Options) *Table {
	if opt.Quick {
		return varyProcs("fig7", "run-time analysis, varying processors (NCUBE/7)",
			machine.NCUBE7(), []int{2, 4, 8}, 32, nil)
	}
	return varyProcs("fig7", "run-time analysis, varying processors (NCUBE/7)",
		machine.NCUBE7(), []int{2, 4, 8, 16, 32, 64, 128}, 128, paperFig7)
}

// Fig8 regenerates Figure 8: iPSC/2, 128×128 mesh, varying processors.
func Fig8(opt Options) *Table {
	if opt.Quick {
		return varyProcs("fig8", "run-time analysis, varying processors (iPSC/2)",
			machine.IPSC2(), []int{2, 4, 8}, 32, nil)
	}
	return varyProcs("fig8", "run-time analysis, varying processors (iPSC/2)",
		machine.IPSC2(), []int{2, 4, 8, 16, 32}, 128, paperFig8)
}

// varySize renders a Figure 9/10-style table: fixed P, varying mesh.
func varySize(id, title string, params machine.Params, p int,
	sides []int, paper map[int][5]float64) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Labels: []string{"mesh"},
		Columns: []Column{simSec("total", 2), simSec("executor", 2), simSec("inspector", 2), simPct("overhead", 1),
			info("speedup", "", 1),
			info("paper total", "s", 2), info("paper ovh", "%", 1), info("paper speedup", "", 1)},
		Notes: []string{
			fmt.Sprintf("time in seconds for %d sweeps on %d processors (simulated %s); speedup vs 1-processor executor time",
				sweeps, p, params.Name),
		},
	}
	for _, side := range sides {
		m := mesh.Rect(side, side)
		r := relax.Run(relax.Options{Mesh: m, Sweeps: sweeps, P: p, Params: params})
		// The paper's speedup baseline: "the executor time on one processor".
		t1 := relax.Run(relax.Options{Mesh: m, Sweeps: sweeps, P: 1, Params: params}).Report.Executor
		pv, ok := paper[side]
		if !ok {
			pv = [5]float64{none, none, none, none, none}
		}
		t.add([]string{fmt.Sprintf("%dx%d", side, side)},
			r.Report.Total, r.Report.Executor, r.Report.Inspector, r.Report.OverheadPct(),
			t1/r.Report.Total,
			pv[0], pv[3], pv[4])
	}
	return t
}

// Fig9 regenerates Figure 9: NCUBE/7, 128 processors, varying mesh.
func Fig9(opt Options) *Table {
	if opt.Quick {
		return varySize("fig9", "run-time analysis, varying problem size (NCUBE/7)",
			machine.NCUBE7(), 8, []int{16, 32}, nil)
	}
	return varySize("fig9", "run-time analysis, varying problem size (NCUBE/7)",
		machine.NCUBE7(), 128, []int{64, 128, 256, 512, 1024}, paperFig9)
}

// Fig10 regenerates Figure 10: iPSC/2, 32 processors, varying mesh.
func Fig10(opt Options) *Table {
	if opt.Quick {
		return varySize("fig10", "run-time analysis, varying problem size (iPSC/2)",
			machine.IPSC2(), 8, []int{16, 32}, nil)
	}
	return varySize("fig10", "run-time analysis, varying problem size (iPSC/2)",
		machine.IPSC2(), 32, []int{64, 128, 256, 512, 1024}, paperFig10)
}

// WorstCase regenerates the §4 text numbers: inspector overhead when
// only ONE sweep is performed ("the worst case, where one performs
// only one sweep": NCUBE 45%→93%, iPSC 35%→41%).
func WorstCase(opt Options) *Table {
	side := 128
	ncubeP := []int{2, 128}
	ipscP := []int{2, 32}
	if opt.Quick {
		side, ncubeP, ipscP = 32, []int{2, 8}, []int{2, 8}
	}
	t := &Table{
		ID:     "worstcase",
		Title:  "single-sweep inspector overhead (paper §4 text)",
		Labels: []string{"machine", "procs"},
		Columns: []Column{simSec("total", 2), simSec("inspector", 2), simPct("overhead", 1),
			info("paper ovh", "%", 0)},
		Notes: []string{
			fmt.Sprintf("1 sweep over a %dx%d mesh; paper: NCUBE 45%%..93%%, iPSC 35%%..41%%", side, side),
		},
	}
	m := mesh.Rect(side, side)
	paper := map[string]map[int]float64{
		"NCUBE/7": {2: 45, 128: 93},
		"iPSC/2":  {2: 35, 32: 41},
	}
	for _, mc := range []struct {
		params machine.Params
		procs  []int
	}{{machine.NCUBE7(), ncubeP}, {machine.IPSC2(), ipscP}} {
		for _, p := range mc.procs {
			r := relax.Run(relax.Options{Mesh: m, Sweeps: 1, P: p, Params: mc.params})
			pv, ok := paper[mc.params.Name][p]
			if !ok {
				pv = none
			}
			t.add([]string{mc.params.Name, fmt.Sprint(p)},
				r.Report.Total, r.Report.Inspector, r.Report.OverheadPct(), pv)
		}
	}
	return t
}

// Unstructured regenerates the §4 discussion: on a true unstructured
// grid connectivity is ~6, so "all costs, execution, inspection, and
// communication, would be somewhat higher".  The table compares the
// rectangular and unstructured meshes at equal node counts.
func Unstructured(opt Options) *Table {
	side, procs := 128, []int{16, 64}
	sw := sweeps
	if opt.Quick {
		side, procs, sw = 32, []int{4}, 10
	}
	t := &Table{
		ID:     "unstructured",
		Title:  "rectangular vs unstructured mesh (TXT2)",
		Labels: []string{"mesh", "procs"},
		Columns: []Column{info("avg deg", "", 1),
			simSec("total", 2), simSec("executor", 2), simSec("inspector", 2), simPct("overhead", 1)},
		Notes: []string{
			"NCUBE/7; 'unstructured' = 6-neighbor triangular mesh in natural order (the paper's",
			"'somewhat higher' case); 'shuffled' destroys the numbering locality entirely",
		},
	}
	for _, p := range procs {
		for _, mk := range []struct {
			name string
			m    *mesh.Mesh
		}{
			{"rect", mesh.Rect(side, side)},
			{"unstructured", mesh.Unstructured(side, side, false, 0)},
			{"shuffled", mesh.Unstructured(side, side, true, 1990)},
		} {
			r := relax.Run(relax.Options{Mesh: mk.m, Sweeps: sw, P: p, Params: machine.NCUBE7()})
			t.add([]string{mk.name, fmt.Sprint(p)}, mk.m.AvgDegree(),
				r.Report.Total, r.Report.Executor, r.Report.Inspector, r.Report.OverheadPct())
		}
	}
	return t
}

// Caching regenerates ABL1: the paper's claim that saving the
// communication sets between forall executions amortizes the
// inspector.  Without caching the inspector runs every sweep.
func Caching(opt Options) *Table {
	side, p := 128, 16
	sweepCounts := []int{1, 10, 100}
	if opt.Quick {
		side, p, sweepCounts = 32, 4, []int{1, 5}
	}
	t := &Table{
		ID:     "caching",
		Title:  "schedule caching ablation (ABL1, paper §3.2)",
		Labels: []string{"sweeps"},
		Columns: []Column{simSec("cached insp", 2), simPct("cached ovh", 1),
			simSec("no-cache insp", 2), simPct("no-cache ovh", 1)},
		Notes: []string{
			fmt.Sprintf("NCUBE/7, %dx%d mesh, %d processors", side, side, p),
		},
	}
	m := mesh.Rect(side, side)
	for _, sw := range sweepCounts {
		cached := relax.Run(relax.Options{Mesh: m, Sweeps: sw, P: p, Params: machine.NCUBE7()})
		nocache := relax.Run(relax.Options{Mesh: m, Sweeps: sw, P: p, Params: machine.NCUBE7(), NoCache: true})
		t.add([]string{fmt.Sprint(sw)},
			cached.Report.Inspector, cached.Report.OverheadPct(),
			nocache.Report.Inspector, nocache.Report.OverheadPct())
	}
	return t
}

// Baseline regenerates ABL2: Kali-generated code vs hand-written
// message passing ("virtually identical" per §1; the residual gap is
// the search overhead of §4).
func Baseline(opt Options) *Table {
	side := 128
	procs := []int{2, 8, 32, 128}
	sw := sweeps
	if opt.Quick {
		side, procs, sw = 32, []int{2, 4}, 10
	}
	t := &Table{
		ID:      "baseline",
		Title:   "Kali vs hand-coded message passing (ABL2)",
		Labels:  []string{"procs"},
		Columns: []Column{simSec("kali total", 2), simSec("hand total", 2), info("ratio", "", 2)},
		Notes: []string{
			fmt.Sprintf("NCUBE/7, %dx%d mesh, %d sweeps; hand-coded has no inspector and no searches", side, side, sw),
		},
	}
	m := mesh.Rect(side, side)
	for _, p := range procs {
		k := relax.Run(relax.Options{Mesh: m, Sweeps: sw, P: p, Params: machine.NCUBE7()})
		h := baseline.Run(baseline.Options{NX: side, NY: side, Sweeps: sw, P: p, Params: machine.NCUBE7()})
		t.add([]string{fmt.Sprint(p)}, k.Report.Total, h.Report.Total, k.Report.Total/h.Report.Total)
	}
	return t
}

// CompileVsRuntime regenerates ABL3: for an affine loop (the Figure 1
// shift), compile-time analysis eliminates the inspector entirely.
func CompileVsRuntime(opt Options) *Table {
	n, p, reps := 1<<16, 16, 20
	if opt.Quick {
		n, p, reps = 1<<10, 4, 5
	}
	t := &Table{
		ID:      "ctvsrt",
		Title:   "compile-time vs run-time analysis on the Figure 1 shift (ABL3)",
		Labels:  []string{"path"},
		Columns: []Column{simSec("schedule time", 2), simSec("executor time", 2), simSec("total", 2)},
		Notes: []string{
			fmt.Sprintf("NCUBE/7, N=%d block-distributed, %d processors, %d executions", n, p, reps),
		},
	}
	for _, force := range []bool{false, true} {
		rep := core.Run(core.Config{P: p, Params: machine.NCUBE7()}, func(ctx *core.Context) {
			a := ctx.BlockArray("A", n)
			ctx.Eng.ForceInspector = force
			ctx.Eng.NoCache = true // isolate per-execution schedule cost
			loop := &forall.Loop{
				Name: "shift", Lo: 1, Hi: n - 1,
				On: a, OnF: analysis.Identity,
				Reads: []forall.ReadSpec{{Array: a, Affine: &analysis.Affine{A: 1, C: 1}}},
				Body: func(i int, e *forall.Env) {
					e.Write(a, i, e.Read(a, i+1))
				},
			}
			for r := 0; r < reps; r++ {
				ctx.Forall(loop)
			}
		})
		name := "compile-time"
		if force {
			name = "run-time inspector"
		}
		t.add([]string{name}, rep.Inspector, rep.Executor, rep.Total)
	}
	return t
}

// CompileVsRuntime2D is the ABL3 contrast in two dimensions: the
// five-point stencil on a 2-D processor grid has per-dimension affine
// subscripts, so the rank-2 closed forms replace the inspector pass
// and its global exchange entirely.
func CompileVsRuntime2D(opt Options) *Table {
	n, pr, pc, reps := 128, 4, 4, 5
	if opt.Quick {
		n, pr, pc, reps = 32, 2, 2, 3
	}
	t := &Table{
		ID:      "ctvsrt2d",
		Title:   "compile-time vs run-time analysis, 2-D five-point stencil",
		Labels:  []string{"path"},
		Columns: []Column{simSec("schedule time", 2), simSec("executor time", 2), simSec("total", 2)},
		Notes: []string{
			fmt.Sprintf("NCUBE/7, %dx%d [block,block] on a %dx%d grid, %d executions, no schedule cache", n, n, pr, pc, reps),
		},
	}
	for _, force := range []bool{false, true} {
		_, sched, exec, _ := run2D(n, pr, pc, reps, force, false, true)
		name := "compile-time"
		if force {
			name = "run-time inspector"
		}
		t.add([]string{name}, sched, exec, sched+exec)
	}
	return t
}

// Relax2DLoop builds the affine five-point-stencil Loop2 the 2-D
// compile-time-vs-inspector experiments share (a[i,j] from old's four
// neighbors, all per-dimension affine).
func Relax2DLoop(a, old *darray.Array, n int) *forall.Loop2 {
	return &forall.Loop2{
		Name: "relax2d", LoI: 2, HiI: n - 1, LoJ: 2, HiJ: n - 1,
		On: a,
		Reads: []forall.ReadSpec{
			{Array: old, Affine2: analysis.Shift2(-1, 0)}, {Array: old, Affine2: analysis.Shift2(1, 0)},
			{Array: old, Affine2: analysis.Shift2(0, -1)}, {Array: old, Affine2: analysis.Shift2(0, 1)},
		},
		Body: func(i, j int, e *forall.Env) {
			x := 0.25 * (e.ReadAt(old, i-1, j) + e.ReadAt(old, i+1, j) +
				e.ReadAt(old, i, j-1) + e.ReadAt(old, i, j+1))
			e.Flops(9)
			e.WriteAt(a, x, i, j)
		},
	}
}

// DistChoice regenerates ABL5: the §2.4 claim that distributions can
// be swapped by "trivial modification" — and that the choice is what
// performance hinges on.  Same program, same mesh, four distributions.
func DistChoice(opt Options) *Table {
	side, p, sw := 128, 16, sweeps
	if opt.Quick {
		side, p, sw = 32, 4, 10
	}
	t := &Table{
		ID:     "distchoice",
		Title:  "distribution choice on the same program (ABL5, paper §2.4)",
		Labels: []string{"distribution"},
		Columns: []Column{simSec("total", 2), simSec("executor", 2), simSec("inspector", 2),
			info("nonlocal iters", "count", 0)},
		Notes: []string{
			fmt.Sprintf("NCUBE/7, %dx%d mesh, %d sweeps, %d processors; the program text is identical", side, side, sw, p),
		},
	}
	m := mesh.Rect(side, side)
	blockish := (m.N + p - 1) / p
	for _, c := range []struct {
		name string
		opt  relax.Options
	}{
		{"block", relax.Options{Dist: dist.BlockDim()}},
		{"cyclic", relax.Options{Dist: dist.CyclicDim()}},
		{fmt.Sprintf("block_cyclic(%d)", blockish/4), relax.Options{Dist: dist.BlockCyclicDim(blockish / 4)}},
		{"block_cyclic(8)", relax.Options{Dist: dist.BlockCyclicDim(8)}},
	} {
		ro := c.opt
		ro.Mesh, ro.Sweeps, ro.P, ro.Params = m, sw, p, machine.NCUBE7()
		r := relax.Run(ro)
		t.add([]string{c.name}, r.Report.Total, r.Report.Executor, r.Report.Inspector,
			float64(r.NonlocalIters))
	}
	return t
}

// Enumeration regenerates ABL7: the paper's §5 comparison with Saltz
// et al., who "explicitly enumerate all array references (local and
// nonlocal) in a 'list'.  This eliminates the overhead of checking and
// searching for nonlocal references during the loop execution but
// requires more storage than our implementation."
func Enumeration(opt Options) *Table {
	side, p, sw := 128, 64, sweeps
	if opt.Quick {
		side, p, sw = 32, 4, 10
	}
	t := &Table{
		ID:     "enumeration",
		Title:  "range-search executor vs Saltz-style full enumeration (ABL7, paper §5)",
		Labels: []string{"executor"},
		Columns: []Column{simSec("total", 2), simSec("executor time", 2), simSec("inspector", 2),
			exact("schedule bytes/proc", "bytes", 0)},
		Notes: []string{
			fmt.Sprintf("NCUBE/7, %dx%d mesh, %d sweeps, %d processors", side, side, sw, p),
		},
	}
	m := mesh.Rect(side, side)
	for _, enum := range []bool{false, true} {
		name := "kali (search)"
		if enum {
			name = "saltz (enumerate)"
		}
		r := relax.Run(relax.Options{Mesh: m, Sweeps: sw, P: p, Params: machine.NCUBE7(), Enumerate: enum})
		t.add([]string{name}, r.Report.Total, r.Report.Executor, r.Report.Inspector,
			float64(r.ScheduleBytes))
	}
	return t
}

// Enumeration2D ports the §5 storage comparison to rank 2: the same
// five-point stencil Loop2 built all three ways the executor supports.
// The compile-time and inspector variants produce byte-identical
// range-record schedules (the property test pins this); the Saltz-
// style enumerated variant replays a per-reference list instead of
// searching, which is faster per sweep but needs strictly more
// schedule storage.
func Enumeration2D(opt Options) *Table {
	n, pr, pc, reps := 96, 4, 4, 5
	if opt.Quick {
		n, pr, pc, reps = 32, 2, 2, 3
	}
	t := &Table{
		ID:     "enumerate2d",
		Title:  "2-D executor variants: precomputed search vs Saltz enumeration (paper §5)",
		Labels: []string{"executor", "build"},
		Columns: []Column{simSec("schedule time", 2), simSec("executor time", 2),
			exact("schedule bytes/proc", "bytes", 0)},
		Notes: []string{
			fmt.Sprintf("NCUBE/7, %dx%d [block,block] on a %dx%d grid, %d executions, schedule cached after the first", n, n, pr, pc, reps),
		},
	}
	for _, v := range []struct {
		name        string
		force, enum bool
	}{
		{"kali (compile-time)", false, false},
		{"kali (inspector)", true, false},
		{"saltz (enumerate)", false, true},
	} {
		kind, sched, exec, mem := run2D(n, pr, pc, reps, v.force, v.enum, false)
		t.add([]string{v.name, kind.String()}, sched, exec, float64(mem))
	}
	return t
}

// run2D executes the shared stencil loop reps times on an n×n
// [block,block] array over a pr×pc NCUBE/7 grid with the chosen
// executor variant, and reports the first build's kind, the simulated
// schedule and executor times, and the worst per-node schedule bytes.
// With the schedule cache on, the build cost is paid once; with
// noCache every execution rebuilds, and no schedule is kept to
// measure, so mem is 0.
func run2D(n, pr, pc, reps int, forceInspector, enumerate, noCache bool) (kind forall.BuildKind, sched, exec float64, mem int) {
	g := topology.MustGrid(pr, pc)
	d := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g)
	mach := sim.MustNew(pr*pc, machine.NCUBE7())
	var mu sync.Mutex
	mach.Run(func(nd *machine.Node) {
		a := darray.New("a", d, nd)
		old := darray.New("old", d, nd)
		eng := forall.NewEngine(nd)
		eng.ForceInspector = forceInspector
		eng.NoCache = noCache
		loop := Relax2DLoop(a, old, n)
		loop.Enumerate = enumerate
		first := forall.BuildKind(0)
		for r := 0; r < reps; r++ {
			eng.Run2(loop)
			if r == 0 {
				first = eng.LastBuildKind()
			}
		}
		mu.Lock()
		kind = first
		if s := eng.Schedule2(loop.Name); s != nil && s.MemBytes() > mem {
			mem = s.MemBytes()
		}
		mu.Unlock()
	})
	return kind, mach.MaxPhase(forall.PhaseInspector), mach.MaxPhase(forall.PhaseExecutor), mem
}

// Granularity regenerates TXT3: §2.1's remark that the real estate
// agent "might use fewer processors to improve granularity".  On a
// small mesh, total time has a minimum at an intermediate processor
// count — beyond it, fixed per-processor costs (combine stages,
// boundary fractions) outweigh the shrinking compute.
func Granularity(opt Options) *Table {
	side := 32
	procs := []int{2, 4, 8, 16, 32, 64, 128}
	// A short run on a small mesh: the regime where granularity
	// matters and the log-P schedule-building cost can dominate.
	sw := 10
	if opt.Quick {
		side, procs = 16, []int{2, 4, 8, 16}
	}
	t := &Table{
		ID:      "granularity",
		Title:   "why the real estate agent may choose fewer processors (TXT3, §2.1)",
		Labels:  []string{"procs"},
		Columns: []Column{simSec("total", 2), simSec("executor", 2), simSec("inspector", 2)},
		Notes: []string{
			fmt.Sprintf("NCUBE/7, small %dx%d mesh, short run (%d sweeps): note the interior minimum", side, side, sw),
		},
	}
	m := mesh.Rect(side, side)
	for _, p := range procs {
		if p > m.N {
			continue
		}
		r := relax.Run(relax.Options{Mesh: m, Sweeps: sw, P: p, Params: machine.NCUBE7()})
		t.add([]string{fmt.Sprint(p)}, r.Report.Total, r.Report.Executor, r.Report.Inspector)
	}
	return t
}

// All renders every experiment in order.
func All(opt Options) []*Table {
	out := make([]*Table, 0, len(Order))
	for _, id := range Order {
		out = append(out, Registry[id](opt))
	}
	return out
}
