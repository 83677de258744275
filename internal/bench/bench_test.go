package bench

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"kali/internal/baseline"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/mesh"
	"kali/internal/relax"
)

// val returns row ri's value in the named column.
func val(t *testing.T, tab *Table, ri int, col string) float64 {
	t.Helper()
	for i, c := range tab.Columns {
		if c.Name == col {
			return float64(tab.Rows[ri].Values[i])
		}
	}
	t.Fatalf("table %s has no column %q", tab.ID, col)
	return 0
}

func TestRegistryComplete(t *testing.T) {
	if len(Order) != len(Registry) {
		t.Fatalf("Order has %d entries, Registry %d", len(Order), len(Registry))
	}
	for _, id := range Order {
		if Registry[id] == nil {
			t.Fatalf("missing generator %q", id)
		}
	}
}

func TestAllQuickTablesRender(t *testing.T) {
	for _, tab := range All(Options{Quick: true}) {
		out := tab.Render()
		if !strings.Contains(out, tab.ID) || len(tab.Rows) == 0 {
			t.Fatalf("table %s rendered badly:\n%s", tab.ID, out)
		}
		for _, row := range tab.Rows {
			if len(row.Labels) != len(tab.Labels) || len(row.Values) != len(tab.Columns) {
				t.Fatalf("table %s: row %q has %d labels and %d values for %d and %d columns",
					tab.ID, row.Key(), len(row.Labels), len(row.Values), len(tab.Labels), len(tab.Columns))
			}
		}
	}
}

// TestFig7QuickShape: executor time decreases with processors and
// overhead increases — the table's qualitative content.
func TestFig7QuickShape(t *testing.T) {
	tab := Fig7(Options{Quick: true})
	var prevExec, prevOvh float64
	for i := range tab.Rows {
		exec := val(t, tab, i, "executor")
		ovh := val(t, tab, i, "overhead")
		if i > 0 {
			if exec >= prevExec {
				t.Fatalf("executor did not shrink: %v", tab.Rows)
			}
			if ovh <= prevOvh {
				t.Fatalf("overhead did not grow: %v", tab.Rows)
			}
		}
		prevExec, prevOvh = exec, ovh
	}
}

// TestFig9QuickShape: overhead falls and speedup rises with size.
func TestFig9QuickShape(t *testing.T) {
	for _, gen := range []Generator{Fig9, Fig10} {
		tab := gen(Options{Quick: true})
		o0, o1 := val(t, tab, 0, "overhead"), val(t, tab, 1, "overhead")
		s0, s1 := val(t, tab, 0, "speedup"), val(t, tab, 1, "speedup")
		if o1 >= o0 {
			t.Fatalf("%s: overhead did not fall: %v", tab.ID, tab.Rows)
		}
		if s1 <= s0 {
			t.Fatalf("%s: speedup did not rise: %v", tab.ID, tab.Rows)
		}
	}
}

// TestWorstCaseQuickDominates: with a single sweep the inspector is a
// large fraction of total time.
func TestWorstCaseQuickDominates(t *testing.T) {
	tab := WorstCase(Options{Quick: true})
	for i, row := range tab.Rows {
		if ovh := val(t, tab, i, "overhead"); ovh < 10 {
			t.Fatalf("single-sweep overhead suspiciously low: %v", row)
		}
	}
}

// TestCachingQuickAmortizes: cached inspector time is constant in
// sweeps; no-cache scales with sweeps.
func TestCachingQuickAmortizes(t *testing.T) {
	tab := Caching(Options{Quick: true})
	last := len(tab.Rows) - 1
	c0, cN := val(t, tab, 0, "cached insp"), val(t, tab, last, "cached insp")
	n0, nN := val(t, tab, 0, "no-cache insp"), val(t, tab, last, "no-cache insp")
	if cN > c0*1.01 {
		t.Fatalf("cached inspector grew: %v", tab.Rows)
	}
	if nN < 3*n0 {
		t.Fatalf("no-cache inspector did not scale: %v", tab.Rows)
	}
}

// TestBaselineQuickNearParity: Kali within 2x of hand-coded and never
// faster.
func TestBaselineQuickNearParity(t *testing.T) {
	tab := Baseline(Options{Quick: true})
	for i, row := range tab.Rows {
		ratio := val(t, tab, i, "ratio")
		if ratio < 1.0 || ratio > 2.0 {
			t.Fatalf("implausible kali/hand ratio: %v", row)
		}
	}
}

// TestCompileVsRuntimeQuick: compile-time schedule cost must be far
// below the inspector's.
func TestCompileVsRuntimeQuick(t *testing.T) {
	tab := CompileVsRuntime(Options{Quick: true})
	ct, rt := val(t, tab, 0, "schedule time"), val(t, tab, 1, "schedule time")
	if ct >= rt {
		t.Fatalf("compile-time schedule cost %g not below run-time %g", ct, rt)
	}
}

// TestEnumerationQuickTradeoff: the Saltz-style executor is faster but
// stores a bigger schedule (ABL7).
func TestEnumerationQuickTradeoff(t *testing.T) {
	tab := Enumeration(Options{Quick: true})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	const search, enum = 0, 1
	if val(t, tab, enum, "executor time") >= val(t, tab, search, "executor time") {
		t.Fatalf("enumerated executor not faster: %v", tab.Rows)
	}
	if val(t, tab, enum, "schedule bytes/proc") <= val(t, tab, search, "schedule bytes/proc") {
		t.Fatalf("enumerated schedule not bigger: %v", tab.Rows)
	}
}

// TestCommVecQuick: the commvec acceptance criteria — cached replay is
// allocation-free, and the second identically-shaped loop shares the
// first loop's schedule instead of building its own at the same
// traffic per execution.
func TestCommVecQuick(t *testing.T) {
	tab := CommVec(Options{Quick: true})
	const coalesced, shared = 0, 1
	for i, row := range tab.Rows {
		if a := val(t, tab, i, "allocs/replay"); a != 0 {
			t.Fatalf("cached replay allocated (%g allocs/replay): %v", a, row)
		}
	}
	if val(t, tab, shared, "builds") != 1 || val(t, tab, shared, "shared hits") != 1 {
		t.Fatalf("two same-shaped loops should cost 1 build + 1 shared hit: %v", tab.Rows[shared])
	}
	for _, col := range []string{"msgs/exec", "bytes/exec"} {
		if val(t, tab, shared, col) != val(t, tab, coalesced, col) {
			t.Fatalf("the sharing loop moved different traffic per execution: %v", tab.Rows)
		}
	}
}

// TestCommVecCombinesPerPair: the message-combining claim, pinned
// structurally.  The two-array shift crosses each of the p-1 block
// boundaries in one direction with data of both arrays; combined, that
// is one message per communicating processor pair per execution — not
// arrays × pairs — carrying both arrays' boundary elements.
func TestCommVecCombinesPerPair(t *testing.T) {
	const n, p, reps = 256, 4, 5
	r := commVecRun(n, p, reps, machine.Ideal(), false)
	if pairs := float64(p - 1); r.msgsPerExec != pairs || r.bytesPerExec != pairs*2*8 {
		t.Fatalf("two-array shift on %d processors: %.1f msgs, %.0f bytes per execution; want %d msgs (one per pair), %d bytes (two elements each)",
			p, r.msgsPerExec, r.bytesPerExec, p-1, (p-1)*16)
	}
}

// TestDistChoiceQuickBlockWins: block is the fastest distribution for
// the stencil (ABL5).
func TestDistChoiceQuickBlockWins(t *testing.T) {
	tab := DistChoice(Options{Quick: true})
	block := val(t, tab, 0, "total")
	for i, row := range tab.Rows[1:] {
		if val(t, tab, i+1, "total") < block {
			t.Fatalf("distribution %s beat block: %v", row.Key(), tab.Rows)
		}
	}
}

// TestUnstructuredQuickCostsHigher: the 6-neighbor mesh costs more in
// every column, as the paper predicts, and the shuffled numbering
// costs yet more.
func TestUnstructuredQuickCostsHigher(t *testing.T) {
	tab := Unstructured(Options{Quick: true})
	for i := 0; i+2 < len(tab.Rows); i += 3 {
		rect, unst, shuf := i, i+1, i+2
		if val(t, tab, unst, "total") <= val(t, tab, rect, "total") {
			t.Fatalf("unstructured total not higher: %v", tab.Rows)
		}
		if val(t, tab, unst, "inspector") <= val(t, tab, rect, "inspector") {
			t.Fatalf("unstructured inspector not higher: %v", tab.Rows)
		}
		if val(t, tab, shuf, "total") <= val(t, tab, unst, "total") {
			t.Fatalf("shuffled total not higher than natural: %v", tab.Rows)
		}
	}
}

// TestQuickRowsSimulateEverySweep holds every relaxation-backed quick
// row to a direct relax.Run (or baseline.Run) of that row's
// configuration at the table's own sweep count, bit for bit: a table
// may not simulate a few sweeps and scale the rest, since per-sweep
// time is not stationary (relax.TestSweepTimeNotStationary).
func TestQuickRowsSimulateEverySweep(t *testing.T) {
	ncube, ipsc := machine.NCUBE7(), machine.IPSC2()
	rect16, rect32 := mesh.Rect(16, 16), mesh.Rect(32, 32)
	type cell struct {
		table, row, col string
		want            float64
	}
	var want []cell
	phases := func(table, row, executorCol string, r relax.Result) {
		want = append(want, cell{table, row, "total", r.Report.Total},
			cell{table, row, executorCol, r.Report.Executor}, cell{table, row, "inspector", r.Report.Inspector})
	}
	for _, f := range []struct {
		id     string
		params machine.Params
	}{{"fig7", ncube}, {"fig8", ipsc}} {
		for _, p := range []int{2, 4, 8} {
			r := relax.Run(relax.Options{Mesh: rect32, Sweeps: 100, P: p, Params: f.params})
			phases(f.id, fmt.Sprint(p), "executor", r)
		}
	}
	for _, f := range []struct {
		id     string
		params machine.Params
	}{{"fig9", ncube}, {"fig10", ipsc}} {
		for side, m := range map[int]*mesh.Mesh{16: rect16, 32: rect32} {
			row := fmt.Sprintf("%dx%d", side, side)
			r := relax.Run(relax.Options{Mesh: m, Sweeps: 100, P: 8, Params: f.params})
			seq := relax.Run(relax.Options{Mesh: m, Sweeps: 100, P: 1, Params: f.params})
			phases(f.id, row, "executor", r)
			want = append(want, cell{f.id, row, "speedup", seq.Report.Executor / r.Report.Total})
		}
	}
	for _, mc := range []struct {
		params machine.Params
		procs  []int
	}{{ncube, []int{2, 8}}, {ipsc, []int{2, 8}}} {
		for _, p := range mc.procs {
			r := relax.Run(relax.Options{Mesh: rect32, Sweeps: 1, P: p, Params: mc.params})
			row := fmt.Sprintf("%s / %d", mc.params.Name, p)
			want = append(want, cell{"worstcase", row, "total", r.Report.Total},
				cell{"worstcase", row, "inspector", r.Report.Inspector})
		}
	}
	for _, mk := range []struct {
		name string
		m    *mesh.Mesh
	}{
		{"rect", rect32},
		{"unstructured", mesh.Unstructured(32, 32, false, 0)},
		{"shuffled", mesh.Unstructured(32, 32, true, 1990)},
	} {
		r := relax.Run(relax.Options{Mesh: mk.m, Sweeps: 10, P: 4, Params: ncube})
		phases("unstructured", mk.name+" / 4", "executor", r)
	}
	for _, sw := range []int{1, 5} {
		cached := relax.Run(relax.Options{Mesh: rect32, Sweeps: sw, P: 4, Params: ncube})
		nocache := relax.Run(relax.Options{Mesh: rect32, Sweeps: sw, P: 4, Params: ncube, NoCache: true})
		want = append(want, cell{"caching", fmt.Sprint(sw), "cached insp", cached.Report.Inspector},
			cell{"caching", fmt.Sprint(sw), "no-cache insp", nocache.Report.Inspector})
	}
	for _, p := range []int{2, 4} {
		k := relax.Run(relax.Options{Mesh: rect32, Sweeps: 10, P: p, Params: ncube})
		h := baseline.Run(baseline.Options{NX: 32, NY: 32, Sweeps: 10, P: p, Params: ncube})
		want = append(want, cell{"baseline", fmt.Sprint(p), "kali total", k.Report.Total},
			cell{"baseline", fmt.Sprint(p), "hand total", h.Report.Total})
	}
	for _, d := range []struct {
		name string
		dim  dist.DimSpec
	}{
		{"block", dist.BlockDim()}, {"cyclic", dist.CyclicDim()},
		{"block_cyclic(64)", dist.BlockCyclicDim(64)}, {"block_cyclic(8)", dist.BlockCyclicDim(8)},
	} {
		r := relax.Run(relax.Options{Mesh: rect32, Sweeps: 10, P: 4, Params: ncube, Dist: d.dim})
		phases("distchoice", d.name, "executor", r)
	}
	for _, e := range []struct {
		name string
		enum bool
	}{{"kali (search)", false}, {"saltz (enumerate)", true}} {
		r := relax.Run(relax.Options{Mesh: rect32, Sweeps: 10, P: 4, Params: ncube, Enumerate: e.enum})
		phases("enumeration", e.name, "executor time", r)
	}
	for _, p := range []int{2, 4, 8, 16} {
		r := relax.Run(relax.Options{Mesh: rect16, Sweeps: 10, P: p, Params: ncube})
		phases("granularity", fmt.Sprint(p), "executor", r)
	}

	tables := map[string]*Table{}
	rowsSeen := map[string]map[string]bool{}
	for _, c := range want {
		tab := tables[c.table]
		if tab == nil {
			tab = Registry[c.table](Options{Quick: true})
			tables[c.table] = tab
			rowsSeen[c.table] = map[string]bool{}
		}
		ri := slices.IndexFunc(tab.Rows, func(r Row) bool { return r.Key() == c.row })
		if ri < 0 {
			t.Errorf("%s: no row %q", c.table, c.row)
			continue
		}
		rowsSeen[c.table][c.row] = true
		if got := val(t, tab, ri, c.col); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("%s [%s] %s = %v, a direct run gives %v", c.table, c.row, c.col, got, c.want)
		}
	}
	for id, tab := range tables {
		if len(rowsSeen[id]) != len(tab.Rows) {
			t.Errorf("%s: %d of %d rows checked", id, len(rowsSeen[id]), len(tab.Rows))
		}
	}
}
