package bench

import (
	"strconv"
	"strings"
	"testing"

	"kali/internal/machine"
)

// parse pulls a float out of a rendered cell.
func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
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
			if len(row) != len(tab.Header) {
				t.Fatalf("table %s: row width %d != header %d", tab.ID, len(row), len(tab.Header))
			}
		}
	}
}

// TestFig7QuickShape: executor time decreases with processors and
// overhead increases — the table's qualitative content.
func TestFig7QuickShape(t *testing.T) {
	tab := Fig7(Options{Quick: true})
	var prevExec, prevOvh float64
	for i, row := range tab.Rows {
		exec := parse(t, row[2])
		ovh := parse(t, row[4])
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
		o0, o1 := parse(t, tab.Rows[0][4]), parse(t, tab.Rows[1][4])
		s0, s1 := parse(t, tab.Rows[0][5]), parse(t, tab.Rows[1][5])
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
	for _, row := range tab.Rows {
		if ovh := parse(t, row[4]); ovh < 10 {
			t.Fatalf("single-sweep overhead suspiciously low: %v", row)
		}
	}
}

// TestCachingQuickAmortizes: cached inspector time is constant in
// sweeps; no-cache scales with sweeps.
func TestCachingQuickAmortizes(t *testing.T) {
	tab := Caching(Options{Quick: true})
	c0 := parse(t, tab.Rows[0][1])
	cN := parse(t, tab.Rows[len(tab.Rows)-1][1])
	n0 := parse(t, tab.Rows[0][3])
	nN := parse(t, tab.Rows[len(tab.Rows)-1][3])
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
	for _, row := range tab.Rows {
		ratio := parse(t, row[3])
		if ratio < 1.0 || ratio > 2.0 {
			t.Fatalf("implausible kali/hand ratio: %v", row)
		}
	}
}

// TestCompileVsRuntimeQuick: compile-time schedule cost must be far
// below the inspector's.
func TestCompileVsRuntimeQuick(t *testing.T) {
	tab := CompileVsRuntime(Options{Quick: true})
	ct := parse(t, tab.Rows[0][1])
	rt := parse(t, tab.Rows[1][1])
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
	search, enum := tab.Rows[0], tab.Rows[1]
	if parse(t, enum[2]) >= parse(t, search[2]) {
		t.Fatalf("enumerated executor not faster: %v vs %v", enum, search)
	}
	if parse(t, enum[4]) <= parse(t, search[4]) {
		t.Fatalf("enumerated schedule not bigger: %v vs %v", enum, search)
	}
}

// TestCommVecQuick: the commvec acceptance criteria — cached replay is
// allocation-free, and the second identically-shaped loop shares the
// first loop's schedule instead of building its own at the same
// traffic per execution.
func TestCommVecQuick(t *testing.T) {
	tab := CommVec(Options{Quick: true})
	coalesced, shared := tab.Rows[0], tab.Rows[1]
	for _, row := range tab.Rows {
		if parse(t, row[5]) != 0 {
			t.Fatalf("cached replay allocated (%s allocs/replay): %v", row[5], row)
		}
	}
	if parse(t, shared[1]) != 1 || parse(t, shared[2]) != 1 {
		t.Fatalf("two same-shaped loops should cost 1 build + 1 shared hit: %v", shared)
	}
	if shared[3] != coalesced[3] || shared[4] != coalesced[4] {
		t.Fatalf("the sharing loop moved different traffic per execution: %v vs %v", shared, coalesced)
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

// TestLangVMQuick: the compiled-body acceptance criteria at quick size
// — no path's warm replay allocates (exact), and the bytecode VM keeps
// its lead over the tree walker (host-timed, so eight pairs per cell
// instead of the quick table's two).  The floors are set from 500 such
// tables on the 2-CPU development host, 300 of them beside a running
// `go test ./...`: the walker's ns/elem over the VM's was 1.43–20.9
// (median 3.9) on jacobi2d, 1.24–13.9 (3.6) on redblack2d and 0.88–5.8
// (1.8) on adi, whose per-element time is mostly what both paths share,
// two redistributions per sweep and an unkernelled inner `for`.  The
// parent's 3.8–11x came from the walker's per-iteration scope map
// (4–5 allocs/elem, ~550 ns/elem against ~120 now); the VM's ns/elem
// did not move.
func TestLangVMQuick(t *testing.T) {
	floor := map[string]float64{"jacobi2d": 1, "redblack2d": 1, "adi": 0.67}
	tab := langVM(32, 4, 20, 8)
	if len(tab.Rows) != 9 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	for i := 0; i+2 < len(tab.Rows); i += 3 {
		interp, vm, native := tab.Rows[i], tab.Rows[i+1], tab.Rows[i+2]
		if parse(t, interp[2]) < floor[vm[0]]*parse(t, vm[2]) {
			t.Fatalf("VM not %.2fx faster than walker: %v vs %v", floor[vm[0]], vm, interp)
		}
		if parse(t, interp[3]) != 0 || parse(t, vm[3]) != 0 || parse(t, native[3]) != 0 {
			t.Fatalf("warm replay allocated: %v / %v / %v", interp, vm, native)
		}
	}
}

// TestDistChoiceQuickBlockWins: block is the fastest distribution for
// the stencil (ABL5).
func TestDistChoiceQuickBlockWins(t *testing.T) {
	tab := DistChoice(Options{Quick: true})
	block := parse(t, tab.Rows[0][1])
	for _, row := range tab.Rows[1:] {
		if parse(t, row[1]) < block {
			t.Fatalf("distribution %s beat block: %v", row[0], tab.Rows)
		}
	}
}

// TestUnstructuredQuickCostsHigher: the 6-neighbor mesh costs more in
// every column, as the paper predicts, and the shuffled numbering
// costs yet more.
func TestUnstructuredQuickCostsHigher(t *testing.T) {
	tab := Unstructured(Options{Quick: true})
	for i := 0; i+2 < len(tab.Rows); i += 3 {
		rect, unst, shuf := tab.Rows[i], tab.Rows[i+1], tab.Rows[i+2]
		if parse(t, unst[3]) <= parse(t, rect[3]) {
			t.Fatalf("unstructured total not higher: %v vs %v", unst, rect)
		}
		if parse(t, unst[5]) <= parse(t, rect[5]) {
			t.Fatalf("unstructured inspector not higher: %v vs %v", unst, rect)
		}
		if parse(t, shuf[3]) <= parse(t, unst[3]) {
			t.Fatalf("shuffled total not higher than natural: %v vs %v", shuf, unst)
		}
	}
}
