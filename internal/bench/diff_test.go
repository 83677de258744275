package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// mkTable is a table with one label and one column of every kind the
// gate distinguishes; each row is a procs label and five values.
func mkTable(id string, rows ...[]float64) *Table {
	t := &Table{
		ID:     id,
		Labels: []string{"procs"},
		Columns: []Column{simSec("total", 2), simSec("inspector", 2), info("paper total", "s", 2),
			exact("schedule bytes/proc", "bytes", 0), benefit("plan hits", "count", 0)},
	}
	for _, r := range rows {
		t.add([]string{fmt.Sprint(r[0])}, r[1:]...)
	}
	return t
}

func TestCompareWithinToleranceAndImprovementsPass(t *testing.T) {
	base := []*Table{mkTable("x", []float64{4, 10.00, 1.00, 12.00, 4480, 8})}
	cur := []*Table{mkTable("x", []float64{4, 10.04, 0.996, 99.00, 4480, 8})}
	// +0.4% total is inside a simulated time's 0.5%, so is the
	// inspector's -0.4% improvement, and the paper column is exempt
	// however far it moves.
	if regs := Compare(base, cur); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

// TestCompareFlagsImprovementBeyondTolerance: the gate is two-sided.
// A simulated time that shrank by more than its tolerance, and an exact
// count or a benefit count that moved the good way at all, fail with a
// message to re-measure the baseline.
func TestCompareFlagsImprovementBeyondTolerance(t *testing.T) {
	base := []*Table{mkTable("x", []float64{4, 10.00, 1.00, 12.00, 4480, 8})}
	for _, c := range []struct {
		name   string
		row    []float64
		column string
	}{
		{"simSec", []float64{4, 10.00, 0.99, 12.00, 4480, 8}, "inspector"},
		{"exact", []float64{4, 10.00, 1.00, 12.00, 4479, 8}, "schedule bytes/proc"},
		{"benefit", []float64{4, 10.00, 1.00, 12.00, 4480, 9}, "plan hits"},
	} {
		regs := Compare(base, []*Table{mkTable("x", c.row)})
		if len(regs) != 1 || regs[0].Column != c.column || !regs[0].Improved {
			t.Errorf("%s: want one improved %q cell, got %v", c.name, c.column, regs)
			continue
		}
		if s := regs[0].String(); !strings.Contains(s, "re-measure the baseline") {
			t.Errorf("%s: message %q does not ask to re-measure the baseline", c.name, s)
		}
	}
}

func TestCompareFlagsCostGrowth(t *testing.T) {
	base := []*Table{mkTable("x", []float64{4, 10.00, 1.00, 12.00, 4480, 8})}
	cur := []*Table{mkTable("x", []float64{4, 11.00, 1.00, 12.00, 4481, 7})}
	// A count has no slack at all, and a benefit column regresses
	// downwards.
	regs := Compare(base, cur)
	if len(regs) != 3 {
		t.Fatalf("want 3 regressions (total, bytes, hits), got %v", regs)
	}
	if regs[0].Column != "total" || regs[1].Column != "schedule bytes/proc" || regs[2].Column != "plan hits" {
		t.Fatalf("wrong columns flagged: %v", regs)
	}
	if !strings.Contains(regs[0].String(), "10 -> 11 (+10.0%)") || !strings.Contains(regs[2].String(), "8 -> 7 (-12.5%)") {
		t.Fatalf("unhelpful messages: %v", regs)
	}
}

// TestCompareMatchesByName: columns are compared by name and rows by
// label, so a run that lists them in another order is the same run.
func TestCompareMatchesByName(t *testing.T) {
	base := []*Table{mkTable("x",
		[]float64{4, 10.00, 1.00, 12.00, 4480, 8},
		[]float64{8, 6.00, 2.00, 12.00, 2240, 16})}
	cur := []*Table{mkTable("x",
		[]float64{8, 2.00, 6.00, 12.00, 2240, 16},
		[]float64{4, 1.00, 10.00, 12.00, 4480, 8})}
	cols := cur[0].Columns
	cols[0], cols[1] = cols[1], cols[0] // inspector now comes first, as its values do
	if regs := Compare(base, cur); len(regs) != 0 {
		t.Fatalf("reordered rows and columns compared crosswise: %v", regs)
	}
	cur[0].Rows[1].Values[1] = 10.5 // total of the row labelled 4
	regs := Compare(base, cur)
	if len(regs) != 1 || regs[0].Row != "4" || regs[0].Column != "total" || regs[0].Base != 10 {
		t.Fatalf("want total of row 4 flagged against 10, got %v", regs)
	}
}

func TestCompareFlagsSizingMismatch(t *testing.T) {
	base := []*Table{mkTable("x", []float64{4, 1.00, 1.00, 0, 0, 0})}
	base[0].Notes = []string{"NCUBE/7, 32x32 mesh (quick)"}
	cur := []*Table{mkTable("x", []float64{4, 99.00, 9.00, 0, 0, 0})}
	cur[0].Notes = []string{"NCUBE/7, 128x128 mesh"}
	// A full-size run against a -quick baseline is a mode mismatch,
	// not dozens of cost regressions.
	regs := Compare(base, cur)
	if len(regs) != 1 || regs[0].Structural == "" {
		t.Fatalf("want one structural sizing mismatch, got %v", regs)
	}
	if !strings.Contains(regs[0].String(), "sizing") {
		t.Fatalf("unhelpful message: %s", regs[0])
	}
}

func TestCompareZeroBaseMessage(t *testing.T) {
	for _, r := range []Regression{
		{Table: "x", Row: "4", Column: "inspector", Base: 0, Cur: 0.02},
		{Table: "x", Row: "4", Column: "inspector", Base: none, Cur: 0.02},
	} {
		if s := r.String(); strings.Contains(s, "Inf") || strings.Contains(s, "%") {
			t.Fatalf("nonsense growth figure: %s", s)
		}
	}
}

func TestCompareStructuralMismatches(t *testing.T) {
	row4 := []float64{4, 1.00, 1.00, 0, 0, 0}
	row8 := []float64{8, 1.00, 1.00, 0, 0, 0}
	base := []*Table{
		mkTable("gone", row4),
		mkTable("shrunk", row4, row8),
		mkTable("relabelled", row4),
		mkTable("renamed", row4),
		mkTable("ungated", row4),
		mkTable("short", row4),
	}
	cur := []*Table{
		mkTable("shrunk", row4),
		mkTable("relabelled", row8),
		mkTable("renamed", row4),
		mkTable("ungated", row4),
		mkTable("short", row4),
		mkTable("brandnew", row4),
	}
	cur[2].Columns[0].Name = "sum"
	cur[3].Columns[3].Gated = false
	cur[4].Rows[0].Values = cur[4].Rows[0].Values[:3]
	want := map[string]int{
		"gone": 1, "shrunk": 1, "brandnew": 1,
		"relabelled": 2, // row 4 lost, row 8 not in the baseline
		"renamed":    2, // "total" lost, "sum" not in the baseline
		"ungated":    1, "short": 1,
	}
	got := map[string]int{}
	for _, r := range Compare(base, cur) {
		if r.Structural == "" {
			t.Errorf("expected structural flag: %v", r)
		}
		got[r.Table]++
	}
	for id, n := range want {
		if got[id] != n {
			t.Errorf("table %s: %d structural regressions, want %d", id, got[id], n)
		}
		delete(got, id)
	}
	if len(got) != 0 {
		t.Errorf("unexpected regressions for %v", got)
	}

	// A gated cell that lost its value is a regression of that cell.
	novalue := mkTable("shrunk", row4)
	novalue.Rows[0].Values[0] = Value(none)
	if regs := Compare(cur[:1], []*Table{novalue}); len(regs) != 1 || regs[0].Column != "total" {
		t.Errorf("want the valueless total flagged, got %v", regs)
	}
}

// TestCompareQuickRunAgainstItself: a fresh quick suite compared to
// another, read back from its JSON as the gate reads the baseline, is
// clean — the simulator is deterministic, so this is the exact
// invariant the CI gate relies on.
func TestCompareQuickRunAgainstItself(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick bench suite twice")
	}
	opt := Options{Quick: true}
	raw, err := json.Marshal(All(opt))
	if err != nil {
		t.Fatal(err)
	}
	var baseline []*Table
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	if regs := Compare(baseline, All(opt)); len(regs) != 0 {
		t.Fatalf("deterministic suite diffed against itself: %v", regs)
	}
}
