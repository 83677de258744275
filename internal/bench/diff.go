package bench

import (
	"fmt"
	"math"
	"strings"
)

// This file implements the CI regression gate: a committed
// kalibench -json run (bench/baseline.json) is compared against a fresh
// run of the same experiments, and any cell of a column declared Gated
// — simulated times, overhead percentages, traffic, schedule memory,
// builds, hits, allocations — that differs from the baseline's by more
// than the column's own tolerance fails the build.  The gate is
// two-sided: a cell that got better beyond its tolerance fails too,
// so that the baseline is re-measured and guards the better value
// from then on.  The simulator is deterministic, so the tolerances
// absorb no run-to-run noise; regenerate the baseline (kalibench
// -quick -json > bench/baseline.json) when a change moves a gated
// cell on purpose.

// Regression is one baseline comparison failure: a gated cell that is
// worse than the baseline's by more than its column's tolerance, one
// that is better by more than it (Improved), or a structural mismatch
// between the baseline and the fresh run.
type Regression struct {
	Table, Row, Column string
	Base, Cur          float64
	// Improved marks a cell better than the baseline beyond tolerance:
	// the baseline is stale and must be re-measured.
	Improved bool
	// Structural describes a shape mismatch (a table, row or gated
	// column on one side only, different problem sizes); Base/Cur are
	// meaningless when it is non-empty.
	Structural string
}

func (r Regression) String() string {
	if r.Structural != "" {
		return fmt.Sprintf("%s: %s", r.Table, r.Structural)
	}
	s := fmt.Sprintf("%s [%s / %s]: %.4g -> %.4g", r.Table, r.Row, r.Column, r.Base, r.Cur)
	if r.Base != 0 && !math.IsNaN(r.Base) && !math.IsNaN(r.Cur) {
		s += fmt.Sprintf(" (%+.1f%%)", 100*(r.Cur/r.Base-1))
	}
	if r.Improved {
		s += ": better than the baseline beyond tolerance, re-measure the baseline"
	}
	return s
}

// drift reports whether cur is worse than base by more than the
// column's tolerance (or one of the two has no value where the other
// does), or better than base by more than it.
func (c Column) drift(base, cur float64) (worse, better bool) {
	if math.IsNaN(base) || math.IsNaN(cur) {
		return math.IsNaN(base) != math.IsNaN(cur), false
	}
	slack := c.Tol * math.Abs(base)
	if c.HigherIsBetter {
		return cur < base-slack, cur > base+slack
	}
	return cur > base+slack, cur < base-slack
}

// Compare checks a fresh run against the baseline.  The two must hold
// the same tables, sized alike, with the same rows (matched by their
// labels) and the same gated columns (matched by name; the fresh run's
// declaration decides what is gated and how); anything on one side
// only is a structural regression, since it is either lost coverage or
// a baseline that needs regenerating.  A gated cell fails in either
// direction: worse, or better, than the baseline beyond its tolerance.
func Compare(baseline, current []*Table) []Regression {
	curByID := map[string]*Table{}
	for _, t := range current {
		curByID[t.ID] = t
	}
	var regs []Regression
	for _, base := range baseline {
		cur, ok := curByID[base.ID]
		if !ok {
			regs = append(regs, Regression{Table: base.ID, Structural: "table missing from current run"})
			continue
		}
		delete(curByID, base.ID)
		// The notes embed the problem sizes (mesh, processors, quick vs
		// full), so comparing them catches a full-size run diffed
		// against a -quick baseline before the numbers mislead anyone.
		if strings.Join(cur.Notes, "\n") != strings.Join(base.Notes, "\n") {
			regs = append(regs, Regression{Table: base.ID,
				Structural: fmt.Sprintf("problem sizing changed (run modes differ?): %q vs baseline %q",
					strings.Join(cur.Notes, "; "), strings.Join(base.Notes, "; "))})
			continue
		}
		regs = append(regs, compareTable(base, cur)...)
	}
	for _, t := range current {
		if curByID[t.ID] != nil {
			regs = append(regs, Regression{Table: t.ID, Structural: "table not in the baseline (regenerate it)"})
		}
	}
	return regs
}

// compareTable compares two same-sized runs of one experiment.
func compareTable(base, cur *Table) (regs []Regression) {
	structural := func(format string, args ...any) {
		regs = append(regs, Regression{Table: cur.ID, Structural: fmt.Sprintf(format, args...)})
	}
	baseCol := map[string]int{}
	for i, c := range base.Columns {
		baseCol[c.Name] = i
	}
	curGated := map[string]bool{}
	for _, c := range cur.Columns {
		if !c.Gated {
			continue
		}
		curGated[c.Name] = true
		if _, ok := baseCol[c.Name]; !ok {
			structural("gated column %q not in the baseline (regenerate it)", c.Name)
		}
	}
	for _, c := range base.Columns {
		if c.Gated && !curGated[c.Name] {
			structural("gated column %q missing from current run", c.Name)
		}
	}
	baseRow := map[string]Row{}
	for _, r := range base.Rows {
		if len(r.Values) != len(base.Columns) {
			structural("baseline row %q has %d values for %d columns", r.Key(), len(r.Values), len(base.Columns))
			continue
		}
		baseRow[r.Key()] = r
	}
	for _, r := range cur.Rows {
		b, ok := baseRow[r.Key()]
		delete(baseRow, r.Key())
		switch {
		case len(r.Values) != len(cur.Columns):
			structural("row %q has %d values for %d columns", r.Key(), len(r.Values), len(cur.Columns))
			continue
		case !ok:
			structural("row %q not in the baseline (regenerate it)", r.Key())
			continue
		}
		for ci, c := range cur.Columns {
			bi, ok := baseCol[c.Name]
			if !c.Gated || !ok {
				continue
			}
			bv, cv := float64(b.Values[bi]), float64(r.Values[ci])
			if worse, better := c.drift(bv, cv); worse || better {
				regs = append(regs, Regression{Table: cur.ID, Row: r.Key(), Column: c.Name, Base: bv, Cur: cv, Improved: better})
			}
		}
	}
	for _, r := range base.Rows {
		if _, left := baseRow[r.Key()]; left {
			structural("row %q missing from current run", r.Key())
		}
	}
	return regs
}
