// Command kalibench regenerates the paper's evaluation tables
// (Figures 7–10), the §4 text numbers, and the ablations listed in
// DESIGN.md §4, printing the simulated values side by side with the
// published ones.  Every number it prints is determined by the
// simulator (predicted clocks and exact counts); host time is
// measured by benchmark/run.sh.
//
// Usage:
//
//	kalibench                  # every experiment, full size
//	kalibench -table fig7      # one experiment
//	kalibench -quick           # shrunken sizes (seconds, for smoke tests)
//	kalibench -json            # machine-readable output (CI artifacts)
//	kalibench -list            # show experiment ids
//	kalibench -quick -diff bench/baseline.json
//	                           # regression gate: rerun and compare
//	                           # against a committed -json baseline,
//	                           # exit 1 if a gated cell is worse by
//	                           # more than its column's tolerance
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"

	"kali/internal/bench"
)

func main() {
	table := flag.String("table", "all", "experiment id (see -list) or 'all'")
	quick := flag.Bool("quick", false, "use shrunken problem sizes")
	asJSON := flag.Bool("json", false, "emit tables as JSON instead of text")
	list := flag.Bool("list", false, "list experiment ids and exit")
	diff := flag.String("diff", "", "baseline JSON file to compare this run against (CI regression gate)")
	flag.Parse()

	if *list {
		for _, id := range bench.Order {
			fmt.Println(id)
		}
		return
	}

	// Load the baseline before generating anything, so a bad -diff path
	// fails immediately instead of after the whole suite has run.
	var baseline []*bench.Table
	if *diff != "" {
		raw, err := os.ReadFile(*diff)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kalibench: %v\n", err)
			os.Exit(1)
		}
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "kalibench: bad baseline %s: %v\n", *diff, err)
			os.Exit(1)
		}
		// Compare only what this invocation runs: with -table X the
		// unselected baseline entries are not missing, just not rerun
		// (and a selected table the baseline lacks fails the comparison).
		if *table != "all" {
			baseline = slices.DeleteFunc(baseline, func(b *bench.Table) bool { return b.ID != *table })
		}
	}

	opt := bench.Options{Quick: *quick}
	var tables []*bench.Table
	if *table == "all" {
		tables = bench.All(opt)
	} else {
		gen, ok := bench.Registry[*table]
		if !ok {
			fmt.Fprintf(os.Stderr, "kalibench: unknown experiment %q (use -list)\n", *table)
			os.Exit(2)
		}
		tables = []*bench.Table{gen(opt)}
	}

	if *diff != "" {
		regs := bench.Compare(baseline, tables)
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "kalibench: %d regression(s) vs %s:\n", len(regs), *diff)
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			fmt.Fprintln(os.Stderr, "if the change is intentional, regenerate the baseline:")
			fmt.Fprintln(os.Stderr, "  go run ./cmd/kalibench -quick -json > bench/baseline.json")
			os.Exit(1)
		}
		// Report on stderr so -json -diff can emit the artifact and
		// gate the costs in one suite run.
		fmt.Fprintf(os.Stderr, "kalibench: %d table(s) no worse than %s\n", len(tables), *diff)
		if !*asJSON {
			return
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintf(os.Stderr, "kalibench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, t := range tables {
		fmt.Println(t.Render())
	}
}
