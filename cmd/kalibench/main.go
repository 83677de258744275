// Command kalibench regenerates the paper's evaluation tables
// (Figures 7–10), the §4 text numbers, and the ablations docs/CLI.md
// lists under kalibench, printing the simulated values side by side
// with the published ones.  Every number it prints is determined by the
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
//	                           # exit 1 if a gated cell is worse, or
//	                           # better, by more than its column's
//	                           # tolerance
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"kali/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs passed in; it returns the
// exit status: 2 for a usage error, 1 for a failed run or regression.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kalibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "all", "experiment id (see -list) or 'all'")
	quick := fs.Bool("quick", false, "use shrunken problem sizes")
	asJSON := fs.Bool("json", false, "emit tables as JSON instead of text")
	list := fs.Bool("list", false, "list experiment ids and exit")
	diff := fs.String("diff", "", "baseline JSON file to compare this run against (CI regression gate)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, id := range bench.Order {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	// Load the baseline before generating anything, so a bad -diff path
	// fails immediately instead of after the whole suite has run.
	var baseline []*bench.Table
	if *diff != "" {
		raw, err := os.ReadFile(*diff)
		if err != nil {
			fmt.Fprintf(stderr, "kalibench: %v\n", err)
			return 1
		}
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fmt.Fprintf(stderr, "kalibench: bad baseline %s: %v\n", *diff, err)
			return 1
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
			fmt.Fprintf(stderr, "kalibench: unknown experiment %q (use -list)\n", *table)
			return 2
		}
		tables = []*bench.Table{gen(opt)}
	}

	if *diff != "" {
		regs := bench.Compare(baseline, tables)
		if len(regs) > 0 {
			fmt.Fprintf(stderr, "kalibench: %d regression(s) vs %s:\n", len(regs), *diff)
			for _, r := range regs {
				fmt.Fprintf(stderr, "  %s\n", r)
			}
			fmt.Fprintln(stderr, "if the change is intentional, regenerate the baseline:")
			fmt.Fprintln(stderr, "  go run ./cmd/kalibench -quick -json > bench/baseline.json")
			return 1
		}
		// Report on stderr so -json -diff can emit the artifact and
		// gate the costs in one suite run.
		fmt.Fprintf(stderr, "kalibench: %d table(s) no worse than %s\n", len(tables), *diff)
		if !*asJSON {
			return 0
		}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintf(stderr, "kalibench: %v\n", err)
			return 1
		}
		return 0
	}
	for _, t := range tables {
		fmt.Fprintln(stdout, t.Render())
	}
	return 0
}
