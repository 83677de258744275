// Kalilang compiles and runs the paper's Figure 4 program written in
// the Kali *language* (internal/lang/testdata/relax.kali), demonstrating
// the full front-end pipeline: parse → subscript classification →
// SPMD interpretation with the inspector/executor runtime underneath.
//
//	go run ./examples/kalilang [-machine ncube] [-p 16]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"kali/internal/core"
	"kali/internal/lang"
	"kali/internal/machine"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs passed in; it returns the
// exit status: 2 for a usage error, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kalilang", flag.ContinueOnError)
	fs.SetOutput(stderr)
	machineName := fs.String("machine", "ncube", "cost model: ncube, ipsc, ideal")
	procs := fs.Int("p", 16, "available processors")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	params, ok := machine.ByName(*machineName)
	if !ok {
		fmt.Fprintf(stderr, "unknown machine %q\n", *machineName)
		return 2
	}

	src, err := os.ReadFile(sourcePath())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	prog, err := lang.Compile(string(src))
	if err != nil {
		fmt.Fprintln(stderr, "compile:", err)
		return 1
	}
	fmt.Fprintln(stdout, "compiled relax.kali: the old_a[adj[i,j]] reference is data-dependent,")
	fmt.Fprintln(stdout, "so the relaxation forall is lowered to the run-time inspector; the")
	fmt.Fprintln(stdout, "copy forall is affine and uses compile-time analysis.")

	res, err := prog.Run(core.Config{P: *procs, Params: params})
	if err != nil {
		fmt.Fprintln(stderr, "run:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nmachine %s, processors %d\n", params.Name, res.P)
	fmt.Fprintf(stdout, "total %.3fs  executor %.3fs  inspector %.3fs  (overhead %.1f%%)\n",
		res.Report.Total, res.Report.Executor, res.Report.Inspector,
		res.Report.OverheadPct())
	fmt.Fprintf(stdout, "final convergence delta: %.6f\n", res.Scalars["delta"])
	return 0
}

// sourcePath locates relax.kali, the language package's copy of
// Figure 4, relative to this source file so the example runs from any
// working directory.
func sourcePath() string {
	rel := filepath.Join("..", "..", "internal", "lang", "testdata", "relax.kali")
	if _, file, _, ok := runtime.Caller(0); ok {
		return filepath.Join(filepath.Dir(file), rel)
	}
	return rel
}
