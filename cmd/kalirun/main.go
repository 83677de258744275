// Command kalirun compiles and executes a Kali-language program on a
// simulated or real distributed-memory machine.
//
// Usage:
//
//	kalirun [-machine ncube|ipsc|ideal] [-backend sim|wall] [-p N] [-ref] [-print name,...] [-stats] prog.kali
//
// -backend sim (default) runs on the virtual-clock simulator: times
// are deterministic cost-model predictions for the chosen -machine.
// -backend wall runs the same compiled schedules on real OS threads
// with shared-memory message queues: times are measured wall-clock
// seconds (and -machine only labels the report).
//
// Foralls run on the production executor: sends are posted nonblocking
// before the interior iterations and the boundary pass drains receives
// as they complete, so communication overlaps computation; runs of
// adjacent loops whose reads are untouched by the earlier loops' writes
// post one combined message per processor pair up front and pipeline
// their boundary passes.  -ref runs every loop through the reference
// executor instead — the paper's Figure 3 literally: per loop, blocking
// sends, fixed-order receives — same results and bytes, never fewer
// messages, never less simulated time.  It is a differential oracle,
// not a mode to run in.
//
// The program's processors declaration (the "real estate agent") may
// choose fewer processors than -p provides.  After execution the
// timing report is printed, plus the final contents of any arrays
// named with -print.  -stats adds the message/traffic breakdown,
// separating redistribute-statement traffic (and its phase time) from
// the forall phases, how many interior and how many boundary
// iterations ran by row segments and column-wise, and how many
// schedules were built, adopted from the content-addressed store and
// evicted from it.
//
// -serve addr starts the multi-tenant schedule server instead of
// running one program:
//
//	kalirun -serve :8080 [-pool N] [-cachedir DIR] [-p N] [-machine ...]
//
// POST a .kali program to /run (optionally ?print=a,b) to execute it
// on a pool of -pool machines sharing one schedule store; the compact
// JSON response carries the report including schedule-sharing counters.
// GET /stats snapshots the store and pool counters.  -cachedir
// persists compiled schedules so a restarted server warm-starts.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"kali/internal/core"
	"kali/internal/lang"
	"kali/internal/machine"
	"kali/internal/server"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// modeOnly lists the flags that apply to one of the two modes only;
// setting one in the other mode is a usage error rather than a flag
// silently ignored.
var modeOnly = map[string]bool{ // flag -> needs -serve
	"ref": false, "print": false, "stats": false,
	"pool": true, "cachedir": true,
}

// run is main with its inputs and outputs passed in; it returns the
// exit status: 2 for a usage error, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kalirun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	machineName := fs.String("machine", "ncube", "cost model: ncube, ipsc, ideal")
	backend := fs.String("backend", "sim", "node runtime: sim (virtual clock) or wall (real threads)")
	procs := fs.Int("p", 8, "available processors")
	printArrays := fs.String("print", "", "comma-separated array/scalar names to print")
	stats := fs.Bool("stats", false, "print the traffic breakdown (forall vs redistribution), the body paths interior and boundary iterations took, and the schedules built, adopted and evicted")
	ref := fs.Bool("ref", false, "oracle: run foralls on the reference executor (per loop, blocking, Figure 3 literally) instead of the production one")
	serve := fs.String("serve", "", "serve HTTP on this address (e.g. :8080) instead of running one program")
	poolSize := fs.Int("pool", 4, "with -serve: number of pooled machines (max concurrent tenants)")
	cacheDir := fs.String("cachedir", "", "with -serve: persist compiled schedules here for warm starts")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "kalirun: "+format+"\n", a...)
		return 2
	}

	// Every flag is validated before the modes part ways.
	serving := *serve != ""
	params, ok := machine.ByName(*machineName)
	if !ok {
		return usage("unknown machine %q", *machineName)
	}
	switch *backend {
	case "sim", "wall", "wallclock":
	default:
		return usage("unknown backend %q (want sim or wall)", *backend)
	}
	misplaced := ""
	fs.Visit(func(f *flag.Flag) {
		if needsServe, ok := modeOnly[f.Name]; ok && needsServe != serving && misplaced == "" {
			misplaced = f.Name
		}
	})
	switch {
	case misplaced != "" && serving:
		return usage("-%s does not apply with -serve", misplaced)
	case misplaced != "":
		return usage("-%s applies only with -serve", misplaced)
	case serving && fs.NArg() != 0:
		return usage("-serve takes no program (usage: kalirun -serve addr [flags])")
	case !serving && fs.NArg() != 1:
		return usage("need exactly one program (usage: kalirun [flags] prog.kali)")
	}

	if serving {
		srv, err := server.New(server.Config{
			P:        *procs,
			Machines: *poolSize,
			Params:   params,
			Backend:  *backend,
			CacheDir: *cacheDir,
		})
		if err != nil {
			fmt.Fprintln(stderr, "kalirun:", err)
			return 1
		}
		fmt.Fprintf(stdout, "kalirun: serving on %s (pool %d × P=%d %s/%s)\n",
			*serve, *poolSize, *procs, params.Name, *backend)
		if err := httpServer(*serve, srv.Handler()).ListenAndServe(); err != nil {
			fmt.Fprintln(stderr, "kalirun:", err)
			return 1
		}
		return 0
	}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "kalirun:", err)
		return 1
	}
	prog, err := lang.Compile(string(src))
	if err != nil {
		fmt.Fprintf(stderr, "kalirun: %s: %v\n", fs.Arg(0), err)
		return 1
	}
	names := strings.Split(*printArrays, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	res, err := prog.Run(core.Config{P: *procs, Params: params, Backend: *backend, Reference: *ref}, names...)
	if err != nil {
		fmt.Fprintln(stderr, "kalirun:", err)
		return 1
	}

	fmt.Fprintf(stdout, "machine: %s, backend: %s, processors chosen: %d\n",
		params.Name, res.Report.Backend, res.P)
	fmt.Fprintf(stdout, "total %.4fs  executor %.4fs  inspector %.4fs  (overhead %.1f%%)\n",
		res.Report.Total, res.Report.Executor, res.Report.Inspector,
		res.Report.OverheadPct())
	if res.Report.Redist > 0 {
		fmt.Fprintf(stdout, "redistribute %.4fs (outside the total above)\n", res.Report.Redist)
	}
	if *stats {
		r := res.Report
		fmt.Fprintf(stdout, "messages: %d total, %d bytes\n", r.MsgsSent, r.BytesSent)
		fmt.Fprintf(stdout, "  forall/other:  %d msgs, %d bytes\n", r.MsgsSent-r.RedistMsgs, r.BytesSent-r.RedistBytes)
		fmt.Fprintf(stdout, "  redistribute:  %d msgs, %d bytes\n", r.RedistMsgs, r.RedistBytes)
		fmt.Fprintf(stdout, "  cross-loop fused:  %d msgs, %d bytes\n", r.FusedMsgs, r.FusedBytes)
		fmt.Fprintf(stdout, "interior iterations: %d, %d by segments, %d column-wise\n", r.InteriorIters, r.SegmentIters, res.ColumnIters)
		fmt.Fprintf(stdout, "boundary iterations: %d, %d by segments, %d column-wise\n", r.BoundaryIters, r.BoundarySegmentIters, res.BoundaryColumnIters)
		fmt.Fprintf(stdout, "schedules: %d built, %d adopted, %d evicted\n", r.Builds, r.SharedHits, r.SchedEvictions)
	}

	for _, name := range names {
		if name == "" {
			continue
		}
		switch {
		case res.Arrays[name] != nil:
			fmt.Fprintf(stdout, "%s = %v\n", name, res.Arrays[name][:min(len(res.Arrays[name]), 20)])
		case res.IntArrays[name] != nil:
			fmt.Fprintf(stdout, "%s = %v\n", name, res.IntArrays[name][:min(len(res.IntArrays[name]), 20)])
		default:
			if v, ok := res.Scalars[name]; ok {
				fmt.Fprintf(stdout, "%s = %g\n", name, v)
			} else {
				fmt.Fprintf(stdout, "%s: not found\n", name)
			}
		}
	}
	return 0
}

// Connection limits for -serve.  A client gets readHeaderTimeout to send
// its request line and headers and readTimeout for the whole request,
// and an idle keep-alive connection is closed after idleTimeout, so
// stalled or abandoned clients cannot hold connections open.  There is
// no write timeout: the response is written after the program has run,
// and a long run is not a stalled client.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 60 * time.Second
	idleTimeout       = 2 * time.Minute
)

// httpServer returns the -serve HTTP server for handler h on addr.
func httpServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}
