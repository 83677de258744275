package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunFlagHandling: every flag is validated before the serve/run
// branch, and a flag that does not apply to the chosen mode is a usage
// error (exit 2) instead of being silently ignored.
func TestRunFlagHandling(t *testing.T) {
	const prog = "../../internal/lang/testdata/shift.kali"
	// An address nothing can listen on: the serve cases that pass
	// validation fail there (exit 1) instead of blocking the test.
	const badAddr = "256.256.256.256:1"
	for _, c := range []struct {
		name   string
		args   []string
		exit   int
		stderr string // substring; "" = stderr must be empty
	}{
		{"run", []string{"-machine", "ideal", "-p", "4", prog}, 0, ""},
		{"run -ref -stats -print", []string{"-machine", "ideal", "-p", "4", "-ref", "-stats", "-print", "A", prog}, 0, ""},
		{"no program", nil, 2, "need exactly one program"},
		{"two programs", []string{prog, prog}, 2, "need exactly one program"},
		{"unknown flag", []string{"-overlap=off", prog}, 2, "flag provided but not defined"},
		{"removed walker flag", []string{"-novm", prog}, 2, "flag provided but not defined: -novm"},
		{"bad machine", []string{"-machine", "cray", prog}, 2, `unknown machine "cray"`},
		{"bad backend", []string{"-backend", "mpi", prog}, 2, `unknown backend "mpi"`},
		{"-pool without -serve", []string{"-pool", "2", prog}, 2, "-pool applies only with -serve"},
		{"-cachedir without -serve", []string{"-cachedir", "/tmp/x", prog}, 2, "-cachedir applies only with -serve"},
		{"missing file", []string{"no-such.kali"}, 1, "no-such.kali"},

		{"serve", []string{"-serve", badAddr, "-pool", "2", "-p", "4", "-machine", "ideal", "-backend", "wall"}, 1, "listen"},
		{"serve bad machine", []string{"-serve", badAddr, "-machine", "cray"}, 2, `unknown machine "cray"`},
		{"serve bad backend", []string{"-serve", badAddr, "-backend", "mpi"}, 2, `unknown backend "mpi"`},
		{"serve -ref", []string{"-serve", badAddr, "-ref"}, 2, "-ref does not apply with -serve"},
		{"serve -print", []string{"-serve", badAddr, "-print", "A"}, 2, "-print does not apply with -serve"},
		{"serve -stats", []string{"-serve", badAddr, "-stats"}, 2, "-stats does not apply with -serve"},
		{"serve with program", []string{"-serve", badAddr, prog}, 2, "-serve takes no program"},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(c.args, &stdout, &stderr); got != c.exit {
			t.Errorf("%s: exit %d, want %d (stderr %q)", c.name, got, c.exit, stderr.String())
		}
		if c.stderr == "" && stderr.Len() != 0 || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("%s: stderr %q, want %q", c.name, stderr.String(), c.stderr)
		}
	}
}

// TestRunRefMatchesProduction: -ref prints the same arrays as the
// production run of the same program.
func TestRunRefMatchesProduction(t *testing.T) {
	const prog = "../../internal/lang/testdata/jacobi2d.kali"
	out := func(extra ...string) string {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-machine", "ideal", "-p", "4", "-print", "u"}, append(extra, prog)...)
		if got := run(args, &stdout, &stderr); got != 0 {
			t.Fatalf("%v: exit %d: %s", args, got, stderr.String())
		}
		return stdout.String()
	}
	if prod, ref := out(), out("-ref"); prod != ref || !strings.Contains(prod, "u = [") {
		t.Errorf("production printed\n%s\n-ref printed\n%s", prod, ref)
	}
}

// TestRunStatsBodyPaths: -stats says which body path the interior and
// the boundary iterations took — all of jacobi2d's interior column-wise
// on the VM, and all of its boundary by segments, the halo rows but for
// their corner element column-wise; none by segments on the reference
// executor.
func TestRunStatsBodyPaths(t *testing.T) {
	const prog = "../../internal/lang/testdata/jacobi2d.kali"
	for extra, want := range map[string]string{
		"":     "interior iterations: 2400, 2400 by segments, 2400 column-wise\nboundary iterations: 312, 312 by segments, 144 column-wise\n",
		"-ref": "interior iterations: 2400, 0 by segments, 0 column-wise\nboundary iterations: 312, 0 by segments, 0 column-wise\n",
	} {
		var stdout, stderr bytes.Buffer
		args := []string{"-machine", "ncube", "-p", "4", "-stats", prog}
		if extra != "" {
			args = append([]string{extra}, args...)
		}
		if got := run(args, &stdout, &stderr); got != 0 || !strings.Contains(stdout.String(), want) {
			t.Errorf("%v: exit %d, stdout\n%swant a line %q", args, got, stdout.String(), want)
		}
	}
}

// TestRunStatsSchedules: -stats counts the schedules built, adopted
// and evicted.  Two foralls of one shape over different arrays build
// one schedule per node: the second adopts the first's plan from the
// content-addressed store, and the sweeps after the first replay both
// from the per-name cache, on either executor.
func TestRunStatsSchedules(t *testing.T) {
	prog := filepath.Join(t.TempDir(), "twoshifts.kali")
	src := `processors Procs : array[1..P] with P in 1..64;
const N = 24;
var A : array[1..N] of real dist by [block] on Procs;
    B : array[1..N] of real dist by [block] on Procs;
    i, s : integer;
begin
    for i in 1..N do
        A[i] := float(i);
        B[i] := float(2*i);
    end;
    for s in 1..3 do
        forall i in 1..N-1 on A[i].loc do
            A[i] := A[i+1];
        end;
        forall i in 1..N-1 on B[i].loc do
            B[i] := B[i+1];
        end;
    end;
end.
`
	if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "schedules: 4 built, 4 adopted, 0 evicted\n"
	for _, mode := range [][]string{nil, {"-ref"}} {
		var stdout, stderr bytes.Buffer
		args := append(mode, "-stats", "-machine", "ideal", "-p", "4", prog)
		if got := run(args, &stdout, &stderr); got != 0 || !strings.Contains(stdout.String(), want) {
			t.Errorf("%v: exit %d, stdout\n%swant a line %q", args, got, stdout.String(), want)
		}
	}
}

// TestRunsFigure4: the paper's Figure 4 program runs on the processors
// asked for, and its simulated times and convergence delta are pinned.
func TestRunsFigure4(t *testing.T) {
	const prog = "../../internal/lang/testdata/relax.kali"
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-p", "4", "-print", "delta", prog}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d: %s", got, stderr.String())
	}
	for _, want := range []string{
		"processors chosen: 4\n",
		"total 0.5221s  executor 0.1330s  inspector 0.3890s  (overhead 74.5%)\n",
		"delta = 0.222076416015625\n",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout\n%swant a line %q", stdout.String(), want)
		}
	}
}

// TestServeClosesStalledHeaders: the -serve HTTP server bounds how long
// a client may take over its headers (and the whole request, and an
// idle keep-alive) but not how long a response may take, and a client
// that stops in the middle of its headers has its connection closed
// once the header timeout runs out.
func TestServeClosesStalledHeaders(t *testing.T) {
	hs := httpServer("", http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 || hs.WriteTimeout != 0 {
		t.Fatalf("timeouts: header %v, read %v, idle %v, write %v; want the first three set and no write timeout",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout, hs.WriteTimeout)
	}
	hs.ReadHeaderTimeout = 100 * time.Millisecond // the same limit, shortened for the test
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /run HTTP/1.1\r\nHost: kali\r\nContent-Le"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(10 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled client's connection still open after %v: %v", time.Since(start), err)
	}
}
