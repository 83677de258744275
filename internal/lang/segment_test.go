package lang

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kali/internal/core"
	"kali/internal/machine"
)

// Tests of the VM's segment entry points (vm.go): the interior of a
// forall run a row segment at a time against raw local rows — a column
// at a time where the body allows it, element by element where not —
// must be indistinguishable from the same compiled body run per element
// (what the reference executor does with every loop) and from the tree
// walker.

// kernelRun is what one run leaves behind for comparison.  stepped and
// chained sum, over every column-wise body and node, the elements the
// clock took by the exact integer step and by literal additions.
type kernelRun struct {
	res              *Result
	stats            machine.Stats
	stepped, chained int64
}

// The three ways to run a program: production executor with compiled
// bodies (the segment entry points engage), production executor with
// walked bodies, and the reference executor, which never calls a
// loop's Segment entry point: the same compiled body runs per element.
const (
	runVM = iota
	runWalker
	runReference
)

// runKernel runs src the way Program.Run does, on a machine the test
// keeps, so that the full machine.Stats are comparable.
func runKernel(t *testing.T, src, backend string, params machine.Params, p, mode int) kernelRun {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	el, err := prog.elaborate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{P: el.procP, Params: params, Backend: backend, Reference: mode == runReference}
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Machine = m
	exec := (*interp).exec
	if mode == runWalker {
		exec = (*interp).walk
	}
	var run kernelRun
	run.res = prog.execute(cfg, el, exec, func(in *interp) {
		for _, st := range in.vms {
			if st.step != nil {
				atomic.AddInt64(&run.stepped, int64(st.step.Stepped))
				atomic.AddInt64(&run.chained, int64(st.step.Chained))
			}
		}
	}, nil)
	run.stats = m.TotalStats()
	return run
}

// sameArrays fails unless got holds want's arrays bit for bit.
func sameArrays(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	for arr, w := range want.Arrays {
		g := got.Arrays[arr]
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", tag, arr, i+1, g[i], w[i])
			}
		}
	}
	for arr, w := range want.IntArrays {
		if g := got.IntArrays[arr]; !slices.Equal(g, w) {
			t.Fatalf("%s: %s = %v, want %v", tag, arr, g, w)
		}
	}
}

// threeOracles runs src compiled, walked and on the reference executor
// and holds the compiled production run — the only one whose interiors
// and boundaries go through the segment entry points — against both.  Against the
// walker, which shares its executor: arrays, every machine.Stats
// counter (FlopCount among them) and, on the simulator, every clock of
// the report, bit for bit, on any processor count.  Against the
// reference executor, which shares its compiled bodies: arrays, bytes
// and flops; production never sends more messages and its simulated
// clocks are never later, and on one processor — nothing to overlap or
// fuse, the segment entry points the only difference left — they are
// the same bits.  It returns the compiled production run.
func threeOracles(t *testing.T, tag, src, backend string, params machine.Params, p int) kernelRun {
	t.Helper()
	vm := runKernel(t, src, backend, params, p, runVM)
	walk := runKernel(t, src, backend, params, p, runWalker)
	ref := runKernel(t, src, backend, params, p, runReference)
	sameArrays(t, tag+": vm against walker", vm.res, walk.res)
	sameArrays(t, tag+": vm against reference", vm.res, ref.res)

	if vm.stats != walk.stats {
		t.Errorf("%s: stats %+v compiled, %+v walked", tag, vm.stats, walk.stats)
	}
	vs, rs := vm.stats, ref.stats
	if vs.BytesSent != rs.BytesSent || vs.FlopCount != rs.FlopCount ||
		vs.RedistMsgsSent != rs.RedistMsgsSent || vs.MsgsSent > rs.MsgsSent || rs.FusedMsgsSent != 0 {
		t.Errorf("%s: stats %+v by segments, reference %+v", tag, vs, rs)
	}
	clocks := func(r core.Report) [4]float64 { return [4]float64{r.Total, r.Executor, r.Inspector, r.Elapsed} }
	vr, wr, rr := vm.res.Report, walk.res.Report, ref.res.Report
	if backend == "sim" {
		if clocks(vr) != clocks(wr) {
			t.Errorf("%s: clocks (total, executor, inspector, elapsed) %v compiled, %v walked", tag, clocks(vr), clocks(wr))
		}
		if vr.Elapsed > rr.Elapsed || p == 1 && clocks(vr) != clocks(rr) {
			t.Errorf("%s: clocks %v by segments, reference %v (want no later; bitwise equal on one processor)", tag, clocks(vr), clocks(rr))
		}
	}
	for _, o := range []kernelRun{walk, ref} {
		if r := o.res.Report; r.SegmentIters != 0 || o.res.ColumnIters != 0 || r.InteriorIters != vr.InteriorIters {
			t.Errorf("%s: an oracle ran %d by segments and %d column-wise of %d interior iterations (compiled run saw %d)",
				tag, r.SegmentIters, o.res.ColumnIters, r.InteriorIters, vr.InteriorIters)
		}
		if r := o.res.Report; r.BoundarySegmentIters != 0 || o.res.BoundaryColumnIters != 0 || r.BoundaryIters != vr.BoundaryIters {
			t.Errorf("%s: an oracle ran %d by segments and %d column-wise of %d boundary iterations (compiled run saw %d)",
				tag, r.BoundarySegmentIters, o.res.BoundaryColumnIters, r.BoundaryIters, vr.BoundaryIters)
		}
	}
	if c := int(vm.res.ColumnIters); c > vr.SegmentIters || vr.SegmentIters > vr.InteriorIters {
		t.Errorf("%s: %d column-wise > %d by segments > %d interior", tag, c, vr.SegmentIters, vr.InteriorIters)
	}
	if c := int(vm.res.BoundaryColumnIters); c > vr.BoundarySegmentIters || vr.BoundarySegmentIters > vr.BoundaryIters {
		t.Errorf("%s: %d column-wise > %d by segments > %d boundary", tag, c, vr.BoundarySegmentIters, vr.BoundaryIters)
	}
	return vm
}

// stencilProgram is the benchmark's stencil-vm program.
func stencilProgram(nx, ny, sweeps int) string {
	return fmt.Sprintf(`processors Procs : array[1..2, 1..2];
const nx = %d;
      ny = %d;
      sweeps = %d;
var u, old : array[1..ny, 1..nx] of real dist by [block, block] on Procs;
    r, c, i, s : integer;
begin
    for r in 1..ny do
        for c in 1..nx do
            if (r = 1) or (r = ny) or (c = 1) or (c = nx) then
                i := (r-1)*nx + c;
                u[r,c] := 1.0 + float((i + 3) mod 7);
            end;
        end;
    end;
    for s in 1..sweeps do
        forall r in 1..ny, c in 1..nx on old[r,c].loc do
            old[r,c] := u[r,c];
        end;
        forall r in 1..ny-2, c in 1..nx-2 on u[r+1,c+1].loc do
            u[r+1,c+1] := 0.25*old[r,c+1] + 0.25*old[r+1,c] + 0.25*old[r+1,c+2] + 0.25*old[r+2,c+1];
        end;
    end;
end.
`, nx, ny, sweeps)
}

// TestSegmentKernelMatchesPerElement: the stencil and every testdata
// program agree across the three oracles (threeOracles) under each
// shipped cost model on the simulator and on real threads, on four
// processors and — where the program elaborates there — on one.  The
// stencil and jacobi2d must also really have run every interior
// iteration column-wise.
func TestSegmentKernelMatchesPerElement(t *testing.T) {
	srcs := map[string]string{"stencil": stencilProgram(24, 20, 3)}
	files, err := filepath.Glob(filepath.Join("testdata", "*.kali"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(b)
	}
	machines := []struct {
		backend string
		params  machine.Params
	}{{"sim", machine.NCUBE7()}, {"sim", machine.IPSC2()}, {"sim", machine.Ideal()}, {"wall", machine.NCUBE7()}}
	oneProc := 0
	for name, src := range srcs {
		for _, m := range machines {
			for _, p := range []int{4, 1} {
				if prog, err := Compile(src); err != nil {
					t.Fatalf("%s: %v", name, err)
				} else if _, err := prog.elaborate(p); err != nil {
					continue // fixed processor declaration larger than p
				}
				tag := fmt.Sprintf("%s on %s/%s p=%d", name, m.backend, m.params.Name, p)
				vm := threeOracles(t, tag, src, m.backend, m.params, p)
				if p == 1 && m.backend == "sim" {
					oneProc++
				}
				rep := vm.res.Report
				if (name == "stencil" || name == "jacobi2d.kali") && (rep.InteriorIters == 0 || int(vm.res.ColumnIters) != rep.InteriorIters) {
					t.Errorf("%s: %d of %d interior iterations column-wise (%d by segments), want all",
						tag, vm.res.ColumnIters, rep.InteriorIters, rep.SegmentIters)
				}
			}
		}
	}
	if oneProc == 0 {
		t.Error("no program ran on one processor: the bitwise clock comparison with the reference never happened")
	}
}

// boundarySrc1 is a shifted-on-clause rank-1 stencil over arrays
// distributed by "%s", followed by a loop whose boundary runs keep the
// per-element segment mode (a branch), and by an aligned loop that has
// no boundary.
const boundarySrc1 = `processors Procs : array[1..P] with P in 1..8;
const n = 40;
var a, b : array[1..n] of real dist by [%s] on Procs;
    i, s : integer;
begin
  for i in 1..n do b[i] := float((i * 7) mod 11); end;
  for s in 1..2 do
    forall i in 1..n-4 on a[i+2].loc do
      a[i+2] := 0.25*b[i] + 0.5*b[i+2] - b[i+3] + 0.125*b[i+4];
    end;
    forall i in 2..n-1 on b[i].loc do
      var t : real;
      t := a[i-1] - a[i+1];
      if t > 0.0 then b[i] := t; else b[i] := 0.5 * a[i+1] - t; end;
    end;
    forall i in 1..n on a[i].loc do a[i] := a[i] + b[i]; end;
  end;
end.
`

// boundarySrc2 is the rank-2 counterpart on a %d×%d grid, with arrays
// distributed by "%s": the benchmark's shifted five-point stencil, and
// a shifted loop with a branch.
const boundarySrc2 = `processors Procs : array[1..%d, 1..%d];
const n = 14;
      m = 17;
var u, old : array[1..n, 1..m] of real dist by [%s] on Procs;
    r, c, s : integer;
begin
  for r in 1..n do for c in 1..m do old[r,c] := float((r*5 + c*3) mod 11); end; end;
  for s in 1..2 do
    forall r in 1..n-2, c in 1..m-2 on u[r+1,c+1].loc do
      u[r+1,c+1] := 0.25*old[r,c+1] + 0.25*old[r+1,c] + 0.25*old[r+1,c+2] + 0.25*old[r+2,c+1];
    end;
    forall r in 1..n-2, c in 1..m-2 on old[r+1,c+1].loc do
      var t : real;
      t := u[r+1,c] - u[r+1,c+2];
      if t > 0.0 then old[r+1,c+1] := t + u[r,c+1]; else old[r+1,c+1] := u[r+2,c+1] - t; end;
    end;
  end;
end.
`

// TestBoundarySegmentsMatchReference: the boundary's runs, taken by the
// VM's segment entry — column-wise, by points, in the per-element
// segment mode, or peeled — agree with the walker and the reference
// executor (threeOracles: values, statistics, clock bits) on shifted
// rank-1 and rank-2 stencils on 1, 2, 4 and 8 processors.  Under
// block_cyclic and cyclic, runs come from two peers or mix
// local and remote elements, and those reads stay on Env.Read.  Under
// block every boundary iteration runs as a segment, and the rank-2
// stencil's halo rows column-wise.
func TestBoundarySegmentsMatchReference(t *testing.T) {
	machines := []struct {
		backend string
		params  machine.Params
	}{{"sim", machine.NCUBE7()}, {"sim", machine.IPSC2()}, {"wall", machine.NCUBE7()}}
	check := func(tag string, vm kernelRun, block bool, p int) {
		rep := vm.res.Report
		if block && p > 1 && (rep.BoundaryIters == 0 || rep.BoundarySegmentIters != rep.BoundaryIters) {
			t.Errorf("%s: %d of %d boundary iterations by segments, want all of some", tag, rep.BoundarySegmentIters, rep.BoundaryIters)
		}
	}
	for _, dist := range []string{"block", "cyclic", "block_cyclic(3)"} {
		for _, p := range []int{1, 2, 4, 8} {
			for _, m := range machines {
				tag := fmt.Sprintf("rank 1 %s on %s/%s p=%d", dist, m.backend, m.params.Name, p)
				check(tag, threeOracles(t, tag, fmt.Sprintf(boundarySrc1, dist), m.backend, m.params, p), dist == "block", p)
			}
		}
	}
	for _, dist := range []string{"block, block", "block, block_cyclic(2)", "cyclic, block"} {
		for _, g := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {2, 4}} {
			for _, m := range machines {
				p := g[0] * g[1]
				tag := fmt.Sprintf("rank 2 [%s] on %s/%s %d×%d", dist, m.backend, m.params.Name, g[0], g[1])
				vm := threeOracles(t, tag, fmt.Sprintf(boundarySrc2, g[0], g[1], dist), m.backend, m.params, p)
				check(tag, vm, dist == "block, block", p)
				if dist == "block, block" && g == [2]int{2, 2} && vm.res.BoundaryColumnIters == 0 {
					t.Errorf("%s: no boundary iteration ran column-wise", tag)
				}
			}
		}
	}
}

// engagementSrc is one loop over arrays distributed by the first "%s",
// with the second "%s" for a body: statements that store to b, an
// array the body does not load.
const engagementSrc = `processors Procs : array[1..P] with P in 1..8;
const n = 32;
var a, b : array[1..n] of real dist by [%s] on Procs;
    k : array[1..n] of integer dist by [%[1]s] on Procs;
    i : integer;
begin
  for i in 1..n do a[i] := float(i); b[i] := 0.0; k[i] := i mod 3; end;
  forall i in 2..n-1 on b[i].loc do
    %s
  end;
end.
`

// TestSegmentKernelEngagement: which interiors take which body path is
// decided from what the code can observe.  Block and collapsed windows
// are contiguous, so their interiors run by segments; cyclic ones have
// no contiguous local window, so every segment is declined and runs
// per element.  Of the segments taken, those of a straight-line body
// with every access in the row form run column-wise; a branch, an inner
// loop, an integer-array load, a load outside the row form or an
// integer division keeps them element by element — with, every way,
// the answer and the cost report of the tree walker.
func TestSegmentKernelEngagement(t *testing.T) {
	rowsum, err := os.ReadFile(filepath.Join("testdata", "rowsum.kali"))
	if err != nil {
		t.Fatal(err)
	}
	body := func(dist, stmts string) string { return fmt.Sprintf(engagementSrc, dist, stmts) }
	cases := []struct {
		name, src string
		seg, col  string // "all", "none"
	}{
		{"block", body("block", "b[i] := a[i-1] + a[i+1];"), "all", "all"},
		{"block_cyclic", body("block_cyclic(3)", "b[i] := a[i-1] + a[i+1];"), "none", "none"},
		// Under cyclic every shifted read is remote, so only an aligned
		// body has an interior at all.
		{"cyclic", body("cyclic", "b[i] := a[i] * 2.0;"), "none", "none"},
		{"collapsed rows, inner for", string(rowsum), "all", "none"},
		{"if", body("block", "b[i] := a[i]; if a[i] > 9.0 then b[i] := -a[i-1]; end;"), "all", "none"},
		{"integer-array load", body("block", "b[i] := a[i+1] * float(k[i]);"), "all", "none"},
		{"load outside the row form", body("block", "b[i] := a[i-1] + a[5];"), "all", "none"},
		{"integer division", body("block", "b[i] := a[i-1] + float(n div i);"), "all", "none"},
	}
	for _, c := range cases {
		res := diffVMWalker(t, c.src, 4)
		rep := res.Report
		frac := func(n int) string {
			switch n {
			case 0:
				return "none"
			case rep.InteriorIters:
				return "all"
			}
			return "some"
		}
		if rep.InteriorIters == 0 {
			t.Errorf("%s: no interior iterations at all", c.name)
		} else if seg, col := frac(rep.SegmentIters), frac(int(res.ColumnIters)); seg != c.seg || col != c.col {
			t.Errorf("%s: of %d interior iterations %d ran by segments (%s, want %s), %d column-wise (%s, want %s)",
				c.name, rep.InteriorIters, rep.SegmentIters, seg, c.seg, res.ColumnIters, col, c.col)
		}
	}
}

// columnSrc1 is a rank-1 program whose one forall has every kind of
// instruction the column-wise kernel runs: loads and a store, real and
// integer locals (re-zeroed per iteration: acc is read before it is
// assigned, and assigned afterwards, so a value surviving from the
// previous element would show), int-to-real of the index variable and
// of integer arithmetic on it, trunc, unary minus of both types, the
// four real operators, min/max/abs/sqrt, a constant, a global real that
// changes between launches and the enclosing for variable as an integer
// input.  The loop's bounds grow with s, so later launches run longer
// segments than the vectors were cut for, the last longer than one
// strip.
const columnSrc1 = `processors Procs : array[1..P] with P in 1..4;
const n = 700;
var a, b, c : array[1..n] of real dist by [block] on Procs;
    i, s : integer;
    alpha : real;
begin
  for i in 1..n do a[i] := float((i*7) mod 13) - 6.0; c[i] := 0.5 * float(i mod 5); end;
  alpha := 3.0;
  for s in 1..4 do
    alpha := alpha * 0.5;
    forall i in 2..170*s on b[i].loc do
      var acc : real; t : real; m : integer;
      t := acc + sqrt(abs(a[i-1])) / (c[i] + 1.5);
      acc := a[i+1];
      m := -(i - 2*s) * (i + 1);
      b[i] := min(t, alpha * float(i)) - max(-acc, float(m)) + float(trunc(a[i] * 0.75) + s);
    end;
  end;
end.
`

// columnSrc2 is its rank-2 counterpart on the 2×2 grid: both index
// variables as values (the outer one a per-segment broadcast), a
// replicated coefficient vector read along the row, two stores of one
// form to one array, a second stored array, and a last loop whose
// segments are one element long.
const columnSrc2 = `processors Procs : array[1..2, 1..2];
const n = 20;
var u, v, w : array[1..n, 1..n] of real dist by [block, block] on Procs;
    c1 : array[1..n] of real;
    i, j, s : integer;
    alpha : real;
begin
  for j in 1..n do c1[j] := float(j mod 4) + 0.5; end;
  for i in 1..n do for j in 1..n do u[i,j] := float((i*5 + j*3) mod 11); end; end;
  for s in 1..2 do
    alpha := 0.25 * float(s);
    forall i in 1..n-2, j in 1..n-2 on v[i+1,j+1].loc do
      var t : real;
      t := alpha*u[i,j+1] + alpha*u[i+2,j+1] + c1[j] * float(i - j);
      v[i+1,j+1] := t;
      w[i+1,j+1] := float(i) * u[i+1,j] - u[i+1,j+2];
      v[i+1,j+1] := t / (1.0 + float(s*j));
    end;
    forall i in 1..n, j in 7..7 on w[i,j].loc do
      w[i,j] := u[i,j] + alpha;
    end;
  end;
end.
`

// TestColumnKernel: the two programs above agree across the three
// oracles on every backend, cost model and processor count, and their
// interiors run column-wise: all of them, but for the one-element
// segments of the last rank-2 loop, which run by segments and not
// column-wise.
func TestColumnKernel(t *testing.T) {
	for _, c := range []struct {
		name, src string
		ps        []int
		single    int // interior iterations in one-element segments
	}{
		{"rank 1", columnSrc1, []int{1, 2, 4}, 0},
		{"rank 2", columnSrc2, []int{4}, 2 * 20},
	} {
		for _, backend := range []string{"sim", "wall"} {
			for _, params := range []machine.Params{machine.NCUBE7(), machine.Ideal()} {
				for _, p := range c.ps {
					tag := fmt.Sprintf("%s on %s/%s p=%d", c.name, backend, params.Name, p)
					vm := threeOracles(t, tag, c.src, backend, params, p)
					rep := vm.res.Report
					if rep.SegmentIters != rep.InteriorIters || int(vm.res.ColumnIters) != rep.InteriorIters-c.single || rep.InteriorIters < 100 {
						t.Errorf("%s: of %d interior iterations %d ran by segments and %d column-wise, want all and all but %d",
							tag, rep.InteriorIters, rep.SegmentIters, vm.res.ColumnIters, c.single)
					}
				}
			}
		}
	}
}

// TestColumnKernelStoreOrder: a body that stores one array through two
// subscript forms is not run column-wise.  Element by element,
// A[i] := x; A[i+1] := y ends with A[k+1] = x[k+1] — the next
// element's first store lands on this element's second — while store
// by store it would end with y[k].  The same body storing through one
// form twice is column-wise, the later store winning either way.
func TestColumnKernelStoreOrder(t *testing.T) {
	const src = `processors Procs : array[1..P] with P in 1..1;
const n = 12;
var A, X, Y : array[1..n] of real dist by [block] on Procs;
    i : integer;
begin
  for i in 1..n do X[i] := float(i); Y[i] := float(100 + i); end;
  forall i in 1..n-1 on A[i].loc do
    A[i] := X[i];
    A[%s] := Y[i];
  end;
end.
`
	for _, backend := range []string{"sim", "wall"} {
		two := threeOracles(t, "two forms on "+backend, fmt.Sprintf(src, "i+1"), backend, machine.NCUBE7(), 1)
		if rep := two.res.Report; rep.SegmentIters != 11 || two.res.ColumnIters != 0 {
			t.Errorf("two forms on %s: %d by segments, %d column-wise; want 11 and none", backend, rep.SegmentIters, two.res.ColumnIters)
		}
		for k := 1; k <= 12; k++ {
			want := float64(k)
			if k == 12 {
				want = 100 + 11
			}
			if got := two.res.Arrays["A"][k-1]; got != want {
				t.Errorf("two forms on %s: A[%d] = %g, want %g", backend, k, got, want)
			}
		}
		one := threeOracles(t, "one form on "+backend, fmt.Sprintf(src, "i"), backend, machine.NCUBE7(), 1)
		if one.res.ColumnIters != 11 || one.res.Arrays["A"][4] != 105 {
			t.Errorf("one form on %s: %d column-wise, A[5] = %g; want 11 and 105", backend, one.res.ColumnIters, one.res.Arrays["A"][4])
		}
	}
}

// TestColumnKernelKeepsTraps: integer division keeps a body off the
// column-wise path, so a division by zero still fails at its element,
// with the walker's error.
func TestColumnKernelKeepsTraps(t *testing.T) {
	src := `processors Procs : array[1..P] with P in 1..1;
const n = 8;
var A, B : array[1..n] of real dist by [block] on Procs;
    i : integer;
begin
  forall i in 1..n on B[i].loc do
    B[i] := A[i] + float(n %s (i - 5));
  end;
end.
`
	for _, op := range []string{"div", "mod"} {
		prog, err := Compile(fmt.Sprintf(src, op))
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{P: 1, Params: machine.NCUBE7()}
		_, vmErr := prog.Run(cfg)
		_, walkErr := prog.walked(cfg)
		if vmErr == nil || walkErr == nil || vmErr.Error() != walkErr.Error() || !strings.Contains(vmErr.Error(), "divide by zero") {
			t.Errorf("%s: vm error %q, walker error %q; want both the same division by zero", op, vmErr, walkErr)
		}
	}
}

// trapOnLastNode divides by zero on the last node only, before a halo
// loop that every other node waits in for that node's boundary element.
const trapOnLastNode = `processors Procs : array[1..P] with P in 1..64;
const N = 24;
var A, B : array[1..N] of real dist by [block] on Procs;
    i : integer;
begin
  forall i in 1..N on B[i].loc do
    B[i] := float(10 div (N - i));
  end;
  forall i in 1..N-1 on A[i].loc do
    A[i] := B[i+1];
  end;
end.
`

// TestTrapOnOneNodeNamesIt: a trap on one node ends the run on both
// backends — its peers, blocked in receives, are released — and the
// error names that node and its trap, not a released peer.
func TestTrapOnOneNodeNamesIt(t *testing.T) {
	prog, err := Compile(trapOnLastNode)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"sim", "wall"} {
		errc := make(chan error, 1)
		go func() {
			_, err := prog.Run(core.Config{P: 4, Params: machine.NCUBE7(), Backend: backend})
			errc <- err
		}()
		select {
		case err := <-errc:
			const want = "lang: runtime error: machine: node 3 panicked: runtime error: integer divide by zero"
			if err == nil || err.Error() != want {
				t.Errorf("%s: error %v, want %q", backend, err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: run still blocked after 10s", backend)
		}
	}
}

// TestColumnKernelClockStep: at the benchmark's stencil-vm shape
// (128², 40 sweeps, NCUBE/7) every interior iteration runs column-wise
// and the clock takes all but a sliver of them by the exact integer
// step; the rest — the element at each binade crossing, on each node
// and loop — are literal additions.
func TestColumnKernelClockStep(t *testing.T) {
	run := runKernel(t, stencilProgram(128, 128, 40), "sim", machine.NCUBE7(), 4, runVM)
	rep := run.res.Report
	if want := 40 * (128*128 + 126*126 - 500); rep.InteriorIters != want || int(run.res.ColumnIters) != want {
		t.Errorf("%d interior iterations, %d column-wise; want %d of each", rep.InteriorIters, run.res.ColumnIters, want)
	}
	if run.stepped+run.chained != run.res.ColumnIters || run.chained*1000 > run.res.ColumnIters {
		t.Errorf("clock: %d elements stepped + %d chained of %d column-wise; want under 0.1%% chained", run.stepped, run.chained, run.res.ColumnIters)
	}
	if rep.Total != 52.4879999990524 { // the ledger's sim_total_s since the workload exists
		t.Errorf("simulated total %v, want 52.4879999990524", rep.Total)
	}
	t.Logf("clock advances: %d elements by the integer step, %d by additions (%.4f%%)",
		run.stepped, run.chained, 100*float64(run.chained)/float64(run.res.ColumnIters))
}

// TestSegmentKernelCopyInCopyOut: a store to an array the body also
// reads keeps going through the write log — every read of the loop
// sees the pre-loop value, even though the row is being run as one
// segment — while a store to an array the body never loads goes
// straight to local storage, and both give the walker's answer.
func TestSegmentKernelCopyInCopyOut(t *testing.T) {
	src := `processors Procs : array[1..P] with P in 1..4;
const n = 16;
var A, B : array[1..n] of real dist by [block] on Procs;
    i : integer;
begin
  for i in 1..n do A[i] := float(i); end;
  forall i in 1..n-1 on A[i].loc do
    A[i] := A[i+1];
    B[i] := A[i] * 10.0;
  end;
end.
`
	for _, p := range []int{1, 2} {
		if rep := diffVMWalker(t, src, p).Report; rep.SegmentIters == 0 {
			t.Errorf("P=%d: the kernel did not run", p)
		}
		prog, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prog.Run(core.Config{P: p, Params: machine.Ideal()})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 16; i++ {
			if got := res.Arrays["A"][i-1]; got != float64(i+1) {
				t.Fatalf("P=%d: A[%d] = %g, want %d (a shifted copy of the pre-loop A)", p, i, got, i+1)
			}
			if got := res.Arrays["B"][i-1]; got != float64(10*i) {
				t.Fatalf("P=%d: B[%d] = %g, want %d (read of A[i] must see the pre-loop value)", p, i, got, 10*i)
			}
		}
	}
	// The store to A is logged because the body loads A; the one to B
	// is direct.
	prog, _ := Compile(src)
	el, err := prog.elaborate(2)
	if err != nil {
		t.Fatal(err)
	}
	cb := el.compiled[findForall(prog.file.Main, 0)]
	var stores []string
	for _, h := range cb.hoists {
		for _, sym := range prog.file.syms {
			if h.store && sym.Kind == symRealArray && sym.Slot == int(h.slot) {
				stores = append(stores, sym.Name)
			}
		}
	}
	if fmt.Sprint(stores) != "[B]" {
		t.Fatalf("direct stores to %v, want only [B]", stores)
	}
}

// TestSegmentKernelLoggedThenDirectOrder: two stores of one body hit
// the same elements of w from neighbouring rows, and the second is
// guarded so that on each node's first row only the first store runs.
// That row's spans are refused (the guarded store's row lies in the
// tile above), its stores are logged — and from then on every store to
// w must be logged too, or a later row's direct store would be
// overwritten at commit by this earlier, logged one.
func TestSegmentKernelLoggedThenDirectOrder(t *testing.T) {
	src := `processors Procs : array[1..2, 1..2];
const n = 12;
var u, w : array[1..n, 1..n] of real dist by [block, block] on Procs;
    i, j : integer;
begin
  for i in 1..n do for j in 1..n do u[i,j] := float(i*n + j); end; end;
  forall i in 1..n, j in 1..n on u[i,j].loc do
    w[i,j] := u[i,j];
    if (i <> 1) and (i <> 7) then
      w[i-1,j] := -u[i,j];
    end;
  end;
end.
`
	diffVMWalker(t, src, 4)
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(core.Config{P: 4, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			// Iteration (i+1, j) overwrites what iteration (i, j) stored,
			// except across a tile edge and on the last row.
			want := -float64((i+1)*n + j)
			if i == 6 || i == n {
				want = float64(i*n + j)
			}
			if got := res.Arrays["w"][(i-1)*n+j-1]; got != want {
				t.Fatalf("w[%d,%d] = %g, want %g", i, j, got, want)
			}
		}
	}
}

// TestSegmentKernelKeepsBodyPanics: a store whose span leaves the
// node's local window is not hoisted; the per-element path raises the
// owner-computes panic for the very element the walker names.
func TestSegmentKernelKeepsBodyPanics(t *testing.T) {
	src := `processors Procs : array[1..P] with P in 2..2;
const n = 8;
var A, B : array[1..n] of real dist by [block] on Procs;
    i : integer;
begin
  forall i in 1..n-1 on A[i].loc do
    B[i+1] := 1.0;
  end;
end.
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{P: 2, Params: machine.Ideal()}
	_, vmErr := prog.Run(cfg)
	_, walkErr := prog.walked(cfg)
	const want = "non-owner write to B[5] on node 0"
	if vmErr == nil || walkErr == nil || vmErr.Error() != walkErr.Error() || !strings.Contains(vmErr.Error(), want) {
		t.Fatalf("vm error %q, walker error %q; want both identical and naming %q", vmErr, walkErr, want)
	}
}

// TestHoistClassification: which accesses the compiler marks hoistable,
// and which stores direct, follows from the subscript form and the
// body's read/write aliasing alone.
func TestHoistClassification(t *testing.T) {
	const head = `processors Procs : array[1..2, 1..2];
const n = 12;
var u, v, w : array[1..n, 1..n] of real dist by [block, block] on Procs;
    c1 : array[1..n] of real;
    i, j : integer;
begin
`
	cases := []struct {
		name, loop    string
		loads, stores int
	}{
		{"stencil: four shifted loads, one direct store",
			`forall i in 1..n-2, j in 1..n-2 on u[i+1,j+1].loc do
			   u[i+1,j+1] := v[i,j+1] + v[i+1,j] + v[i+1,j+2] + v[i+2,j+1]; end;`, 4, 1},
		{"in-place: the store is to a loaded array and must log",
			`forall i in 2..n-1, j in 2..n-1 on u[i,j].loc do u[i,j] := u[i,j-1] + u[i,j+1]; end;`, 2, 0},
		{"strided row is a row form, strided column is not",
			`forall i in 1..n div 2, j in 1..n div 2 on w[2*i,j].loc do w[2*i,j] := v[2*i-1,j] + u[i,2*j]; end;`, 1, 1},
		{"transposed and replicated-vector reads",
			`forall i in 1..n, j in 1..n on w[i,j].loc do w[i,j] := v[j,i] + c1[j] + c1[i]; end;`, 1, 1},
		{"one store outside the row form demotes every store to that array",
			`forall i in 1..n div 2, j in 1..n div 2 on w[i,j].loc do w[i,j] := 1.0; w[i,2*j] := 2.0; end;`, 0, 0},
		{"an inner loop over an index variable: nothing is relative to it any more",
			`forall i in 1..n, j in 1..n on w[i,j].loc do var t : real; t := 0.0;
			   for j in 1..2 do t := t + 1.0; end; w[i,j] := t + v[i,j]; end;`, 0, 0},
		{"assigning the outer index variable",
			`forall i in 1..n, j in 1..n on w[i,j].loc do w[i,j] := v[i,j]; i := i; end;`, 0, 0},
	}
	for _, c := range cases {
		prog, err := Compile(head + c.loop + "\nend.\n")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		el, err := prog.elaborate(4)
		if err != nil {
			t.Fatal(err)
		}
		loads, stores := 0, 0
		for _, h := range el.compiled[findForall(prog.file.Main, 0)].hoists {
			if h.store {
				stores++
			} else {
				loads++
			}
		}
		if loads != c.loads || stores != c.stores {
			t.Errorf("%s: %d hoistable loads and %d direct stores, want %d and %d", c.name, loads, stores, c.loads, c.stores)
		}
	}
}
