package lang

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kali/internal/core"
	"kali/internal/machine"
)

// Tests of the VM's segment kernel (vm.go): the interior of a forall
// run a row segment at a time against raw local rows must be
// indistinguishable from the same compiled body run per element — which
// is what the reference executor does with every loop.

// kernelRun is what one run leaves behind for comparison.
type kernelRun struct {
	res   *Result
	stats machine.Stats
}

// runKernel runs src the way Program.Run does, on a machine the test
// keeps, so that the full machine.Stats are comparable.  With
// reference set the run uses the reference executor, which never calls
// a loop's Segment entry point: the same compiled body runs per
// element.
func runKernel(t *testing.T, src, backend string, p int, reference bool) kernelRun {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	el, err := prog.elaborate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{P: el.procP, Params: machine.NCUBE7(), Backend: backend, Reference: reference}
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Machine = m
	res := prog.newResult(el)
	res.Report = core.Run(cfg, func(ctx *core.Context) {
		in := newInterp(prog.file, ctx, el)
		in.declareArrays()
		in.execStmts(prog.file.Main, nil, nil)
		in.gather(res)
	})
	return kernelRun{res: res, stats: m.TotalStats()}
}

// stencilSrc is the benchmark's stencil-vm program at test size.
const stencilSrc = `processors Procs : array[1..2, 1..2];
const nx = 24;
      ny = 20;
      sweeps = 3;
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
`

// TestSegmentKernelMatchesPerElement: the stencil and every testdata
// program, run by the production executor with the segment kernel and
// by the reference executor per element, agree bit for bit on arrays,
// bytes moved and flops counted, on both backends; production never
// sends more messages and its simulated clocks are never later.  On one
// processor — nothing to overlap or fuse, the kernel the only
// difference left — every clock the report carries is the same bits,
// for every program that elaborates there.  (At P=4 that bitwise pin is
// the VM-vs-walker differential's, whose walked loops have no kernel.)
// The stencil must also really have run through the kernel.
func TestSegmentKernelMatchesPerElement(t *testing.T) {
	srcs := map[string]string{"stencil": stencilSrc}
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
	oneProc := 0
	for name, src := range srcs {
		for _, backend := range []string{"sim", "wall"} {
			for _, p := range []int{4, 1} {
				if prog, err := Compile(src); err != nil {
					t.Fatalf("%s: %v", name, err)
				} else if _, err := prog.elaborate(p); err != nil {
					continue // fixed processor declaration larger than p
				}
				seg := runKernel(t, src, backend, p, false)
				ref := runKernel(t, src, backend, p, true)
				tag := fmt.Sprintf("%s on %s p=%d", name, backend, p)
				for arr, want := range ref.res.Arrays {
					got := seg.res.Arrays[arr]
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: %s[%d] = %v by segments, want %v", tag, arr, i+1, got[i], want[i])
						}
					}
				}
				ss, rs := seg.stats, ref.stats
				if ss.BytesSent != rs.BytesSent || ss.FlopCount != rs.FlopCount ||
					ss.RedistMsgsSent != rs.RedistMsgsSent || ss.MsgsSent > rs.MsgsSent || rs.FusedMsgsSent != 0 {
					t.Errorf("%s: stats %+v by segments, reference %+v", tag, ss, rs)
				}
				sr, rr := seg.res.Report, ref.res.Report
				if backend == "sim" {
					same := sr.Total == rr.Total && sr.Executor == rr.Executor &&
						sr.Inspector == rr.Inspector && sr.Elapsed == rr.Elapsed
					if sr.Elapsed > rr.Elapsed || p == 1 && !same {
						t.Errorf("%s: clocks total=%v exec=%v insp=%v elapsed=%v by segments, reference %v %v %v %v (want no later; bitwise equal on one processor)", tag,
							sr.Total, sr.Executor, sr.Inspector, sr.Elapsed, rr.Total, rr.Executor, rr.Inspector, rr.Elapsed)
					}
					if p == 1 {
						oneProc++
					}
				}
				if rr.SegmentIters != 0 || rr.InteriorIters != sr.InteriorIters {
					t.Errorf("%s: reference run: %d of %d interior iterations by segments (kernel run saw %d)",
						tag, rr.SegmentIters, rr.InteriorIters, sr.InteriorIters)
				}
				if name == "stencil" && (sr.SegmentIters == 0 || sr.SegmentIters != sr.InteriorIters) {
					t.Errorf("%s: kernel ran %d of %d interior iterations, want all", tag, sr.SegmentIters, sr.InteriorIters)
				}
			}
		}
	}
	if oneProc == 0 {
		t.Error("no program ran on one processor: the bitwise clock comparison never happened")
	}
}

// engagementSrc is one loop over arrays distributed by the first "%s",
// storing the second "%s" — an expression over a — to an array the
// body does not load.
const engagementSrc = `processors Procs : array[1..P] with P in 1..8;
const n = 32;
var a, b : array[1..n] of real dist by [%s] on Procs;
    i : integer;
begin
  for i in 1..n do a[i] := float(i); b[i] := 0.0; end;
  forall i in 2..n-1 on b[i].loc do
    b[i] := %s;
  end;
end.
`

// TestSegmentKernelEngagement: which interiors the kernel takes is
// decided from what the code can observe.  Block and collapsed
// windows are contiguous, so their interiors run by segments; cyclic
// ones have no contiguous local window, so every segment is declined
// and runs per element — with, either way, the answer and the cost
// report of the tree walker.
func TestSegmentKernelEngagement(t *testing.T) {
	rowsum, err := os.ReadFile(filepath.Join("testdata", "rowsum.kali"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, src string
		want      string // "all", "none"
	}{
		{"block", fmt.Sprintf(engagementSrc, "block", "a[i-1] + a[i+1]"), "all"},
		{"block_cyclic", fmt.Sprintf(engagementSrc, "block_cyclic(3)", "a[i-1] + a[i+1]"), "none"},
		// Under cyclic every shifted read is remote, so only an aligned
		// body has an interior at all.
		{"cyclic", fmt.Sprintf(engagementSrc, "cyclic", "a[i] * 2.0"), "none"},
		{"collapsed rows", string(rowsum), "all"},
	}
	for _, c := range cases {
		rep := diffVMWalker(t, c.src, 4)
		switch {
		case rep.InteriorIters == 0:
			t.Errorf("%s: no interior iterations at all", c.name)
		case c.want == "all" && rep.SegmentIters != rep.InteriorIters,
			c.want == "none" && rep.SegmentIters != 0:
			t.Errorf("%s: kernel ran %d of %d interior iterations, want %s", c.name, rep.SegmentIters, rep.InteriorIters, c.want)
		}
	}
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
		rep := diffVMWalker(t, src, p)
		if rep.SegmentIters == 0 {
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
	prog.NoVM = true
	_, walkErr := prog.Run(cfg)
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
