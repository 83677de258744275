package lang

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"kali/internal/alloctest"
	"kali/internal/core"
	"kali/internal/machine"
)

// topLevelSrc is a program that is all sequential SPMD code: a nested
// init with builtin calls and div/mod, an if/else, a while on a scalar
// counter, an implicit loop variable (q, twice) and reads of a
// replicated array — and a run of two foralls, statement-level code
// the compiled top level escapes to.
func topLevelSrc(n int) string {
	return fmt.Sprintf(`
processors Procs : array[1..P] with P in 1..8;
const n = %d;
var u : array[1..n, 1..n] of real dist by [block, *] on Procs;
    a : array[1..n] of real dist by [cyclic] on Procs;
    perm : array[1..n] of integer dist by [block] on Procs;
    w : array[1..n] of real;
    r, c, k : integer;
    acc : real;
begin
  for q in 1..n do w[q] := sqrt(float(q)); end;
  for r in 1..n do
    for c in 1..n do
      if (r + c) mod 2 = 0 then
        u[r,c] := max(w[r], float((r*n + c) div 3));
      else
        u[r,c] := -abs(w[c] - float(r));
      end;
    end;
    perm[r] := (r * 3) mod n + 1;
  end;
  k := 0;
  acc := 0.0;
  while k < n do
    k := k + 1;
    acc := acc + min(w[k], 2.0);
    a[k] := acc / float(trunc(w[k]) + 1);
  end;
  forall q in 1..n on a[q].loc do a[q] := a[q] - acc; end;
  forall q in 1..k on a[q].loc do a[q] := a[q] * 0.5; end;
  for q in 1..n do a[q] := w[n + 1 - q] * 0.5; end;
end.
`, n)
}

// TestTopLevelStatementsAllocationFree: running top-level statements
// allocates nothing, whatever the trip counts, compiled (their registers
// are the globals' home) and walked (every name is a slot, subscripts of
// rank <= 2 live in registers, builtin arguments are not boxed).
// (Before names were bound at check time each indexed assignment cost
// two allocations.)
func TestTopLevelStatementsAllocationFree(t *testing.T) {
	t.Run("vm", func(t *testing.T) { topLevelAllocationFree(t, (*interp).exec) })
	t.Run("walker", func(t *testing.T) { topLevelAllocationFree(t, (*interp).walk) })
}

func topLevelAllocationFree(t *testing.T, exec func(*interp)) {
	for _, n := range []int{8, 32} {
		prog, err := Compile(topLevelSrc(n))
		if err != nil {
			t.Fatal(err)
		}
		el, err := prog.elaborate(2)
		if err != nil {
			t.Fatal(err)
		}
		var pin alloctest.Pin
		core.Run(core.Config{P: el.procP, Params: machine.Ideal()}, func(ctx *core.Context) {
			in := newInterp(prog.file, ctx, el)
			in.declareArrays()
			pin.Run(ctx.Node, 2, 5, func() { exec(in) })
		})
		pin.Check(t, fmt.Sprintf("top-level statements, n=%d", n))
	}
}

// TestIntStoreBumpsEveryNode: a top-level store to one element of an
// integer array that drives a forall's references changes the array's
// version on every node, owner or not, so that every node rebuilds the
// forall's schedule at its next execution — an inspector rebuild is
// collective, and a node replaying its cached schedule while its peers
// rebuild would leave them waiting on it forever.  Compiled and walked,
// the run finishes with the one-processor answer.
func TestIntStoreBumpsEveryNode(t *testing.T) {
	const src = `processors Procs : array[1..P] with P in 1..8;
const n = 16;
var a, b : array[1..n] of real dist by [block] on Procs;
    idx : array[1..n] of integer dist by [block] on Procs;
    i, s : integer;
begin
  for i in 1..n do idx[i] := n + 1 - i; b[i] := float(i); end;
  for s in 1..3 do
    forall i in 1..n on a[i].loc do a[i] := b[idx[i]]; end;
    idx[3] := 4 + s;
  end;
end.
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	for mode, run := range map[string]func(*Program, core.Config) (*Result, error){
		"vm":     func(p *Program, cfg core.Config) (*Result, error) { return p.Run(cfg) },
		"walker": (*Program).walked,
	} {
		done := make(chan []float64, 1)
		go func() {
			res, err := run(prog, core.Config{P: 4, Params: machine.NCUBE7()})
			if err != nil {
				t.Error(err)
				done <- nil
				return
			}
			done <- res.Arrays["a"]
		}()
		select {
		case a := <-done:
			if want := "[16 15 6 13 12 11 10 9 8 7 6 5 4 3 2 1]"; fmt.Sprint(a) != want {
				t.Errorf("%s: a = %v, want %s", mode, a, want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: the run did not finish: the nodes disagree about rebuilding a schedule", mode)
		}
	}
}

// TestTopLevelDivByZeroFailsOnEveryP: only the owner of the element
// evaluates a top-level right-hand side, but a run in which it panics
// still fails, on any processor count.
func TestTopLevelDivByZeroFailsOnEveryP(t *testing.T) {
	src := `
processors Procs : array[1..P] with P in 1..8;
const n = 8;
var a : array[1..n] of real dist by [block] on Procs;
    z : integer;
begin
  z := 0;
  a[n] := float(7 div z);
end.
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		if _, err := prog.Run(core.Config{P: p, Params: machine.Ideal()}); err == nil {
			t.Fatalf("P=%d: integer division by zero on the owner did not fail the run", p)
		}
	}
}

// TestTopLevelTrapsMatchWalker: a division by zero and an out-of-range
// subscript at the top level — in a scalar assignment, a right-hand
// side, a forall bound, a store of every rank and type, a replicated
// read — fail the run with the walker's error text on the VM, on one
// processor and on four.
func TestTopLevelTrapsMatchWalker(t *testing.T) {
	const head = `processors Procs : array[1..P] with P in 1..8;
const n = 8;
var a : array[1..n] of real dist by [block] on Procs;
    u : array[1..n, 1..3] of real dist by [cyclic, *] on Procs;
    v : array[1..2, 1..n, 1..3] of real dist by [*, block, *] on Procs;
    k : array[1..n] of integer dist by [block] on Procs;
    w : array[1..n, 1..n] of real;
    x : real;
    z, m : integer;
begin
  z := 0;
  m := n + 1;
`
	for _, c := range []struct{ stmt, want string }{
		{"x := float(n mod z);", "integer divide by zero"},
		{"a[n] := float(7 div z);", "integer divide by zero"},
		{"forall i in 1..n div z on a[i].loc do a[i] := 1.0; end;", "integer divide by zero"},
		{"a[m] := 1.0;", "out of [1..8]"},
		{"u[2, m - 5] := 1.0;", "out of [1..3]"},
		{"v[1, m, 1] := 1.0;", "out of [1..8]"},
		{"k[z] := 1;", "out of [1..8]"},
		{"x := w[1, m];", "(1,9) out of [8 8]"},
	} {
		prog, err := Compile(head + "  " + c.stmt + "\nend.\n")
		if err != nil {
			t.Fatalf("%s: %v", c.stmt, err)
		}
		for _, p := range []int{1, 4} {
			cfg := core.Config{P: p, Params: machine.Ideal()}
			_, vmErr := prog.Run(cfg)
			_, walkErr := prog.walked(cfg)
			if vmErr == nil || walkErr == nil || vmErr.Error() != walkErr.Error() ||
				!strings.HasPrefix(vmErr.Error(), "lang: runtime error: ") || !strings.Contains(vmErr.Error(), c.want) {
				t.Errorf("P=%d %s: vm error %q, walker error %q; want both the same, naming %q", p, c.stmt, vmErr, walkErr, c.want)
			}
		}
	}
}

// TestImplicitLoopVariableScope: the variable a for loop declares
// implicitly is gone after the loop, at the top level and in a forall
// body, and the diagnostic carries the line of the use; the name is
// free for a sibling loop.
func TestImplicitLoopVariableScope(t *testing.T) {
	for _, c := range []struct {
		body string
		line int
	}{
		{"for q in 1..n do a[q] := 0.0; end;\nfor q in 1..n do b[q] := 1.0; end;\ni := q;", 12},
		{"forall i in 1..n on a[i].loc do\n  for q in 1..2 do a[i] := float(q); end;\n  a[i] := float(q);\nend;", 12},
	} {
		_, err := Compile(header + "begin\n" + c.body + "\nend.")
		var le *Error
		if !errors.As(err, &le) || le.Line != c.line || le.Msg != `undeclared name "q"` {
			t.Errorf("got %v, want %d:1: undeclared name \"q\"\n%s", err, c.line, c.body)
		}
	}
}

// TestBuiltinNamesStayFree: a call resolves among the predeclared
// functions and a reduce among the reductions only, so a user scalar
// may be called max, be assigned from the function max and be reduced
// into by the reduction max — at the top level and in a forall body, on
// the VM and the walker alike.
func TestBuiltinNamesStayFree(t *testing.T) {
	src := `
processors Procs : array[1..P] with P in 1..8;
const n = 8;
var a : array[1..n] of real dist by [block] on Procs;
    max : real;
    i : integer;
begin
  max := max(1.0, 2.0);
  for i in 1..n do a[i] := float(i) * max / 2.0; end;
  forall i in 1..n on a[i].loc do
    a[i] := max(a[i], max - 1.0);
  end;
  reduce max(a) into max;
end.
`
	for _, p := range []int{1, 4} {
		if res := diffVMWalker(t, src, p); res.Scalars["max"] != 8 {
			t.Fatalf("P=%d: max = %g, want 8", p, res.Scalars["max"])
		}
	}
}

// TestLocalShadowsConstInSubscript: a forall local named like a global
// constant is the local in a subscript too, so the read is classified
// by what the name is bound to — here data-dependent, not the affine
// b[i + 5] the constant would make it (whose schedule lacks b[i + 1]).
func TestLocalShadowsConstInSubscript(t *testing.T) {
	src := `
processors Procs : array[1..P] with P in 1..8;
const n = 8;
      k = 5;
var a, b : array[1..n] of real dist by [block] on Procs;
    i : integer;
begin
  for i in 1..n do b[i] := float(i); end;
  forall i in 1..n-1 on a[i].loc do
    var k : integer;
    k := 1;
    a[i] := b[i + k];
  end;
end.
`
	res := diffVMWalker(t, src, 4)
	for i, v := range res.Arrays["a"][:7] {
		if v != float64(i+2) {
			t.Fatalf("a[%d] = %g, want %d", i+1, v, i+2)
		}
	}
}

// TestForallLocalShadowsGlobal: a forall local named like a global
// scalar is the local inside the body, for the walker and the VM
// alike, and the global keeps its value.
func TestForallLocalShadowsGlobal(t *testing.T) {
	src := header + `begin
  x := 5.0;
  for i in 1..n do a[i] := 1.0; end;
  forall i in 1..n on a[i].loc do
    var x : real;
    a[i] := a[i] + x;
    x := float(i);
    a[i] := a[i] + x;
  end;
end.
`
	diffVMWalker(t, src, 4)
	res := run(t, src, 4)
	for i, v := range res.Arrays["a"] {
		// The log holds both stores; the second, 1 + i, wins at commit.
		if v != float64(i+2) {
			t.Fatalf("a[%d] = %g, want %d (the local x, zero at entry)", i+1, v, i+2)
		}
	}
	if res.Scalars["x"] != 5 {
		t.Fatalf("global x = %g after the loop, want 5", res.Scalars["x"])
	}
}
