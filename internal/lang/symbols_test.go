package lang

import (
	"errors"
	"fmt"
	"testing"

	"kali/internal/alloctest"
	"kali/internal/core"
	"kali/internal/machine"
)

// topLevelSrc is a program that is all sequential SPMD code: a nested
// init with builtin calls and div/mod, an if/else, a while on a scalar
// counter, an implicit loop variable (q, twice) and reads of a
// replicated array.
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
  for q in 1..n do a[q] := w[n + 1 - q] * 0.5; end;
end.
`, n)
}

// TestTopLevelStatementsAllocationFree: interpreting top-level
// statements allocates nothing, whatever the trip counts — every name
// is a slot, subscripts of rank <= 2 live in registers, builtin
// arguments are not boxed.  (Before names were bound at check time each
// indexed assignment cost two allocations.)
func TestTopLevelStatementsAllocationFree(t *testing.T) {
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
			pin.Run(ctx.Node, 2, 5, func() { in.execStmts(prog.file.Main, nil, nil) })
		})
		pin.Check(t, fmt.Sprintf("top-level statements, n=%d", n))
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
