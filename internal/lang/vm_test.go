package lang

import (
	"testing"

	"kali/internal/alloctest"
	"kali/internal/comm"
	"kali/internal/core"
	"kali/internal/forall"
	"kali/internal/machine"
)

// foralls lists every forall statement of a program, in source order.
func foralls(ss []Stmt) []*Forall {
	var out []*Forall
	for _, s := range ss {
		switch s := s.(type) {
		case *Forall:
			out = append(out, s)
		case *ForLoop:
			out = append(out, foralls(s.Body)...)
		case *While:
			out = append(out, foralls(s.Body)...)
		case *If:
			out = append(out, foralls(s.Then)...)
			out = append(out, foralls(s.Else)...)
		}
	}
	return out
}

// findForall returns the n-th forall statement of the program, or nil.
func findForall(ss []Stmt, n int) *Forall {
	if all := foralls(ss); n < len(all) {
		return all[n]
	}
	return nil
}

// TestVMReplayAllocationFree: once a forall's schedule is cached and
// its vmState built, replaying the body — including a nonlocal affine
// read, a local stencil read, a builtin call and a conditional —
// performs zero heap allocations across the whole machine, compiled
// (the property the bytecode VM was built for) and walked (the walker
// oracle runs a loop's iterations on one slot-indexed frame).  So does
// a straight-line body, whose interiors run column-wise: its vector
// files are cut at the first segment, which the warm-up runs.  And so
// does the shifted 2-D stencil, whose boundary runs as segments: halo
// rows column-wise, halo columns by points, against local rows and runs
// of the receive buffer, each classification's clock stepper made by
// the warm-up.
func TestVMReplayAllocationFree(t *testing.T) {
	const branching = `
    var t : real;
    t := v[i-1] + v[i+1];
    if t > u[i] then
      u[i] := min(t, u[i] + 1.0);
    else
      u[i] := max(t, u[i] - 1.0);
    end;`
	const straight = `
    var t : real;
    t := v[i-1] + v[i+1];
    w[i] := min(t, float(i)) * 0.5;`
	t.Run("vm", func(t *testing.T) { replayAllocationFree(t, replaySrc(branching), (*interp).exec, false) })
	t.Run("walker", func(t *testing.T) { replayAllocationFree(t, replaySrc(branching), (*interp).walk, false) })
	t.Run("column", func(t *testing.T) { replayAllocationFree(t, replaySrc(straight), (*interp).exec, true) })
	t.Run("boundary", func(t *testing.T) { replayAllocationFree(t, stencilProgram(24, 20, 1), (*interp).exec, true) })
}

// replaySrc is a rank-1 program whose one forall has body.
func replaySrc(body string) string {
	return `
processors Procs : array[1..P] with P in 1..4;
const n = 64;
var u, v, w : array[1..n] of real dist by [block] on Procs;
    i : integer;
begin
  for i in 1..n do
    u[i] := float(i) * 0.5;
    v[i] := float(n - i);
  end;
  forall i in 2..n-1 on u[i].loc do` + body + `
  end;
end.
`
}

// replayAllocationFree pins the replay of src's last forall, which
// exec, the node's statement runner, launched first.  With column set its interior must have run column-wise, and whatever
// boundary the node has by segments.
func replayAllocationFree(t *testing.T, src string, exec func(*interp), column bool) {
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	el, err := prog.elaborate(4)
	if err != nil {
		t.Fatal(err)
	}
	all := foralls(prog.file.Main)
	if len(all) == 0 {
		t.Fatal("no forall in program")
	}
	fa := all[len(all)-1]

	const warmup, reps = 5, 20
	cfg := core.Config{P: el.procP, Params: machine.Ideal()}
	mach, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Machine = mach
	pin := alloctest.Pin{Pool: func() comm.PoolStats { return forall.MachinePoolStats(mach) }}
	core.Run(cfg, func(ctx *core.Context) {
		in := newInterp(prog.file, ctx, el)
		in.declareArrays()
		exec(in)
		pin.Run(ctx.Node, warmup, reps, func() { in.execStmt(fa, nil, nil) })
		if ran := in.vms[fa] != nil && in.vms[fa].colIters > 0; ran != column {
			t.Errorf("node %d: column-wise kernel ran: %v, want %v", ctx.ID(), ran, column)
		}
		if eng := ctx.Eng; column && eng.BoundarySegmentIters() != eng.BoundaryIters() {
			t.Errorf("node %d: %d of %d boundary iterations by segments, want all", ctx.ID(), eng.BoundarySegmentIters(), eng.BoundaryIters())
		}
	})
	pin.Check(t, "steady-state forall replay")
}

// TestVMStrengthReduction: affine subscripts compile to opLinI (or
// vanish for the identity), never to general expression code.
func TestVMStrengthReduction(t *testing.T) {
	src := `
processors Procs : array[1..P] with P in 1..4;
const n = 32;
var a, b : array[1..n] of real dist by [block] on Procs;
    i : integer;
begin
  for i in 1..n do a[i] := float(i); b[i] := 0.0; end;
  forall i in 1..n div 2 on b[2*i].loc do
    b[2*i] := a[2*i-1];
  end;
end.
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	el, err := prog.elaborate(2)
	if err != nil {
		t.Fatal(err)
	}
	fa := findForall(prog.file.Main, 0)
	cb := el.compiled[fa]
	if cb == nil {
		t.Fatal("forall not compiled")
	}
	lin, mul := 0, 0
	for _, ins := range cb.code {
		switch ins.op {
		case opLinI:
			lin++
		case opMulI, opSubI:
			mul++
		}
	}
	if lin != 2 {
		t.Fatalf("want 2 opLinI (2*i and 2*i-1), got %d in %d instrs", lin, len(cb.code))
	}
	if mul != 0 {
		t.Fatalf("affine subscripts must strength-reduce, found %d general int ops", mul)
	}
}

// TestVMConstantFolding: const subexpressions collapse into pinned
// registers — no arithmetic instructions — while still charging the
// walker's flops (checked by the differential tests; here we check the
// instruction stream shape).
func TestVMConstantFolding(t *testing.T) {
	src := `
processors Procs : array[1..P] with P in 1..4;
const n = 16;
      w = 4;
var a : array[1..n] of real dist by [block] on Procs;
    i : integer;
begin
  for i in 1..n do a[i] := 0.0; end;
  forall i in 1..n on a[i].loc do
    a[i] := 1.0 / float(w * 2);
  end;
end.
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	el, err := prog.elaborate(2)
	if err != nil {
		t.Fatal(err)
	}
	cb := el.compiled[findForall(prog.file.Main, 0)]
	if cb == nil {
		t.Fatal("forall not compiled")
	}
	for _, ins := range cb.code {
		switch ins.op {
		case opDivF, opMulI, opIntToF:
			t.Fatalf("constant expression 1.0/float(w*2) must fold, found %v", ins.op)
		}
	}
	// The folded flops (mul, float, div) must still be charged.
	flops := int32(0)
	for _, ins := range cb.code {
		if ins.op == opFlops {
			flops += ins.a
		}
	}
	if flops != 3 {
		t.Fatalf("folded body must charge 3 flops (mul, float, div), charges %d", flops)
	}
}

// TestVMScalarRebinding: a global scalar read inside a forall is
// re-bound at every launch — a second execution after the scalar
// changes must see the new value.
func TestVMScalarRebinding(t *testing.T) {
	src := `
processors Procs : array[1..P] with P in 1..4;
const n = 16;
var a : array[1..n] of real dist by [block] on Procs;
    scale : real;
    i, rep : integer;
begin
  for i in 1..n do a[i] := 1.0; end;
  for rep in 1..3 do
    scale := float(rep) * 10.0;
    forall i in 1..n on a[i].loc do
      a[i] := a[i] + scale;
    end;
  end;
end.
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(core.Config{P: 2, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 10 + 20 + 30 = 61 everywhere.
	for i, v := range res.Arrays["a"] {
		if v != 61.0 {
			t.Fatalf("a[%d] = %g, want 61 (scalar not re-bound per launch)", i+1, v)
		}
	}
}
