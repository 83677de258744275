package lang

import (
	"strings"
	"testing"

	"kali/internal/core"
	"kali/internal/machine"
)

// compileErr asserts that src fails to compile with a message
// containing want.
func compileErr(t *testing.T, src, want string) {
	t.Helper()
	_, err := Compile(src)
	if err == nil {
		t.Fatalf("expected error containing %q, got success", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err.Error(), want)
	}
}

const header = `
processors Procs : array[1..P] with P in 1..8;
const n = 16;
var a, b : array[1..n] of real dist by [block] on Procs;
    k : array[1..n] of integer dist by [block] on Procs;
    w : array[1..n] of real;
    x : real;
    i : integer;
`

func TestLexerErrors(t *testing.T) {
	compileErr(t, "processors !", "unexpected character")
}

// parserErrorCases and checkerErrorCases are the diagnostic tables:
// each source fails to compile with a message containing want.  They
// also seed FuzzParseCheck's corpus.
var parserErrorCases = []struct{ src, want string }{
	{"begin end", "lacks a processors"},
	{"var x : real;", "expected declaration or begin"},
	{header + "begin x := ; end.", "expected expression"},
	{header + "begin x := 1.0 end.", "expected ;"},
	{header + "begin forall i in 1..n do x := 1.0; end; end.", "expected on"},
	{header + "begin forall i in 1..n on a[i] do x := 1.0; end; end.", "expected ."},
	{header + "begin if x then x := 1.0; end; end.", "must be boolean"},
	{"processors A : array[2..4];", "must start at 1"},
	{"processors A : array[1..Q];", "needs a with clause"},
	{"processors A : array[1..Q] with R in 1..4;", "must match"},
	{header + "const ;", "declares nothing"},
	{header + "var ;", "declares nothing"},
	{header + "begin while true do x := 1.0;", "unexpected end of file"},
}

func TestParserErrors(t *testing.T) {
	for _, c := range parserErrorCases {
		compileErr(t, c.src, c.want)
	}
}

var checkerErrorCases = []struct{ src, want string }{
	// type errors
	{header + "begin x := true; end.", "cannot assign"},
	{header + "begin i := 1.5; end.", "cannot assign"},
	{header + "begin x := y; end.", "undeclared name"},
	{header + "begin x := a; end.", "without subscripts"},
	{header + "begin x := x[1]; end.", "is not an array"},
	{header + "begin a[1.5] := 1.0; end.", "index must be an integer"},
	{header + "begin a[1,2] := 1.0; end.", "1 dimensions"},
	{header + "begin x := abs(1,2); end.", "takes 1 argument"},
	{header + "begin x := nosuch(1); end.", "unknown function"},
	{header + "begin x := 1 + true; end.", "arithmetic on booleans"},
	{header + "begin x := not 1; end.", "not needs a boolean"},
	{header + "begin i := 1 mod 1.5; end.", "mod needs integers"},
	// distributed-array discipline
	{header + "begin x := a[1]; end.", "outside a forall"},
	{header + "begin forall i in 1..n on w[i].loc do a[i] := 1.0; end; end.",
		"needs a distributed one-dimensional array"},
	{header + "begin forall i in 1..n on a[i*i].loc do a[i] := 1.0; end; end.",
		"must be affine"},
	{header + "begin forall i in 1..n on a[i].loc do w[i] := 1.0; end; end.",
		"replicated array"},
	{header + "begin forall i in 1..n on a[i].loc do k[i] := 1; end; end.",
		"only real arrays"},
	{header + "begin forall i in 1..n on a[i].loc do x := 1.0; end; end.",
		"global scalar"},
	{header + "begin forall i in 1..n on a[i].loc do forall i in 1..n on a[i].loc do a[i] := 1.0; end; end; end.",
		"nested forall"},
	// reduce discipline
	{header + "begin reduce maxdiff(a) into x; end.", "takes 2"},
	{header + "begin reduce maxdiff(a, b) into i; end.", "must be a real scalar"},
	{header + "begin reduce maxdiff(a, w) into x; end.", "must be a distributed real array"},
	{header + "begin reduce frobnicate(a) into x; end.", "unknown reduction"},
	// declarations
	{"processors P1 : array[1..4];\nconst n = 16;\nvar a : array[1..n] of real dist by [block, *] on P1;\nbegin end.",
		"dist items"},
	{"processors P1 : array[1..4];\nvar a : array[1..8] of real dist by [block] on Nope;\nbegin end.",
		"unknown processor array"},
	{"processors P1 : array[1..4];\nvar a : array[1..8] of boolean dist by [block];\nbegin end.",
		"boolean arrays"},
	{"processors P1 : array[1..4];\nvar f : array[1..8] of boolean;\nbegin end.",
		"boolean arrays"},
	{"processors P1 : array[1..4];\nvar a : real;\nvar a : integer;\nbegin end.",
		"duplicate declaration"},
	{"processors P1 : array[1..4];\nvar m : integer;\nvar a : array[1..m] of real;\nbegin end.",
		"constant expressions"},
	// constant contexts are bound and typed by the checker, not
	// first evaluated at run time
	{"processors Procs : array[1..P] with P in 1..nosuch;\nbegin end.",
		`1:1: undeclared name "nosuch"`},
	{"processors Procs : array[1..P] with P in 1..8;\nconst n = 4;\nvar a : array[1..2.5] of real dist by [block] on Procs;\nbegin end.",
		`3:1: "a": array bounds must be integer constant expressions`},
	{"processors Procs : array[1..P] with P in 1..P;\nbegin end.",
		`1:1: processor bounds may not depend on "P"`},
	{header + "begin forall i in 1..n on k[i].loc do a[i] := 1.0; end; end.",
		`needs a distributed one-dimensional array, got "k"`},
}

func TestCheckerErrors(t *testing.T) {
	for _, c := range checkerErrorCases {
		compileErr(t, c.src, c.want)
	}
}

func TestRuntimeErrors(t *testing.T) {
	// Elaboration failure: too few processors for the with clause.
	src := `
processors Procs : array[1..P] with P in 8..8;
var a : array[1..16] of real dist by [block] on Procs;
begin end.
`
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(core.Config{P: 2, Params: machine.Ideal()}); err == nil {
		t.Fatal("expected elaboration error for insufficient processors")
	}
}

func TestAffineDetection(t *testing.T) {
	// Each subscript form must be accepted and produce correct results.
	for _, sub := range []string{"i", "i+1", "i-1", "1+i", "n-i", "2*i", "i*2", "-i+n"} {
		src := `
processors Procs : array[1..P] with P in 1..4;
const n = 10;
var a, b : array[1..2*n] of real dist by [block] on Procs;
    i : integer;
begin
    for i in 1..2*n do b[i] := float(i); end;
    forall i in 2..n-1 on a[i].loc do
        a[i] := b[` + sub + `];
    end;
end.
`
		p, err := Compile(src)
		if err != nil {
			t.Fatalf("subscript %q: %v", sub, err)
		}
		res, err := p.Run(core.Config{P: 4, Params: machine.NCUBE7()})
		if err != nil {
			t.Fatalf("subscript %q: %v", sub, err)
		}
		// Affine loops must not pay per-reference inspector cost.
		if res.Report.Inspector > 0.001 {
			t.Fatalf("subscript %q treated as indirect (inspector %g s)", sub, res.Report.Inspector)
		}
		// Check one representative value: i = 5.
		eval := map[string]int{"i": 5, "i+1": 6, "i-1": 4, "1+i": 6, "n-i": 5, "2*i": 10, "i*2": 10, "-i+n": 5}
		if got := res.Arrays["a"][4]; got != float64(eval[sub]) {
			t.Fatalf("subscript %q: a[5] = %g, want %d", sub, got, eval[sub])
		}
	}
}

func TestWhileAndIfElse(t *testing.T) {
	src := `
processors Procs : array[1..P] with P in 1..2;
var x : real;
    i : integer;
begin
    i := 0;
    x := 0.0;
    while i < 10 do
        if i mod 2 = 0 then
            x := x + 1.0;
        else
            x := x + 0.5;
        end;
        i := i + 1;
    end;
end.
`
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(core.Config{P: 2, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalars["x"] != 7.5 {
		t.Fatalf("x = %g, want 7.5", res.Scalars["x"])
	}
	if res.Scalars["i"] != 10 {
		t.Fatalf("i = %g", res.Scalars["i"])
	}
}

func TestBuiltins(t *testing.T) {
	src := `
processors Procs : array[1..P] with P in 1..2;
var x, y : real;
    i : integer;
begin
    x := abs(-3.0) + sqrt(16.0) + min(1.0, 2.0) + max(1.0, 2.0);
    i := trunc(3.9);
    y := float(i) / 2.0;
end.
`
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(core.Config{P: 1, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalars["x"] != 10 {
		t.Fatalf("x = %g", res.Scalars["x"])
	}
	if res.Scalars["i"] != 3 || res.Scalars["y"] != 1.5 {
		t.Fatalf("i=%g y=%g", res.Scalars["i"], res.Scalars["y"])
	}
}

func TestReduceOps(t *testing.T) {
	src := `
processors Procs : array[1..P] with P in 1..4;
const n = 8;
var a, b : array[1..n] of real dist by [cyclic] on Procs;
    c, d : array[1..n] of real dist by [block_cyclic(4)] on Procs;
    s, mx, mn, cmx, dmn : real;
    i : integer;
begin
    for i in 1..n do a[i] := float(i); b[i] := 0.0; c[i] := float(i) - 10.0; d[i] := float(i) + 10.0; end;
    reduce sum(a) into s;
    reduce max(a) into mx;
    reduce min(a) into mn;
    reduce max(c) into cmx;
    reduce min(d) into dmn;
end.
`
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(core.Config{P: 4, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalars["s"] != 36 || res.Scalars["mx"] != 8 || res.Scalars["mn"] != 1 {
		t.Fatalf("s=%g mx=%g mn=%g", res.Scalars["s"], res.Scalars["mx"], res.Scalars["mn"])
	}
	// Two of the four nodes own nothing of c and d; they must not
	// contribute a 0.
	if res.Scalars["cmx"] != -2 || res.Scalars["dmn"] != 11 {
		t.Fatalf("over empty partitions: max=%g min=%g, want -2 and 11", res.Scalars["cmx"], res.Scalars["dmn"])
	}
}

// TestMapDistClause: parsing, checking and running the map dist form.
func TestMapDistClause(t *testing.T) {
	// Well-formed: cyclic-by-hand via mod.
	src := `
processors Procs : array[1..P] with P in 1..8;
const n = 12;
var a : array[1..n] of real dist by [map(i : (i - 1) mod P)] on Procs;
    i : integer;
begin
    for i in 1..n do
        a[i] := float(i * i);
    end;
end.
`
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(core.Config{P: 4, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		if res.Arrays["a"][i-1] != float64(i*i) {
			t.Fatalf("a[%d] = %g", i, res.Arrays["a"][i-1])
		}
	}
}

// TestMapDistClauseErrors: malformed map clauses are rejected.
func TestMapDistClauseErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`
processors Procs : array[1..P] with P in 1..8;
const n = 8;
var a : array[1..n] of real dist by [map(i : 0.5)] on Procs;
begin end.`, "must be an integer"},
		{`
processors Procs : array[1..P] with P in 1..8;
const n = 8;
var x : real;
    a : array[1..n] of real dist by [map(i : i + trunc(x))] on Procs;
begin end.`, "computable from constants"},
		{`
processors Procs : array[1..P] with P in 1..8;
const n = 8;
var a : array[1..n] of real dist by [map(i)] on Procs;
begin end.`, "expected :"},
	}
	for _, c := range cases {
		compileErr(t, c.src, c.want)
	}
	// Owner values outside [0..P) surface at elaboration time.
	p, err := Compile(`
processors Procs : array[1..P] with P in 1..8;
const n = 8;
var a : array[1..n] of real dist by [map(i : n)] on Procs;
begin end.`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(core.Config{P: 4, Params: machine.Ideal()}); err == nil || !strings.Contains(err.Error(), "out of [0..") {
		t.Fatalf("want owner-range error, got %v", err)
	}
}

// header2 declares a 2-D processor grid and tiled arrays for the
// two-index forall tests.
const header2 = `
processors Procs : array[1..2, 1..2];
const n = 8;
var a2, b2 : array[1..n, 1..n] of real dist by [block, block] on Procs;
    i, j : integer;
`

// TestAffineOnClause2DAccepted: per-dimension affine on-clause
// subscripts (shifted, strided, reflected) are accepted, the placement
// does not change the computed values, and the loop stays on the
// compile-time path (no inspector-scale cost).
func TestAffineOnClause2DAccepted(t *testing.T) {
	cases := []struct {
		onI, onJ           string
		loI, hiI, loJ, hiJ string
		// mapI/mapJ mirror the on-clause subscripts in Go.
		mapI, mapJ func(int) int
		rI, rJ     [2]int // iteration ranges, inclusive
	}{
		{"i", "j", "1", "n", "1", "n",
			func(i int) int { return i }, func(j int) int { return j }, [2]int{1, 8}, [2]int{1, 8}},
		{"2*i", "j-1", "1", "n div 2", "2", "n",
			func(i int) int { return 2 * i }, func(j int) int { return j - 1 }, [2]int{1, 4}, [2]int{2, 8}},
		{"i+1", "2*j", "1", "n-1", "1", "n div 2",
			func(i int) int { return i + 1 }, func(j int) int { return 2 * j }, [2]int{1, 7}, [2]int{1, 4}},
		{"n-i", "j", "1", "n-1", "1", "n",
			func(i int) int { return 8 - i }, func(j int) int { return j }, [2]int{1, 7}, [2]int{1, 8}},
	}
	for _, cse := range cases {
		src := header2 + `
begin
    for i in 1..n do
        for j in 1..n do
            b2[i, j] := float(i*10 + j);
        end;
    end;
    forall i in ` + cse.loI + `..` + cse.hiI + `, j in ` + cse.loJ + `..` + cse.hiJ +
			` on a2[` + cse.onI + `, ` + cse.onJ + `].loc do
        a2[` + cse.onI + `, ` + cse.onJ + `] := b2[` + cse.onI + `, ` + cse.onJ + `];
    end;
end.
`
		p, err := Compile(src)
		if err != nil {
			t.Fatalf("on [%s, %s]: %v", cse.onI, cse.onJ, err)
		}
		res, err := p.Run(core.Config{P: 4, Params: machine.NCUBE7()})
		if err != nil {
			t.Fatalf("on [%s, %s]: %v", cse.onI, cse.onJ, err)
		}
		want := make([]float64, 64)
		for i := cse.rI[0]; i <= cse.rI[1]; i++ {
			for j := cse.rJ[0]; j <= cse.rJ[1]; j++ {
				r, c := cse.mapI(i), cse.mapJ(j)
				want[(r-1)*8+c-1] = float64(r*10 + c)
			}
		}
		for k, w := range want {
			if res.Arrays["a2"][k] != w {
				t.Fatalf("on [%s, %s]: a2[%d,%d] = %g, want %g",
					cse.onI, cse.onJ, k/8+1, k%8+1, res.Arrays["a2"][k], w)
			}
		}
		// Affine on clause + affine reads: compile-time, no inspector.
		if res.Report.Inspector > 0.001 {
			t.Fatalf("on [%s, %s]: paid inspector-scale cost (%g s)", cse.onI, cse.onJ, res.Report.Inspector)
		}
	}
}

// TestAffineOnClause2DRejected: non-affine, cross-variable, and
// variable-free on-clause subscripts are still rejected with the
// existing error code.
func TestAffineOnClause2DRejected(t *testing.T) {
	cases := []struct{ src, want string }{
		{header2 + "begin forall i in 1..n, j in 1..n on a2[i*i, j].loc do a2[i*i, j] := 1.0; end; end.",
			"must be affine"},
		{header2 + "begin forall i in 1..n, j in 1..n on a2[j, i].loc do a2[j, i] := 1.0; end; end.",
			"must be affine"},
		{header2 + "begin forall i in 1..n, j in 1..n on a2[i, i].loc do a2[i, i] := 1.0; end; end.",
			"must be affine"},
		{header2 + "begin forall i in 1..n, j in 1..n on a2[3, j].loc do a2[3, j] := 1.0; end; end.",
			"must be affine"},
	}
	for _, c := range cases {
		compileErr(t, c.src, c.want)
	}
	// A constant coefficient that evaluates to zero passes the check
	// phase (only elaboration knows const values) but is diagnosed
	// with its source line at run time.
	p, err := Compile(`
processors Procs : array[1..2, 1..2];
const n = 8;
      z = 0;
var a2 : array[1..n, 1..n] of real dist by [block, block] on Procs;
begin
    forall i in 1..n, j in 1..n on a2[z*i, j].loc do
        a2[z*i, j] := 1.0;
    end;
end.
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(core.Config{P: 4, Params: machine.Ideal()}); err == nil ||
		!strings.Contains(err.Error(), "evaluates to zero") || !strings.Contains(err.Error(), "line 7") {
		t.Fatalf("want line-numbered zero-coefficient error, got %v", err)
	}
}

// TestForall2CrossDistributionIdentityRead: an [i,j] read of an array
// distributed differently from the on array must not take the aligned
// local shortcut — the affine path derives the communication instead.
func TestForall2CrossDistributionIdentityRead(t *testing.T) {
	src := `
processors Procs : array[1..2, 1..2];
const n = 8;
var a : array[1..n, 1..n] of real dist by [block, block] on Procs;
    b : array[1..n, 1..n] of real dist by [cyclic, block] on Procs;
    i, j : integer;
begin
    for i in 1..n do
        for j in 1..n do
            b[i, j] := float(i * 100 + j);
        end;
    end;
    forall i in 1..n, j in 1..n on a[i,j].loc do
        a[i, j] := b[i, j];
    end;
end.
`
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(core.Config{P: 4, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		for j := 1; j <= 8; j++ {
			if got := res.Arrays["a"][(i-1)*8+j-1]; got != float64(i*100+j) {
				t.Fatalf("a[%d,%d] = %g, want %d", i, j, got, i*100+j)
			}
		}
	}
}
