package lang

import (
	"errors"
	"strings"
	"testing"

	"kali/internal/core"
	"kali/internal/machine"
)

// The single constant evaluator behind Check-time folding must reject
// overflow and division by zero with positioned diagnostics — a wrong
// constant poisons every distribution and schedule built from it.

const constProgTail = "var x : integer;\nbegin\n  x := 1;\nend.\n"

func constDiag(t *testing.T, src string) string {
	t.Helper()
	_, err := Compile(src)
	if err == nil {
		t.Fatalf("program compiled, want constant diagnostic:\n%s", src)
	}
	return err.Error()
}

func TestConstAddOverflowDiagnostic(t *testing.T) {
	src := "processors Procs : array[1..P] with P in 1..8;\n" +
		"const big = 9223372036854775807;\n" +
		"      bang = big + 1;\n" + constProgTail
	msg := constDiag(t, src)
	if !strings.Contains(msg, "constant overflow") {
		t.Fatalf("error %q does not mention constant overflow", msg)
	}
	if !strings.HasPrefix(msg, "3:") {
		t.Fatalf("error %q does not carry the source line of the offending expression", msg)
	}
}

func TestConstMulOverflowDiagnostic(t *testing.T) {
	src := "processors Procs : array[1..P] with P in 1..8;\n" +
		"const big = 4611686018427387904;\n" +
		"      bang = big * 4;\n" + constProgTail
	msg := constDiag(t, src)
	if !strings.Contains(msg, "constant overflow") || !strings.HasPrefix(msg, "3:") {
		t.Fatalf("unexpected diagnostic %q", msg)
	}
}

func TestConstDivZeroDiagnostic(t *testing.T) {
	src := "processors Procs : array[1..P] with P in 1..8;\n" +
		"const z = 1 div 0;\n" + constProgTail
	msg := constDiag(t, src)
	if !strings.Contains(msg, "constant division by zero") || !strings.HasPrefix(msg, "2:") {
		t.Fatalf("unexpected diagnostic %q", msg)
	}
}

func TestConstModZeroDiagnostic(t *testing.T) {
	src := "processors Procs : array[1..P] with P in 1..8;\n" +
		"const z = 3 mod 0;\n" + constProgTail
	msg := constDiag(t, src)
	if !strings.Contains(msg, "constant mod by zero") || !strings.HasPrefix(msg, "2:") {
		t.Fatalf("unexpected diagnostic %q", msg)
	}
}

// P-dependent constants cannot fold at Check time; their evaluation —
// and any arithmetic fault in it — surfaces as an elaboration error
// from Run, not a crash.
func TestPDependentConstEvaluatedAtElaboration(t *testing.T) {
	src := "processors Procs : array[1..P] with P in 1..8;\n" +
		"const n = P * 4;\n" +
		"var a : array[1..n] of real dist by [block] on Procs;\n" +
		"    i : integer;\n" +
		"begin\n" +
		"  for i in 1..n do\n" +
		"    a[i] := float(i);\n" +
		"  end;\n" +
		"end.\n"
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("P-dependent constant must defer, got Check error: %v", err)
	}
	res, err := prog.Run(core.Config{P: 4, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Arrays["a"]); got != 16 {
		t.Fatalf("n = P*4 should elaborate to 16 with P=4, array has %d elements", got)
	}
}

func TestPDependentConstFaultIsRunError(t *testing.T) {
	src := "processors Procs : array[1..P] with P in 1..8;\n" +
		"const z = 1 div (P - P);\n" + constProgTail
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("fault depends on P, must not surface at Check time: %v", err)
	}
	if _, err := prog.Run(core.Config{P: 2, Params: machine.Ideal()}); err == nil {
		t.Fatal("Run succeeded, want division-by-zero elaboration error")
	} else if !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("unexpected error %q", err)
	}
}

// TestBadArrayBoundsAreElaborationErrors: an array bound that is not
// 1..hi with hi >= 1 — folded at Check time or depending on P — is a
// *Error at the declaration's line from elaboration, on the host,
// before any node starts, and Run returns it as it is.
func TestBadArrayBoundsAreElaborationErrors(t *testing.T) {
	for _, c := range []struct{ consts, dims, want string }{
		{"const n = 8;", "0..n", `array "a": lower bound is 0, must be 1`},
		{"const n = P - 8;", "1..n", `array "a": upper bound is -6, must be at least 1`},
	} {
		src := "processors Procs : array[1..P] with P in 1..8;\n" +
			c.consts + "\n" +
			"var a : array[" + c.dims + "] of real dist by [block] on Procs;\n" +
			"begin\nend.\n"
		prog, err := Compile(src)
		if err != nil {
			t.Fatalf("%s: Check error %v, want the bound to pass Check", c.dims, err)
		}
		_, elabErr := prog.elaborate(2)
		res, runErr := prog.Run(core.Config{P: 2, Params: machine.Ideal()})
		var le *Error
		if !errors.As(elabErr, &le) || le.Line != 3 || !strings.Contains(le.Msg, c.want) {
			t.Errorf("%s: elaboration error %v, want a *Error at line 3 saying %q", c.dims, elabErr, c.want)
			continue
		}
		if res != nil || !errors.As(runErr, &le) || runErr.Error() != elabErr.Error() {
			t.Errorf("%s: Run returned %v, %v; want no result and the elaboration *Error", c.dims, res, runErr)
		}
	}
}

// Folded constants must agree with what elaboration would have
// computed, including negative and real-valued ones.
func TestFoldedConstValues(t *testing.T) {
	src := "processors Procs : array[1..P] with P in 1..8;\n" +
		"const a = 6 * 7;\n" +
		"      b = -a;\n" +
		"      c = a div 5;\n" +
		"      d = a mod 5;\n" +
		"      e = 1.0 / 4.0;\n" + constProgTail
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]value{
		"a": intVal(42), "b": intVal(-42), "c": intVal(8), "d": intVal(2),
		"e": realVal(0.25),
	}
	for _, d := range prog.file.Consts {
		if !d.Folded {
			t.Fatalf("const %s not folded at Check time", d.Name)
		}
		if w := want[d.Name]; d.Val != w {
			t.Fatalf("const %s folded to %+v, want %+v", d.Name, d.Val, w)
		}
	}
}
