package lang

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"kali/internal/core"
	"kali/internal/machine"
	"kali/internal/mesh"
)

// fig1Program is the paper's Figure 1, completed with initialization.
const fig1Program = `
processors Procs : array[1..P] with P in 1..max_procs;
const max_procs = 64;
      N = 24;
var A : array[1..N] of real dist by [block] on Procs;
    B : array[1..N, 1..4] of real dist by [cyclic, *] on Procs;
    i : integer;
begin
    for i in 1..N do
        A[i] := float(i);
    end;
    forall i in 1..N-1 on A[i].loc do
        A[i] := A[i+1];
    end;
end.
`

func TestFigure1Shift(t *testing.T) {
	p, err := Compile(fig1Program)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4, 8} {
		res, err := p.Run(core.Config{P: procs, Params: machine.Ideal()})
		if err != nil {
			t.Fatal(err)
		}
		a := res.Arrays["A"]
		for i := 1; i <= 23; i++ {
			if a[i-1] != float64(i+1) {
				t.Fatalf("P=%d: A[%d] = %g, want %d", procs, i, a[i-1], i+1)
			}
		}
		if a[23] != 24 {
			t.Fatalf("A[24] = %g", a[23])
		}
	}
}

// fig4Program is testdata/relax.kali, the paper's Figure 4 relaxation
// on an nx×ny rectangular mesh, with its size and sweep count
// substituted for the file's constants.
func fig4Program(t *testing.T, nx, ny, sweeps int) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "relax.kali"))
	if err != nil {
		t.Fatal(err)
	}
	s := string(src)
	for name, v := range map[string]int{"nx": nx, "ny": ny, "sweeps": sweeps} {
		decl := regexp.MustCompile(`\b` + name + ` = \d+;`)
		if len(decl.FindAllString(s, -1)) != 1 {
			t.Fatalf("relax.kali: want one %q constant", name)
		}
		s = decl.ReplaceAllString(s, fmt.Sprintf("%s = %d;", name, v))
	}
	return s
}

func TestFigure4Relaxation(t *testing.T) {
	const nx, ny, sweeps = 12, 10, 8
	prog, err := Compile(fig4Program(t, nx, ny, sweeps))
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: the mesh package's sequential Jacobi.  The program's
	// boundary profile matches mesh.InitValues.
	m := mesh.Rect(nx, ny)
	want := mesh.SeqJacobi(m, mesh.InitValues(m), sweeps)
	for _, procs := range []int{1, 2, 4} {
		res, err := prog.Run(core.Config{P: procs, Params: machine.Ideal()})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Arrays["a"]
		if d := mesh.MaxDelta(got, want); d > 1e-12 {
			t.Fatalf("P=%d: language result differs from oracle by %g", procs, d)
		}
		if res.Scalars["delta"] <= 0 {
			t.Fatalf("convergence delta not computed: %v", res.Scalars["delta"])
		}
	}
}

// TestFigure4InspectorAmortized: the Figure 4 program's relaxation
// forall uses the inspector once; inspector time does not grow with
// sweeps.
func TestFigure4InspectorAmortized(t *testing.T) {
	p8, err := Compile(fig4Program(t, 12, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(fig4Program(t, 12, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := p8.Run(core.Config{P: 4, Params: machine.NCUBE7()})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.Run(core.Config{P: 4, Params: machine.NCUBE7()})
	if err != nil {
		t.Fatal(err)
	}
	if r8.Report.Inspector != r2.Report.Inspector {
		t.Fatalf("inspector grew with sweeps: %g vs %g",
			r2.Report.Inspector, r8.Report.Inspector)
	}
	if r8.Report.Executor <= r2.Report.Executor {
		t.Fatal("executor did not grow with sweeps")
	}
}

// TestRealEstateAgent: the with clause caps P.
func TestRealEstateAgent(t *testing.T) {
	src := `
processors Procs : array[1..P] with P in 1..4;
const n = 16;
var a : array[1..n] of real dist by [block] on Procs;
    i : integer;
begin
    for i in 1..n do a[i] := 1.0; end;
end.
`
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(core.Config{P: 16, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 4 {
		t.Fatalf("real estate agent chose P=%d, want 4", res.P)
	}
}

// TestCyclicDistProgram: same shift with cyclic distribution — every
// iteration communicates, but the answer is unchanged.
func TestCyclicDistProgram(t *testing.T) {
	src := strings.Replace(fig1Program, "dist by [block]", "dist by [cyclic]", 1)
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(core.Config{P: 4, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Arrays["A"]
	for i := 1; i <= 23; i++ {
		if a[i-1] != float64(i+1) {
			t.Fatalf("A[%d] = %g", i, a[i-1])
		}
	}
}

// TestBlockCyclicProgram exercises block_cyclic(b) syntax.
func TestBlockCyclicProgram(t *testing.T) {
	src := strings.Replace(fig1Program, "dist by [block]", "dist by [block_cyclic(3)]", 1)
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(core.Config{P: 4, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrays["A"][0] != 2 {
		t.Fatal("block_cyclic shift wrong")
	}
}

// TestSubscriptClassification verifies the checker's analysis: affine
// subscripts go to the compile-time path, indirect ones force the
// inspector (observable through inspector-phase time).
func TestSubscriptClassification(t *testing.T) {
	affine := `
processors Procs : array[1..P] with P in 1..8;
const n = 64;
var a, b : array[1..n] of real dist by [block] on Procs;
    i : integer;
begin
    forall i in 2..n on a[i].loc do
        a[i] := b[i-1] + b[i];
    end;
end.
`
	p, err := Compile(affine)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(core.Config{P: 4, Params: machine.NCUBE7()})
	if err != nil {
		t.Fatal(err)
	}
	// Compile-time path: inspector phase exists but is tiny (a couple
	// of symbolic evaluations), far below one RefCheck per reference.
	if res.Report.Inspector > 64*48e-6/2 {
		t.Fatalf("affine loop paid inspector-like cost: %g s", res.Report.Inspector)
	}

	indirect := `
processors Procs : array[1..P] with P in 1..8;
const n = 64;
var a, b : array[1..n] of real dist by [block] on Procs;
    idx : array[1..n] of integer dist by [block] on Procs;
    i : integer;
begin
    for i in 1..n do idx[i] := n + 1 - i; end;
    for i in 1..n do b[i] := float(i); end;
    forall i in 1..n on a[i].loc do
        a[i] := b[ idx[i] ];
    end;
end.
`
	p2, err := Compile(indirect)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := p2.Run(core.Config{P: 4, Params: machine.NCUBE7()})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report.Inspector < 64*48e-6/4 {
		t.Fatalf("indirect loop did not pay inspector cost: %g s", res2.Report.Inspector)
	}
	// And the gather is correct.
	b := res2.Arrays["a"]
	for i := 1; i <= 64; i++ {
		if b[i-1] != float64(64+1-i) {
			t.Fatalf("a[%d] = %g", i, b[i-1])
		}
	}
}

func TestIntArrayGather(t *testing.T) {
	src := `
processors Procs : array[1..P] with P in 1..4;
const n = 8;
var c : array[1..n] of integer dist by [cyclic] on Procs;
    i : integer;
begin
    for i in 1..n do c[i] := i * 3; end;
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
		if res.IntArrays["c"][i-1] != i*3 {
			t.Fatalf("c[%d] = %d", i, res.IntArrays["c"][i-1])
		}
	}
}

func TestReplicatedArrayProgram(t *testing.T) {
	src := `
processors Procs : array[1..P] with P in 1..4;
const n = 8;
var a : array[1..n] of real dist by [block] on Procs;
    w : array[1..n] of real;
    i : integer;
begin
    for i in 1..n do w[i] := float(i) * 2.0; end;
    forall i in 1..n on a[i].loc do
        a[i] := w[i] + 1.0;
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
	for i := 1; i <= 8; i++ {
		if res.Arrays["a"][i-1] != float64(i)*2+1 {
			t.Fatalf("a[%d] = %g", i, res.Arrays["a"][i-1])
		}
	}
	if res.Arrays["w"][3] != 8 {
		t.Fatal("replicated array not gathered")
	}
}
