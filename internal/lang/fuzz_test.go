package lang

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"kali/internal/core"
	"kali/internal/lang/langtest"
	"kali/internal/machine"
)

// TestQuickProgramsProcessorIndependent: every generated program
// yields bit-identical arrays on P = 1, 2 and 4.
func TestQuickProgramsProcessorIndependent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := langtest.GenProgram(r)
		prog, err := Compile(src)
		if err != nil {
			t.Fatalf("generated program failed to compile: %v\n%s", err, src)
		}
		var ref *Result
		for _, p := range []int{1, 2, 4} {
			res, err := prog.Run(core.Config{P: p, Params: machine.Ideal()})
			if err != nil {
				t.Fatalf("P=%d: %v\n%s", p, err, src)
			}
			if ref == nil {
				ref = res
				continue
			}
			for name, want := range ref.Arrays {
				got := res.Arrays[name]
				for i := range want {
					if got[i] != want[i] {
						t.Logf("program:\n%s", src)
						t.Logf("P=%d: %s[%d] = %g, want %g", p, name, i+1, got[i], want[i])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// diffVMWalker runs src twice — once through the bytecode VM, once
// through the tree walker — and fails unless the final arrays are
// bit-identical and the simulated cost report (time, messages, bytes)
// matches exactly.  The VM must be observationally invisible.  It
// returns the VM run's result, whose interior, segment and column-wise
// iteration counters say how much of the run each body path took.
func diffVMWalker(t *testing.T, src string, p int) *Result {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	cfg := core.Config{P: p, Params: machine.NCUBE7()}
	vm, err := prog.Run(cfg)
	if err != nil {
		t.Fatalf("vm run: %v\n%s", err, src)
	}
	walk, err := prog.walked(cfg)
	if err != nil {
		t.Fatalf("walker run: %v\n%s", err, src)
	}
	sameArrays(t, "vm against walker:\n"+src, vm, walk)
	if vm.Report.Total != walk.Report.Total ||
		vm.Report.Inspector != walk.Report.Inspector ||
		vm.Report.Executor != walk.Report.Executor {
		t.Fatalf("simulated times diverge: vm total=%v insp=%v exec=%v, walker total=%v insp=%v exec=%v\n%s",
			vm.Report.Total, vm.Report.Inspector, vm.Report.Executor,
			walk.Report.Total, walk.Report.Inspector, walk.Report.Executor, src)
	}
	if vm.Report.MsgsSent != walk.Report.MsgsSent || vm.Report.BytesSent != walk.Report.BytesSent {
		t.Fatalf("traffic diverges: vm %d msgs/%d bytes, walker %d msgs/%d bytes\n%s",
			vm.Report.MsgsSent, vm.Report.BytesSent,
			walk.Report.MsgsSent, walk.Report.BytesSent, src)
	}
	if walk.Report.SegmentIters != 0 || walk.ColumnIters != 0 || walk.Report.InteriorIters != vm.Report.InteriorIters {
		t.Fatalf("walker ran %d (%d column-wise) of %d interior iterations by segments; vm saw %d interior iterations\n%s",
			walk.Report.SegmentIters, walk.ColumnIters, walk.Report.InteriorIters, vm.Report.InteriorIters, src)
	}
	if w := walk.Report; w.BoundarySegmentIters != 0 || walk.BoundaryColumnIters != 0 || w.BoundaryIters != vm.Report.BoundaryIters {
		t.Fatalf("walker ran %d (%d column-wise) of %d boundary iterations by segments; vm saw %d boundary iterations\n%s",
			w.BoundarySegmentIters, walk.BoundaryColumnIters, w.BoundaryIters, vm.Report.BoundaryIters, src)
	}
	return vm
}

// TestQuickVMDifferential: every generated program — rank 1 on any
// processor count, rank 2 on the 2×2 grid — produces bit-identical
// arrays and an identical cost report on the VM and the tree walker.
// The generators mix shapes the VM's segment entry points can take —
// column-wise, or element by element — with shapes they must decline,
// so the test also checks that each really ran a real share of the
// interiors and of the boundaries: a differential test whose optimized
// side silently fell back would prove nothing.  Every draw also runs
// testdata/jacobi2d.kali at P = 4, whose halo rows run column-wise
// (144 of its 312 boundary iterations), so a draw that happens to hold
// no column-wise boundary row cannot fail the floor below.
func TestQuickVMDifferential(t *testing.T) {
	interior, segment, column := 0, 0, 0
	boundary, bSegment, bColumn := 0, 0, 0
	count := func(res *Result) {
		interior, segment, column = interior+res.Report.InteriorIters, segment+res.Report.SegmentIters, column+int(res.ColumnIters)
		boundary, bSegment = boundary+res.Report.BoundaryIters, bSegment+res.Report.BoundarySegmentIters
		bColumn += int(res.BoundaryColumnIters)
	}
	jacobi, err := os.ReadFile(filepath.Join("testdata", "jacobi2d.kali"))
	if err != nil {
		t.Fatal(err)
	}
	count(diffVMWalker(t, string(jacobi), 4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := langtest.GenVMProgram(r)
		for _, p := range []int{1, 3, 4} {
			count(diffVMWalker(t, src, p))
		}
		count(diffVMWalker(t, langtest.GenVMProgram2D(r), 4))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if interior == 0 || 5*segment < interior || column == 0 || column == segment {
		t.Fatalf("of %d generated interior iterations %d ran by segments, %d of those column-wise; want at least a fifth by segments, and some of each kind", interior, segment, column)
	}
	if boundary == 0 || 5*bSegment < boundary || bColumn == 0 || bColumn == bSegment {
		t.Fatalf("of %d generated boundary iterations %d ran by segments, %d of those column-wise; want at least a fifth by segments, and some of each kind", boundary, bSegment, bColumn)
	}
	t.Logf("of %d interior iterations %d ran by segments, %d of those column-wise", interior, segment, column)
	t.Logf("of %d boundary iterations %d ran by segments, %d of those column-wise", boundary, bSegment, bColumn)
}

// FuzzVMDifferential is the native-fuzzing entry point for the same
// property; `go test -fuzz=FuzzVMDifferential` explores seeds beyond
// the fixed quick.Check budget.
func FuzzVMDifferential(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1990, 123456789} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		diffVMWalker(t, langtest.GenVMProgram(r), 4)
		diffVMWalker(t, langtest.GenVMProgram2D(r), 4)
	})
}

// diffFusion runs src on the production executor (cross-loop
// aggregation on) and on the per-loop reference executor and fails
// unless the final arrays are bit-identical and the traffic differs
// only in the ways fusion is allowed to change it: identical byte
// totals, message count never larger fused, and no fused traffic at
// all in the reference run.  The interpreter batches adjacent
// foralls through the sequence API, so generated programs (1–3
// adjacent loops) exercise real fusion windows.
func diffFusion(t *testing.T, src string, p int) {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	fused, err := prog.Run(core.Config{P: p, Params: machine.NCUBE7()})
	if err != nil {
		t.Fatalf("fused run: %v\n%s", err, src)
	}
	unfused, err := prog.Run(core.Config{P: p, Params: machine.NCUBE7(), Reference: true})
	if err != nil {
		t.Fatalf("reference run: %v\n%s", err, src)
	}
	for name, want := range unfused.Arrays {
		got := fused.Arrays[name]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] = %v (fused), want %v (reference)\n%s", name, i+1, got[i], want[i], src)
			}
		}
	}
	for name, want := range unfused.IntArrays {
		got := fused.IntArrays[name]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] = %d (fused), want %d (reference)\n%s", name, i+1, got[i], want[i], src)
			}
		}
	}
	if fused.Report.BytesSent != unfused.Report.BytesSent {
		t.Fatalf("fusion changed byte total: %d fused, %d reference\n%s",
			fused.Report.BytesSent, unfused.Report.BytesSent, src)
	}
	if fused.Report.MsgsSent > unfused.Report.MsgsSent {
		t.Fatalf("fusion grew message count: %d fused, %d reference\n%s",
			fused.Report.MsgsSent, unfused.Report.MsgsSent, src)
	}
	if unfused.Report.FusedMsgs != 0 {
		t.Fatalf("reference run moved %d fused messages\n%s", unfused.Report.FusedMsgs, src)
	}
}

// TestQuickFusionDifferential: the fixed-budget CI version of the
// fusion property over both program generators.
func TestQuickFusionDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := langtest.GenProgram(r)
		diffFusion(t, src, 4)
		r = rand.New(rand.NewSource(seed))
		src = langtest.GenVMProgram(r)
		for _, p := range []int{1, 3, 4} {
			diffFusion(t, src, p)
		}
		diffFusion(t, langtest.GenVMProgram2D(r), 4)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// FuzzFusionDifferential is the native-fuzzing entry point for the
// fused-vs-unfused property; `go test -fuzz=FuzzFusionDifferential`
// explores seeds beyond the fixed quick.Check budget.
func FuzzFusionDifferential(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1990, 123456789} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		src := langtest.GenVMProgram(r)
		diffFusion(t, src, 4)
	})
}

// FuzzParseCheck: for arbitrary bytes Compile never panics, and every
// error it returns is a *Error positioned at line 1 or later.  The
// corpus starts from every testdata program and every source of the
// diagnostic tables.
func FuzzParseCheck(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.kali"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	for _, c := range append(parserErrorCases, checkerErrorCases...) {
		f.Add([]byte(c.src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		_, err := Compile(string(src))
		if err == nil {
			return
		}
		if le, ok := err.(*Error); !ok || le.Line < 1 {
			t.Fatalf("Compile(%q) = %#v, want a *Error at line 1 or later", src, err)
		}
	})
}

// TestQuickProgramsDeterministicTiming: generated programs also have
// identical simulated time on repeated runs (full determinism).
func TestQuickProgramsDeterministicTiming(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := langtest.GenProgram(r)
		prog, err := Compile(src)
		if err != nil {
			return false
		}
		r1, err1 := prog.Run(core.Config{P: 4, Params: machine.NCUBE7()})
		r2, err2 := prog.Run(core.Config{P: 4, Params: machine.NCUBE7()})
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.Report.Total == r2.Report.Total &&
			r1.Report.Inspector == r2.Report.Inspector
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
