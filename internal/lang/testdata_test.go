package lang

import (
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kali/internal/core"
	"kali/internal/darray"
	"kali/internal/machine"
	"kali/internal/mesh"
)

// loadProgram compiles a testdata program.
func loadProgram(t *testing.T, name string) *Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(string(src))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

// TestCorpusCompilesAndRuns: every .kali program in testdata compiles
// and runs on several machine sizes without error.
func TestCorpusCompilesAndRuns(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.kali"))
	if err != nil || len(files) < 4 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		for _, p := range []int{1, 2, 4} {
			prog := loadProgram(t, filepath.Base(f))
			if _, err := prog.Run(core.Config{P: p, Params: machine.Ideal()}); err != nil {
				// 2-D processor declarations need an exact processor
				// count; too-small machines are a legitimate refusal.
				if strings.Contains(err.Error(), "need at least") {
					continue
				}
				t.Fatalf("%s on P=%d: %v", f, p, err)
			}
		}
	}
}

func TestCorpusShift(t *testing.T) {
	res, err := loadProgram(t, "shift.kali").Run(core.Config{P: 4, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Arrays["A"]
	for i := 1; i < 24; i++ {
		if a[i-1] != float64(i+1) {
			t.Fatalf("A[%d] = %g", i, a[i-1])
		}
	}
}

func TestCorpusGather(t *testing.T) {
	res, err := loadProgram(t, "gather.kali").Run(core.Config{P: 4, Params: machine.NCUBE7()})
	if err != nil {
		t.Fatal(err)
	}
	b := res.Arrays["B"]
	for i := 1; i <= 20; i++ {
		r := 20 + 1 - i
		if b[i-1] != float64(r*r) {
			t.Fatalf("B[%d] = %g, want %d", i, b[i-1], r*r)
		}
	}
	// Indirect: inspector must have run.
	if res.Report.Inspector <= 0 {
		t.Fatal("gather should have paid inspector time")
	}
}

func TestCorpusRowsum(t *testing.T) {
	res, err := loadProgram(t, "rowsum.kali").Run(core.Config{P: 4, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		want := 0.0
		for j := 1; j <= 5; j++ {
			want += float64(i) + float64(j)/10
		}
		if math.Abs(res.Arrays["s"][i-1]-want) > 1e-12 {
			t.Fatalf("s[%d] = %g, want %g", i, res.Arrays["s"][i-1], want)
		}
	}
}

func TestCorpusRedBlack(t *testing.T) {
	res, err := loadProgram(t, "redblack.kali").Run(core.Config{P: 2, Params: machine.NCUBE7()})
	if err != nil {
		t.Fatal(err)
	}
	u := res.Arrays["u"]
	// Oracle: same red-black order sequentially.
	const n, sweeps = 32, 40
	oracle := make([]float64, n+1)
	oracle[1], oracle[n] = 1, 5
	for s := 0; s < sweeps; s++ {
		for i := 3; i <= n-1; i += 2 {
			oracle[i] = 0.5 * (oracle[i-1] + oracle[i+1])
		}
		for i := 2; i <= n-1; i += 2 {
			oracle[i] = 0.5 * (oracle[i-1] + oracle[i+1])
		}
	}
	for i := 1; i <= n; i++ {
		if math.Abs(u[i-1]-oracle[i]) > 1e-12 {
			t.Fatalf("u[%d] = %g, oracle %g", i, u[i-1], oracle[i])
		}
	}
	// The strided affine loops must NOT have paid per-reference
	// inspector costs (compile-time analyzable).
	if res.Report.Inspector > 0.01 {
		t.Fatalf("red-black paid inspector-scale cost: %g s", res.Report.Inspector)
	}
}

// TestCorpusJacobi2D: the 2-D processor-array program matches the
// sequential oracle.
func TestCorpusJacobi2D(t *testing.T) {
	res, err := loadProgram(t, "jacobi2d.kali").Run(core.Config{P: 4, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 4 {
		t.Fatalf("P = %d", res.P)
	}
	// Oracle via the mesh package: same boundary profile and sweeps.
	m := mesh.Rect(16, 16)
	want := mesh.SeqJacobi(m, mesh.InitValues(m), 6)
	got := res.Arrays["u"]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("u[%d] = %g, want %g", i+1, got[i], want[i])
		}
	}
	// The neighbor reads are per-dimension affine, so the rank-2
	// compile-time analysis applies: no inspector-scale cost.
	res2, err := loadProgram(t, "jacobi2d.kali").Run(core.Config{P: 4, Params: machine.NCUBE7()})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report.Inspector > 0.01 {
		t.Fatalf("affine 2-D forall paid inspector-scale cost: %g s", res2.Report.Inspector)
	}
}

// TestCorpusRedBlack2D: the strided on-clause program matches the
// sequential red-black oracle column by column, and both strided
// foralls stay on the compile-time path.
func TestCorpusRedBlack2D(t *testing.T) {
	res, err := loadProgram(t, "redblack2d.kali").Run(core.Config{P: 4, Params: machine.NCUBE7()})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 4 {
		t.Fatalf("P = %d", res.P)
	}
	// Every column relaxes independently between the fixed boundary
	// rows, so one 1-D red-black oracle covers them all.
	const n, sweeps = 16, 10
	oracle := make([]float64, n+1)
	oracle[1], oracle[n] = 1, 5
	for s := 0; s < sweeps; s++ {
		for r := 3; r <= n-1; r += 2 {
			oracle[r] = 0.5 * (oracle[r-1] + oracle[r+1])
		}
		for r := 2; r <= n-1; r += 2 {
			oracle[r] = 0.5 * (oracle[r-1] + oracle[r+1])
		}
	}
	u := res.Arrays["u"]
	for r := 1; r <= n; r++ {
		for c := 1; c <= n; c++ {
			if math.Abs(u[(r-1)*n+c-1]-oracle[r]) > 1e-12 {
				t.Fatalf("u[%d,%d] = %g, oracle %g", r, c, u[(r-1)*n+c-1], oracle[r])
			}
		}
	}
	// Strided affine on clauses + affine reads: compile-time analyzed.
	if res.Report.Inspector > 0.01 {
		t.Fatalf("strided 2-D on clauses paid inspector-scale cost: %g s", res.Report.Inspector)
	}
}

// TestCorpusLoadbalance: the map dist clause builds a user-defined
// distribution, the program computes the right answer, and the affine
// reads over the map pattern still use compile-time analysis.
func TestCorpusLoadbalance(t *testing.T) {
	res, err := loadProgram(t, "loadbalance.kali").Run(core.Config{P: 4, Params: machine.NCUBE7()})
	if err != nil {
		t.Fatal(err)
	}
	const n, act, sweeps = 32, 8, 10
	oracle := make([]float64, n+1)
	old := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		oracle[i] = float64(i)
	}
	for s := 0; s < sweeps; s++ {
		copy(old, oracle)
		for i := 2; i <= act; i++ {
			oracle[i] = 0.5*old[i-1] + 0.5*old[i+1]
		}
	}
	for i := 1; i <= n; i++ {
		if math.Abs(res.Arrays["a"][i-1]-oracle[i]) > 1e-12 {
			t.Fatalf("a[%d] = %g, oracle %g", i, res.Arrays["a"][i-1], oracle[i])
		}
	}
	if res.Report.Inspector > 0.01 {
		t.Fatalf("affine reads over a map distribution paid inspector-scale cost: %g s", res.Report.Inspector)
	}
}

// TestCorpusADI: the dynamic-redistribution program alternates row and
// column Jacobi smooths, transposing u's layout with redistribute
// statements between phases.  The final values must match a sequential
// oracle, the transposes must move data under the redistribution
// counters (not the forall ones), both sweeps' schedules must be built
// at compile time, and with sweeps > 1 the ping-pong remappings must
// replay cached plans rather than rebuilding.
func TestCorpusADI(t *testing.T) {
	builds0, hits0 := darray.RedistBuilds(), darray.RedistHits()
	res, err := loadProgram(t, "adi.kali").Run(core.Config{P: 4, Params: machine.NCUBE7()})
	if err != nil {
		t.Fatal(err)
	}
	const n, sweeps = 12, 3
	u := make([][]float64, n+1)
	old := make([][]float64, n+1)
	for r := 1; r <= n; r++ {
		u[r] = make([]float64, n+1)
		old[r] = make([]float64, n+1)
		for c := 1; c <= n; c++ {
			u[r][c] = float64((r*13 + c*7) % 11)
		}
	}
	snap := func() {
		for r := 1; r <= n; r++ {
			copy(old[r], u[r])
		}
	}
	for s := 0; s < sweeps; s++ {
		snap()
		for r := 1; r <= n; r++ {
			for c := 2; c <= n-1; c++ {
				u[r][c] = 0.25*old[r][c-1] + 0.5*old[r][c] + 0.25*old[r][c+1]
			}
		}
		snap()
		for c := 1; c <= n; c++ {
			for r := 2; r <= n-1; r++ {
				u[r][c] = 0.25*old[r-1][c] + 0.5*old[r][c] + 0.25*old[r+1][c]
			}
		}
	}
	got := res.Arrays["u"]
	for r := 1; r <= n; r++ {
		for c := 1; c <= n; c++ {
			if math.Abs(got[(r-1)*n+c-1]-u[r][c]) > 1e-12 {
				t.Fatalf("u[%d,%d] = %g, oracle %g", r, c, got[(r-1)*n+c-1], u[r][c])
			}
		}
	}
	if res.Report.RedistMsgs == 0 || res.Report.Redist <= 0 {
		t.Fatalf("transposes moved nothing: %d redist msgs, %g s", res.Report.RedistMsgs, res.Report.Redist)
	}
	// Both sweeps read only whole lines of the dimension u's layout
	// distributes at the time, so each node builds their two schedules
	// in closed form and pays the compile-time charge alone: 2+3
	// procedure calls a loop, where one inspector pays some 0.4 s.
	if call := machine.NCUBE7().Call; res.Report.Inspector > 2*(2+3)*call*(1+1e-9) {
		t.Errorf("inspector time %g s, want at most the compile-time charge %g s", res.Report.Inspector, 2*(2+3)*call)
	}
	// 2 distribution pairs x 4 nodes build once each; the remaining
	// 2*(sweeps-1) cycles replay from the content-addressed plan store.
	builds, hits := darray.RedistBuilds()-builds0, darray.RedistHits()-hits0
	if builds != 2*res.P {
		t.Fatalf("redistribution plans built %d times, want %d", builds, 2*res.P)
	}
	if want := 2 * (sweeps - 1) * res.P; hits != want {
		t.Fatalf("redistribution plan hits = %d, want %d", hits, want)
	}
}

// TestRunGathersOnlyNamedArrays: Run with names returns exactly the
// arrays named, each bit-identical to the gather-everything run's, and
// the same scalars and report; unknown names and scalars' names gather
// no array.
func TestRunGathersOnlyNamedArrays(t *testing.T) {
	for _, c := range []struct {
		file  string
		names []string
		reals []string
		ints  []string
	}{
		{"jacobi2d.kali", []string{"u"}, []string{"u"}, nil},
		{"gather.kali", []string{"idx", "nope", "B", "idx"}, []string{"B"}, []string{"idx"}},
		{"gather.kali", []string{"i", "nope"}, nil, nil},
	} {
		prog := loadProgram(t, c.file)
		cfg := core.Config{P: 4, Params: machine.NCUBE7()}
		all, err := prog.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		some, err := prog.Run(cfg, c.names...)
		if err != nil {
			t.Fatal(err)
		}
		if len(some.Arrays) != len(c.reals) || len(some.IntArrays) != len(c.ints) {
			t.Fatalf("%s %v: gathered %d real and %d integer arrays, want %v and %v", c.file, c.names, len(some.Arrays), len(some.IntArrays), c.reals, c.ints)
		}
		for _, name := range c.reals {
			got, want := some.Arrays[name], all.Arrays[name]
			if len(got) != len(want) {
				t.Fatalf("%s: %s has %d elements, want %d", c.file, name, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: %s[%d] = %v, want %v", c.file, name, i+1, got[i], want[i])
				}
			}
		}
		for _, name := range c.ints {
			if got, want := some.IntArrays[name], all.IntArrays[name]; !slices.Equal(got, want) {
				t.Fatalf("%s: %s = %v, want %v", c.file, name, got, want)
			}
		}
		if !maps.Equal(some.Scalars, all.Scalars) || some.Report != all.Report {
			t.Fatalf("%s %v: scalars %v and report %+v, want %v and %+v", c.file, c.names, some.Scalars, some.Report, all.Scalars, all.Report)
		}
	}
}
