package mesh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	m := Rect(4, 3) // 4 wide, 3 tall: only (2,2) and (2,3) are interior
	if m.N != 12 || m.MaxDeg != 4 {
		t.Fatalf("N=%d MaxDeg=%d", m.N, m.MaxDeg)
	}
	interior := 0
	for i := 1; i <= m.N; i++ {
		if m.Count[i-1] > 0 {
			interior++
			if m.Count[i-1] != 4 {
				t.Fatalf("interior node %d has degree %d", i, m.Count[i-1])
			}
		}
	}
	if interior != 2 {
		t.Fatalf("interior count = %d, want 2", interior)
	}
	// Node (2,2) has id 6; neighbors are 2 (N), 5 (W), 7 (E), 10 (S).
	i := 6
	got := map[int]bool{}
	for k := 0; k < 4; k++ {
		got[m.Adj[(i-1)*m.MaxDeg+k]] = true
		if m.Coef[(i-1)*m.MaxDeg+k] != 0.25 {
			t.Fatalf("weight = %g", m.Coef[(i-1)*m.MaxDeg+k])
		}
	}
	for _, want := range []int{2, 5, 7, 10} {
		if !got[want] {
			t.Fatalf("node 6 neighbors = %v, missing %d", got, want)
		}
	}
}

func TestRectInteriorCount(t *testing.T) {
	m := Rect(10, 8)
	interior := 0
	for _, c := range m.Count {
		if c > 0 {
			interior++
		}
	}
	if interior != 8*6 {
		t.Fatalf("interior = %d, want 48", interior)
	}
	if got := m.TotalRefs(); got != 48*4 {
		t.Fatalf("TotalRefs = %d", got)
	}
	if got := m.AvgDegree(); got != 4 {
		t.Fatalf("AvgDegree = %g", got)
	}
}

func TestRectPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Rect(1, 5) },
		func() { Unstructured(5, 1, false, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestUnstructuredConnectivity(t *testing.T) {
	m := Unstructured(16, 16, false, 0)
	if got := m.AvgDegree(); got != 6 {
		t.Fatalf("interior degree = %g, want 6", got)
	}
	// Weights of interior nodes sum to 1 (averaging scheme).
	for i := 1; i <= m.N; i++ {
		if m.Count[i-1] == 0 {
			continue
		}
		sum := 0.0
		for k := 0; k < m.Count[i-1]; k++ {
			sum += m.Coef[(i-1)*m.MaxDeg+k]
			nb := m.Adj[(i-1)*m.MaxDeg+k]
			if nb < 1 || nb > m.N {
				t.Fatalf("node %d neighbor %d out of range", i, nb)
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("node %d weights sum to %g", i, sum)
		}
	}
}

// TestUnstructuredShuffleIsRelabeling: the shuffled mesh is the same
// graph under a permutation — Jacobi results must agree after
// unpermuting.  We verify via degree multiset and solution agreement.
func TestUnstructuredShuffleIsRelabeling(t *testing.T) {
	plain := Unstructured(8, 8, false, 0)
	shuf := Unstructured(8, 8, true, 123)
	degCount := func(m *Mesh) map[int]int {
		out := map[int]int{}
		for _, c := range m.Count {
			out[c]++
		}
		return out
	}
	dp, ds := degCount(plain), degCount(shuf)
	for k, v := range dp {
		if ds[k] != v {
			t.Fatalf("degree multiset differs: %v vs %v", dp, ds)
		}
	}
}

func TestInitValues(t *testing.T) {
	m := Rect(6, 6)
	a := InitValues(m)
	for i := 1; i <= m.N; i++ {
		if m.Count[i-1] == 0 && a[i-1] == 0 {
			t.Fatalf("boundary node %d not initialized", i)
		}
		if m.Count[i-1] > 0 && a[i-1] != 0 {
			t.Fatalf("interior node %d not zero", i)
		}
	}
}

func TestSeqJacobiOneSweep(t *testing.T) {
	m := Rect(3, 3) // single interior node 5, neighbors 2,4,6,8
	a0 := make([]float64, 9)
	a0[1], a0[3], a0[5], a0[7] = 4, 8, 12, 16 // nodes 2,4,6,8
	a := SeqJacobi(m, a0, 1)
	if a[4] != 10 {
		t.Fatalf("center after one sweep = %g, want 10", a[4])
	}
	// Boundary values unchanged.
	if a[1] != 4 || a[7] != 16 {
		t.Fatal("boundary changed")
	}
	// Input not modified.
	if a0[4] != 0 {
		t.Fatal("input slice modified")
	}
}

// TestSeqJacobiConverges: for the Laplace problem the interior
// approaches a harmonic interpolation; successive sweeps contract.
func TestSeqJacobiConverges(t *testing.T) {
	m := Rect(12, 12)
	a0 := InitValues(m)
	a100 := SeqJacobi(m, a0, 100)
	a101 := SeqJacobi(m, a0, 101)
	if d := MaxDelta(a100, a101); d > 1e-2 {
		t.Fatalf("not contracting: delta = %g", d)
	}
	a400 := SeqJacobi(m, a0, 400)
	a401 := SeqJacobi(m, a0, 401)
	if d := MaxDelta(a400, a401); d > 1e-4 {
		t.Fatalf("slow contraction: delta = %g", d)
	}
	// Maximum principle: interior values bounded by boundary extremes.
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 1; i <= m.N; i++ {
		if m.Count[i-1] == 0 {
			if a400[i-1] < lo {
				lo = a400[i-1]
			}
			if a400[i-1] > hi {
				hi = a400[i-1]
			}
		}
	}
	for i := 1; i <= m.N; i++ {
		if m.Count[i-1] > 0 && (a400[i-1] < lo-1e-9 || a400[i-1] > hi+1e-9) {
			t.Fatalf("maximum principle violated at %d: %g not in [%g,%g]", i, a400[i-1], lo, hi)
		}
	}
}

func TestSeqJacobiPanics(t *testing.T) {
	m := Rect(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SeqJacobi(m, make([]float64, 5), 1)
}

func TestMaxDelta(t *testing.T) {
	if MaxDelta([]float64{1, 5, 3}, []float64{1, 2, 4}) != 3 {
		t.Fatal("MaxDelta wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on length mismatch")
			}
		}()
		MaxDelta([]float64{1}, []float64{1, 2})
	}()
}

// TestQuickJacobiLinearity: Jacobi is a linear operator — sweeping a
// scaled initial state scales the result.
func TestQuickJacobiLinearity(t *testing.T) {
	m := Rect(6, 5)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a0 := make([]float64, m.N)
		for i := range a0 {
			a0[i] = r.Float64()*4 - 2
		}
		k := 1 + r.Float64()*3
		scaled := make([]float64, m.N)
		for i := range a0 {
			scaled[i] = k * a0[i]
		}
		x := SeqJacobi(m, a0, 5)
		y := SeqJacobi(m, scaled, 5)
		for i := range x {
			if math.Abs(y[i]-k*x[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSymmetricAdjacency: in both generators, if j is a neighbor
// of i then i is a neighbor of j (for interior pairs).
func TestQuickSymmetricAdjacency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nx, ny := 3+r.Intn(8), 3+r.Intn(8)
		var m *Mesh
		if r.Intn(2) == 0 {
			m = Rect(nx, ny)
		} else {
			m = Unstructured(nx, ny, r.Intn(2) == 1, seed)
		}
		for i := 1; i <= m.N; i++ {
			for k := 0; k < m.Count[i-1]; k++ {
				j := m.Adj[(i-1)*m.MaxDeg+k]
				if m.Count[j-1] == 0 {
					continue // boundary nodes list no neighbors
				}
				found := false
				for l := 0; l < m.Count[j-1]; l++ {
					if m.Adj[(j-1)*m.MaxDeg+l] == i {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
