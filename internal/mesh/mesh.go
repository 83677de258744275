// Package mesh generates the relaxation workloads of the paper's
// evaluation: the adjacency-list representation of Figure 4
// (count/adj/coef arrays), a rectangular mesh with the standard
// five-point Laplacian (the measured test problem), an unstructured
// mesh with ~6 average connectivity (the paper's motivating case), and
// a sequential reference Jacobi solver used to validate the
// distributed results.
//
// Node numbering is 1-based, matching Kali arrays.  Boundary nodes
// carry count = 0 and keep their values (Dirichlet conditions) —
// exactly the paper's "if count[i] > 0 then a[i] := x" convention.
package mesh

import (
	"fmt"
	"math/rand"
)

// Mesh is the paper's mesh representation: for node i (1-based),
// neighbors are Adj[(i-1)*MaxDeg + k] with weights
// Coef[(i-1)*MaxDeg + k] for k < Count[i-1].
type Mesh struct {
	N      int
	MaxDeg int
	Count  []int     // length N
	Adj    []int     // length N*MaxDeg, 1-based node ids (0 = unused slot)
	Coef   []float64 // length N*MaxDeg

	// Desc names the mesh in reports, e.g. "rect 128x128".
	Desc string
}

// AvgDegree returns the mean connectivity over interior nodes.
func (m *Mesh) AvgDegree() float64 {
	sum, cnt := 0, 0
	for _, c := range m.Count {
		if c > 0 {
			sum += c
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return float64(sum) / float64(cnt)
}

// TotalRefs returns Σ count[i] — the number of references the
// inspector examines per sweep.
func (m *Mesh) TotalRefs() int {
	sum := 0
	for _, c := range m.Count {
		sum += c
	}
	return sum
}

// Rect builds an nx×ny rectangular mesh with the standard five-point
// Laplacian: interior nodes average their four neighbors (coef 1/4),
// edge nodes are boundary (count 0, value pinned).  Node (r,c) has id
// (r-1)*nx + c, row-major — so a block distribution assigns contiguous
// row bands to processors, the "obvious" static decomposition the
// paper uses.
func Rect(nx, ny int) *Mesh {
	if nx < 2 || ny < 2 {
		panic(fmt.Sprintf("mesh: Rect needs at least 2x2, got %dx%d", nx, ny))
	}
	m := &Mesh{
		N:      nx * ny,
		MaxDeg: 4,
		Count:  make([]int, nx*ny),
		Adj:    make([]int, nx*ny*4),
		Coef:   make([]float64, nx*ny*4),
		Desc:   fmt.Sprintf("rect %dx%d", nx, ny),
	}
	id := func(r, c int) int { return (r-1)*nx + c }
	for r := 1; r <= ny; r++ {
		for c := 1; c <= nx; c++ {
			i := id(r, c)
			if r == 1 || r == ny || c == 1 || c == nx {
				continue // boundary: count stays 0
			}
			base := (i - 1) * 4
			m.Adj[base+0] = id(r-1, c)
			m.Adj[base+1] = id(r, c-1)
			m.Adj[base+2] = id(r, c+1)
			m.Adj[base+3] = id(r+1, c)
			for k := 0; k < 4; k++ {
				m.Coef[base+k] = 0.25
			}
			m.Count[i-1] = 4
		}
	}
	return m
}

// Unstructured builds a synthetic unstructured mesh: a jittered
// triangular (hexagonal-connectivity) grid where interior nodes have
// six neighbors on average — the paper notes "nodes in a two
// dimensional unstructured grid have six neighbors, on average".
// When shuffle is true the node numbering is randomly permuted
// (seeded), destroying the banded structure a row-major numbering
// gives and producing the scattered communication pattern of a truly
// irregular mesh.
func Unstructured(nx, ny int, shuffle bool, seed int64) *Mesh {
	if nx < 2 || ny < 2 {
		panic(fmt.Sprintf("mesh: Unstructured needs at least 2x2, got %dx%d", nx, ny))
	}
	n := nx * ny
	perm := make([]int, n+1) // perm[old] = new, 1-based
	for i := 1; i <= n; i++ {
		perm[i] = i
	}
	if shuffle {
		r := rand.New(rand.NewSource(seed))
		for i := n; i > 1; i-- {
			j := r.Intn(i) + 1
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	m := &Mesh{
		N:      n,
		MaxDeg: 6,
		Count:  make([]int, n),
		Adj:    make([]int, n*6),
		Coef:   make([]float64, n*6),
		Desc:   fmt.Sprintf("unstructured %dx%d shuffle=%v", nx, ny, shuffle),
	}
	id := func(r, c int) int { return perm[(r-1)*nx+c] }
	for r := 1; r <= ny; r++ {
		for c := 1; c <= nx; c++ {
			i := id(r, c)
			if r == 1 || r == ny || c == 1 || c == nx {
				continue
			}
			// Triangular connectivity: W, E, N, S, NE, SW.
			nbrs := []int{
				id(r, c-1), id(r, c+1),
				id(r-1, c), id(r+1, c),
				id(r-1, c+1), id(r+1, c-1),
			}
			base := (i - 1) * 6
			for k, nb := range nbrs {
				m.Adj[base+k] = nb
				m.Coef[base+k] = 1.0 / 6.0
			}
			m.Count[i-1] = 6
		}
	}
	return m
}

// InitValues returns the paper-style initial state: boundary nodes get
// a deterministic nonzero profile, interior nodes start at zero.  For
// shuffled meshes the profile follows the *original* grid geometry, so
// results are permutation-consistent.
func InitValues(m *Mesh) []float64 {
	a := make([]float64, m.N)
	for i := 1; i <= m.N; i++ {
		if m.Count[i-1] == 0 {
			a[i-1] = 1.0 + float64(i%7)
		}
	}
	return a
}

// SeqJacobi runs `sweeps` Jacobi sweeps sequentially and returns the
// final values; it is the correctness oracle for the distributed
// implementations.  a0 is not modified.
func SeqJacobi(m *Mesh, a0 []float64, sweeps int) []float64 {
	if len(a0) != m.N {
		panic(fmt.Sprintf("mesh: SeqJacobi got %d values for %d nodes", len(a0), m.N))
	}
	a := append([]float64(nil), a0...)
	old := make([]float64, m.N)
	for s := 0; s < sweeps; s++ {
		copy(old, a)
		for i := 1; i <= m.N; i++ {
			cnt := m.Count[i-1]
			if cnt == 0 {
				continue
			}
			x := 0.0
			base := (i - 1) * m.MaxDeg
			for k := 0; k < cnt; k++ {
				x += m.Coef[base+k] * old[m.Adj[base+k]-1]
			}
			a[i-1] = x
		}
	}
	return a
}

// MaxDelta returns the largest |a[i]-b[i]| — used both for convergence
// checks and for comparing distributed against sequential results.
func MaxDelta(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mesh: MaxDelta length mismatch")
	}
	max := 0.0
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}
