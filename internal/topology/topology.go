// Package topology models Kali processor arrays (paper §2.1).
//
// A Kali program declares a processor array such as
//
//	processors Procs : array[1..P] with P in 1..max_procs;
//
// The "real estate agent" (Seitz's term, quoted in the paper) picks a
// concrete P at run time within the declared bounds; the paper's
// implementation picks the largest feasible P, which is what Choose
// does.  Multi-dimensional processor arrays are linearized row-major,
// and a processor's linear id is its machine node id.  No embedding
// is applied: a node id is its hypercube address, and the simulator
// charges the Hamming distance of two ids as their hop count when P
// is a power of two (1 hop otherwise), so grid neighbours whose ids
// differ in several bits are several hops apart.
package topology

import (
	"fmt"
	"math/bits"
)

// Grid is a concrete multi-dimensional processor array.  Processor
// coordinates are 0-based internally; Kali-level 1-based indexing is
// handled by the language front end.
type Grid struct {
	extents []int // length = rank, product = P
	strides []int // row-major strides for linearization
	size    int
}

// NewGrid builds a processor grid with the given per-dimension extents.
func NewGrid(extents ...int) (*Grid, error) {
	if len(extents) == 0 {
		return nil, fmt.Errorf("topology: grid needs at least one dimension")
	}
	size := 1
	for i, e := range extents {
		if e <= 0 {
			return nil, fmt.Errorf("topology: dimension %d has non-positive extent %d", i, e)
		}
		size *= e
	}
	g := &Grid{
		extents: append([]int(nil), extents...),
		strides: make([]int, len(extents)),
		size:    size,
	}
	stride := 1
	for i := len(extents) - 1; i >= 0; i-- {
		g.strides[i] = stride
		stride *= extents[i]
	}
	return g, nil
}

// MustGrid is NewGrid that panics on error, for tests and literals.
func MustGrid(extents ...int) *Grid {
	g, err := NewGrid(extents...)
	if err != nil {
		panic(err)
	}
	return g
}

// Rank returns the number of grid dimensions.
func (g *Grid) Rank() int { return len(g.extents) }

// Size returns the total number of processors P.
func (g *Grid) Size() int { return g.size }

// Extent returns the extent of dimension d.
func (g *Grid) Extent(d int) int { return g.extents[d] }

// Linear converts grid coordinates to a linear processor id in
// [0, Size).  It panics on out-of-range coordinates.
func (g *Grid) Linear(coord ...int) int {
	if len(coord) != len(g.extents) {
		panic(fmt.Sprintf("topology: coordinate rank %d != grid rank %d", len(coord), len(g.extents)))
	}
	id := 0
	for i, c := range coord {
		if c < 0 || c >= g.extents[i] {
			panic(fmt.Sprintf("topology: coordinate %d out of range [0,%d) in dim %d", c, g.extents[i], i))
		}
		id += c * g.strides[i]
	}
	return id
}

// Coord converts a linear processor id back to grid coordinates.
func (g *Grid) Coord(id int) []int {
	if id < 0 || id >= g.size {
		panic(fmt.Sprintf("topology: processor id %d out of range [0,%d)", id, g.size))
	}
	out := make([]int, len(g.extents))
	for i, s := range g.strides {
		out[i] = id / s
		id %= s
	}
	return out
}

func (g *Grid) String() string {
	return fmt.Sprintf("Grid%v", g.extents)
}

// Choose implements the real estate agent: given declared bounds
// [minP, maxP] and the number of physical processors avail, it returns
// the largest feasible P, preferring powers of two (hypercube
// allocations come in powers of two).  An error is returned when even
// minP processors cannot be provided.
func Choose(minP, maxP, avail int) (int, error) {
	if minP < 1 || maxP < minP {
		return 0, fmt.Errorf("topology: invalid processor bounds [%d,%d]", minP, maxP)
	}
	if avail < minP {
		return 0, fmt.Errorf("topology: need at least %d processors, only %d available", minP, avail)
	}
	p := avail
	if p > maxP {
		p = maxP
	}
	// Round down to a power of two if one fits within bounds; hypercube
	// subcubes are power-of-two sized.
	pow := 1 << uint(bits.Len(uint(p))-1)
	if pow >= minP {
		return pow, nil
	}
	return p, nil
}
