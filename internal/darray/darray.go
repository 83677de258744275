// Package darray implements distributed arrays with a global name
// space — the shared data structures of the paper's title, declared
// with the dist clauses of §2.2.
//
// An Array is declared once, collectively, with a distribution; each
// simulated node then holds a handle that stores only its local
// partition (or a full copy, for replicated arrays).  All indexing at
// this layer is by *global* 1-based coordinates; the handle translates
// to local storage and refuses direct access to elements it does not
// own.  Nonlocal access is the business of the inspector/executor
// machinery built on top (internal/inspector, internal/forall), which
// moves remote values into communication buffers.
//
// Multi-dimensional arrays are supported; for communication purposes an
// element is identified by its linearized row-major global index, so
// the comm package's interval machinery applies unchanged.
//
// The accessors come in two flavours: general variadic methods
// (Get/Set/Owner) and allocation-free fixed-rank methods (Get1, Get2,
// Owner1, ...) used by the executor's hot loops.
package darray

import (
	"fmt"

	"kali/internal/comm"
	"kali/internal/dist"
	"kali/internal/index"
	"kali/internal/machine"
)

// header carries the per-node translation state shared by Array and
// IntArray: precomputed local shape, strides, patterns and expected
// grid coordinates, so that element access needs no allocation.
type header struct {
	name  string
	d     *dist.Dist
	node  *machine.Node
	shape []int

	repl    bool
	pats    []dist.Pattern // per array dim; nil when collapsed/replicated
	myCoord []int          // per array dim; my grid coordinate in that dim (-1 if collapsed)
	lshape  []int          // local extents
	total   int            // ∏shape, the largest linear index (set by initFast)
	version int

	// fast, flo, fn are the precomputed per-dimension locality
	// windows: when every dimension's local index set is one contiguous
	// interval (collapsed, replicated and block dims — the common
	// cases), a locality test is two compares and a local offset one
	// subtract per dim, with no interface calls and no divisions.  The
	// executor's per-element path lives on this.  Rank ≤ 2 only;
	// higher ranks and non-contiguous patterns keep fast == false.
	fast bool
	flo  [2]int // window start (global index) per dim
	fn   [2]int // window extent per dim
}

// initFast computes the element count and the contiguous locality
// windows, if any.  It must run whenever the header's distribution
// binding changes (New and the redistribution plan's target template).
func (h *header) initFast() {
	h.total = 1
	for _, e := range h.shape {
		h.total *= e
	}
	h.fast = false
	rank := len(h.shape)
	if rank > 2 {
		return
	}
	for dim := 0; dim < rank; dim++ {
		lo, n := 1, h.shape[dim]
		if !h.repl && h.pats[dim] != nil {
			ivs := h.pats[dim].Local(h.myCoord[dim]).Intervals()
			if len(ivs) != 1 {
				return
			}
			lo, n = ivs[0].Lo, ivs[0].Len()
		}
		h.flo[dim], h.fn[dim] = lo, n
	}
	h.fast = true
}

func newHeader(name string, d *dist.Dist, n *machine.Node) header {
	h := header{
		name:  name,
		d:     d,
		node:  n,
		shape: d.Shape(),
		repl:  d.Replicated(),
	}
	rank := len(h.shape)
	h.pats = make([]dist.Pattern, rank)
	h.myCoord = make([]int, rank)
	if h.repl {
		h.lshape = d.Shape()
		for i := range h.myCoord {
			h.myCoord[i] = -1
		}
		h.initFast()
		return h
	}
	h.lshape = d.LocalShape(n.ID())
	gcoord := d.Grid().Coord(n.ID())
	gdim := 0
	for dim := 0; dim < rank; dim++ {
		h.pats[dim] = d.Pattern(dim)
		if h.pats[dim] == nil {
			h.myCoord[dim] = -1
			continue
		}
		h.myCoord[dim] = gcoord[gdim]
		gdim++
	}
	h.initFast()
	return h
}

// localCount returns the node's element count.
func (h *header) localCount() int {
	c := 1
	for _, e := range h.lshape {
		c *= e
	}
	return c
}

// isLocal reports ownership without allocating.
func (h *header) isLocal(coord []int) bool {
	if h.repl {
		for dim, c := range coord {
			if c < 1 || c > h.shape[dim] {
				panic(fmt.Sprintf("darray: coordinate %d out of [1..%d] in dim %d of %s",
					c, h.shape[dim], dim, h.name))
			}
		}
		return true
	}
	for dim, c := range coord {
		p := h.pats[dim]
		if p == nil {
			if c < 1 || c > h.shape[dim] {
				panic(fmt.Sprintf("darray: coordinate %d out of [1..%d] in dim %d of %s",
					c, h.shape[dim], dim, h.name))
			}
			continue
		}
		if p.Owner(c) != h.myCoord[dim] {
			return false
		}
	}
	return true
}

// offset computes the local row-major offset; the element must be
// local (checked).
func (h *header) offset(coord []int) int {
	if len(coord) != len(h.shape) {
		panic(fmt.Sprintf("darray: coordinate rank %d != array rank %d of %s",
			len(coord), len(h.shape), h.name))
	}
	if !h.isLocal(coord) {
		panic(fmt.Sprintf("darray: node %d accessed nonlocal element %s%v",
			h.node.ID(), h.name, coord))
	}
	off := 0
	for dim, c := range coord {
		var li int
		if h.pats[dim] == nil || h.repl {
			li = c - 1
		} else {
			li = h.pats[dim].LocalIndex(c)
		}
		off = off*h.lshape[dim] + li
	}
	return off
}

// ownerLinear returns the owner of linearized global index g without
// allocating (replicated: -1).
func (h *header) ownerLinear(g int) int {
	if h.repl {
		return -1
	}
	if g < 1 || g > h.total {
		panic(fmt.Sprintf("darray: linear index %d out of [1..%d] of %s", g, h.total, h.name))
	}
	if len(h.shape) == 1 && h.pats[0] != nil {
		return h.pats[0].Owner(g)
	}
	// Decompose g and fold distributed dims into the grid id.
	g--
	id := 0
	// Row-major: leftmost dim is most significant.  The grid linearizes
	// distributed dims in order, also row-major.
	div := h.total
	for dim := 0; dim < len(h.shape); dim++ {
		div /= h.shape[dim]
		c := g/div + 1
		g %= div
		if p := h.pats[dim]; p != nil {
			id = id*p.P() + p.Owner(c)
		}
	}
	return id
}

// Array is one node's handle on a distributed array of float64 — the
// "real" arrays of Kali.
type Array struct {
	header
	local []float64
	// localPB, when non-nil, is the pooled buffer backing local: a
	// previous Redistribute drew the partition from the storage pool, and
	// the next one returns it there so ping-pong remappings replay
	// without allocating.
	localPB *comm.Payload
}

// IntArray is one node's handle on a distributed array of integers —
// used for adjacency structures and counts (adj, count in the paper's
// Figure 4).  IntArrays may only be accessed where they are stored (or
// everywhere, when replicated): in the paper's programs subscript
// arrays are always aligned with the loop's on clause.
type IntArray struct {
	header
	local []int
}

// New allocates this node's partition of a distributed float64 array.
// Every node of the machine must call New with an equivalent dist.
func New(name string, d *dist.Dist, n *machine.Node) *Array {
	h := newHeader(name, d, n)
	return &Array{header: h, local: make([]float64, h.localCount())}
}

// NewInt allocates this node's partition of a distributed int array.
func NewInt(name string, d *dist.Dist, n *machine.Node) *IntArray {
	h := newHeader(name, d, n)
	return &IntArray{header: h, local: make([]int, h.localCount())}
}

// Name returns the declaration name, used in diagnostics and as part
// of schedule cache keys.
func (h *header) Name() string { return h.name }

// Dist returns the distribution.
func (h *header) Dist() *dist.Dist { return h.d }

// Node returns the owning simulated node.
func (h *header) Node() *machine.Node { return h.node }

// Version returns the mutation version used by schedule caching.
func (h *header) Version() int { return h.version }

// Bump increments the version, invalidating cached schedules whose
// communication pattern depends on this array's contents.
func (h *header) Bump() { h.version++ }

// Rank returns the number of dimensions.
func (h *header) Rank() int { return len(h.shape) }

// Shape returns the global extents.
func (h *header) Shape() []int { return append([]int(nil), h.shape...) }

// Extent returns the global extent of dimension dim, without the copy
// Shape makes.
func (h *header) Extent(dim int) int { return h.shape[dim] }

// Size returns the total number of elements ∏shape.
func (h *header) Size() int { return h.total }

// Replicated reports whether every node stores the whole array.
func (h *header) Replicated() bool { return h.repl }

// Linear converts global coordinates to the linearized row-major
// global index in [1 .. ∏shape].
func (h *header) Linear(coord ...int) int { return linearize(h.shape, coord) }

// Delinear inverts Linear.
func (h *header) Delinear(g int) []int { return delinearize(h.shape, g) }

// Owner returns the owner of the element at the given coordinates
// (-1 when replicated).
func (h *header) Owner(coord ...int) int { return h.d.Owner(coord...) }

// OwnerLinear returns the owner of linearized global index g without
// allocating (-1 when replicated).
func (h *header) OwnerLinear(g int) int { return h.ownerLinear(g) }

// Owner1 returns the owner of element i of a rank-1 array.
func (h *header) Owner1(i int) int {
	if h.repl {
		return -1
	}
	return h.pats[0].Owner(i)
}

// IsLocal reports whether this node stores the element.
func (h *header) IsLocal(coord ...int) bool { return h.isLocal(coord) }

// IsLocal1 is the allocation-free rank-1 ownership test.
func (h *header) IsLocal1(i int) bool {
	if h.repl {
		if i < 1 || i > h.shape[0] {
			panic(fmt.Sprintf("darray: index %d out of [1..%d] of %s", i, h.shape[0], h.name))
		}
		return true
	}
	return h.pats[0].Owner(i) == h.myCoord[0]
}

// IsLocal2 is the allocation-free rank-2 ownership test.
func (h *header) IsLocal2(i, j int) bool {
	if h.fast && len(h.shape) == 2 {
		if uint(i-h.flo[0]) < uint(h.fn[0]) && uint(j-h.flo[1]) < uint(h.fn[1]) {
			return true
		}
		// Miss: nonlocal or out of bounds — decide below (the pattern
		// panics on out-of-range indices).
	}
	if len(h.shape) != 2 {
		panic(fmt.Sprintf("darray: rank-2 access to rank-%d array %s", len(h.shape), h.name))
	}
	for dim, c := range [2]int{i, j} {
		p := h.pats[dim]
		if h.repl || p == nil {
			if c < 1 || c > h.shape[dim] {
				panic(fmt.Sprintf("darray: coordinate %d out of [1..%d] in dim %d of %s",
					c, h.shape[dim], dim, h.name))
			}
			continue
		}
		if p.Owner(c) != h.myCoord[dim] {
			return false
		}
	}
	return true
}

// Linear2 converts rank-2 global coordinates to the linearized
// row-major global index without bounds checks; the caller must have
// validated (i, j) (e.g. via IsLocal2).
func (h *header) Linear2(i, j int) int { return (i-1)*h.shape[1] + j }

// Get returns the element at global coordinates, which must be local.
func (a *Array) Get(coord ...int) float64 { return a.local[a.offset(coord)] }

// Set stores v at global coordinates, which must be local.
func (a *Array) Set(v float64, coord ...int) { a.local[a.offset(coord)] = v }

// Get1 is the allocation-free accessor for rank-1 arrays.
func (a *Array) Get1(i int) float64 { return a.local[a.offset1(i)] }

// Set1 is the allocation-free mutator for rank-1 arrays.
func (a *Array) Set1(i int, v float64) { a.local[a.offset1(i)] = v }

// Get2 is the allocation-free accessor for rank-2 arrays.
func (a *Array) Get2(i, j int) float64 { return a.local[a.offset2(i, j)] }

// Set2 is the allocation-free mutator for rank-2 arrays.
func (a *Array) Set2(i, j int, v float64) { a.local[a.offset2(i, j)] = v }

// GetLinear returns the element with linearized global index g, which
// must be local.
func (a *Array) GetLinear(g int) float64 { return a.local[a.offsetLinear(g)] }

// SetLinear stores v at linearized global index g, which must be local.
func (a *Array) SetLinear(g int, v float64) { a.local[a.offsetLinear(g)] = v }

// LocalLinear returns element g of a rank-1 array when g lies in the
// node's contiguous locality window — one compare, no owner
// computation.  ok false decides nothing: g may be nonlocal, out of
// range, or local under a distribution without a window, and the
// caller goes on to OwnerLinear and GetLinear (and their panics).
func (a *Array) LocalLinear(g int) (v float64, ok bool) {
	if a.fast && len(a.shape) == 1 {
		if li := g - a.flo[0]; uint(li) < uint(a.fn[0]) {
			return a.local[li], true
		}
	}
	return 0, false
}

// WindowLinear returns the local-storage offset (an index into
// LocalValues) of element g, a linearized global index, of a rank-1 or
// rank-2 array when g lies in the node's locality window, with no
// owner computation.  ok false decides nothing: the array may be
// replicated, its distribution may have no window, or g may be nonlocal
// or out of range, and the caller goes on to the checked accessors.
func (h *header) WindowLinear(g int) (off int, ok bool) {
	switch {
	case h.repl:
	case len(h.shape) == 1:
		return h.span1(g, g)
	case uint(g-1) < uint(h.total):
		return h.Window2((g-1)/h.shape[1]+1, (g-1)%h.shape[1]+1)
	}
	return 0, false
}

// Window2 is WindowLinear for element (i, j) of a rank-2 array.
func (h *header) Window2(i, j int) (off int, ok bool) {
	if h.repl {
		return 0, false
	}
	return h.span2(i, j, j)
}

// OffsetLinear is the local-storage offset of element g, which must be
// local: the checked form of WindowLinear, which panics as GetLinear
// does.
func (h *header) OffsetLinear(g int) int { return h.offsetLinear(g) }

// CopyLinearRange copies the elements with linearized global indices
// [lo..hi] — all of which must be stored on this node — into dst,
// which must have hi-lo+1 elements.  It is the executor's bulk message
// pack: because LocalIndex packs each owner's elements densely in
// increasing global order, a fully-owned run of consecutive global
// indices occupies consecutive local slots, so a rank-1 range is one
// copy and a rank-2 range is one copy per global row it spans.
func (a *Array) CopyLinearRange(lo, hi int, dst []float64) {
	if hi < lo {
		return
	}
	switch len(a.shape) {
	case 1:
		off := a.offset1(lo)
		copy(dst, a.local[off:off+hi-lo+1])
	case 2:
		nx := a.shape[1]
		for g := lo; g <= hi; {
			end := rowSegEnd(g, hi, nx)
			off := a.offsetLinear(g)
			copy(dst[g-lo:], a.local[off:off+end-g+1])
			g = end + 1
		}
	default:
		for g := lo; g <= hi; g++ {
			dst[g-lo] = a.local[a.offsetLinear(g)]
		}
	}
}

// rowSegEnd returns the last linear index of g's global row segment,
// clipped to hi — the segmentation CopyLinearRange and redistribution
// plans (storageRuns) split intervals by, since contiguity in local
// storage holds only within one global row.
func rowSegEnd(g, hi, nx int) int {
	end := g + (nx - (g-1)%nx) - 1
	if end > hi {
		return hi
	}
	return end
}

// Span1 returns the local storage of elements lo..hi of a rank-1 array
// as one slice, element x at index x-lo — the row view a forall's
// segment kernel runs against.  It validates the whole span at once:
// the result is nil unless the node's local index set is one
// contiguous window (block, collapsed, replicated) that contains every
// element of lo..hi, so a caller holding a non-nil span needs no
// per-element locality or bounds test, and a caller holding nil falls
// back to the checked per-element accessors (and their panics).  The
// slice aliases the partition until the next Redistribute.
func (a *Array) Span1(lo, hi int) []float64 {
	if off, ok := a.span1(lo, hi); ok {
		return a.local[off : off+hi-lo+1]
	}
	return nil
}

// Span2 is Span1 for row i, columns jLo..jHi, of a rank-2 array.
func (a *Array) Span2(i, jLo, jHi int) []float64 {
	if off, ok := a.span2(i, jLo, jHi); ok {
		return a.local[off : off+jHi-jLo+1]
	}
	return nil
}

// span1 is the local offset of element lo when Span1(lo, hi) resolves.
func (h *header) span1(lo, hi int) (off int, ok bool) {
	if !h.fast || len(h.shape) != 1 || hi < lo {
		return 0, false
	}
	l := lo - h.flo[0]
	if l < 0 || hi-h.flo[0] >= h.fn[0] {
		return 0, false
	}
	return l, true
}

// span2 is the local offset of element (i, jLo) when Span2(i, jLo, jHi)
// resolves.
func (h *header) span2(i, jLo, jHi int) (off int, ok bool) {
	if !h.fast || len(h.shape) != 2 || jHi < jLo {
		return 0, false
	}
	li, lj := i-h.flo[0], jLo-h.flo[1]
	if uint(li) >= uint(h.fn[0]) || lj < 0 || jHi-h.flo[1] >= h.fn[1] {
		return 0, false
	}
	return li*h.lshape[1] + lj, true
}

// LocalValues exposes the raw local partition (replicated arrays: the
// whole array).  Mutating it directly bypasses ownership checks; it is
// intended for initialization and the executor's commit step.
func (a *Array) LocalValues() []float64 { return a.local }

// LocalCount returns the number of locally stored elements.
func (a *Array) LocalCount() int { return len(a.local) }

// Fill sets every local element to v.
func (a *Array) Fill(v float64) {
	for i := range a.local {
		a.local[i] = v
	}
}

// Get returns the element at global coordinates, which must be local.
func (ia *IntArray) Get(coord ...int) int { return ia.local[ia.offset(coord)] }

// Set stores v at global coordinates, which must be local.
func (ia *IntArray) Set(v int, coord ...int) { ia.local[ia.offset(coord)] = v }

// Get1 is the allocation-free accessor for rank-1 arrays.
func (ia *IntArray) Get1(i int) int { return ia.local[ia.offset1(i)] }

// Set1 is the allocation-free mutator for rank-1 arrays.
func (ia *IntArray) Set1(i, v int) { ia.local[ia.offset1(i)] = v }

// Get2 is the allocation-free accessor for rank-2 arrays.
func (ia *IntArray) Get2(i, j int) int { return ia.local[ia.offset2(i, j)] }

// Set2 is the allocation-free mutator for rank-2 arrays.
func (ia *IntArray) Set2(i, j, v int) { ia.local[ia.offset2(i, j)] = v }

// GetLinear returns the element with linearized global index g, which
// must be local.
func (ia *IntArray) GetLinear(g int) int { return ia.local[ia.offsetLinear(g)] }

// Span1 is Array.Span1 for an integer array.
func (ia *IntArray) Span1(lo, hi int) []int {
	if off, ok := ia.span1(lo, hi); ok {
		return ia.local[off : off+hi-lo+1]
	}
	return nil
}

// Span2 is Array.Span2 for an integer array.
func (ia *IntArray) Span2(i, jLo, jHi int) []int {
	if off, ok := ia.span2(i, jLo, jHi); ok {
		return ia.local[off : off+jHi-jLo+1]
	}
	return nil
}

// LocalValues exposes the raw local partition.
func (ia *IntArray) LocalValues() []int { return ia.local }

// LocalCount returns the number of locally stored elements.
func (ia *IntArray) LocalCount() int { return len(ia.local) }

// offset1 computes the local offset of rank-1 element i.
func (h *header) offset1(i int) int {
	if h.fast && len(h.shape) == 1 {
		if li := i - h.flo[0]; uint(li) < uint(h.fn[0]) {
			return li
		}
		// Miss: out of bounds or nonlocal — fall through for the
		// precise panic message.
	}
	if len(h.shape) != 1 {
		panic(fmt.Sprintf("darray: rank-1 access to rank-%d array %s", len(h.shape), h.name))
	}
	if h.repl {
		if i < 1 || i > h.shape[0] {
			panic(fmt.Sprintf("darray: index %d out of [1..%d] of %s", i, h.shape[0], h.name))
		}
		return i - 1
	}
	p := h.pats[0]
	if p.Owner(i) != h.myCoord[0] {
		panic(fmt.Sprintf("darray: node %d accessed nonlocal element %s[%d]", h.node.ID(), h.name, i))
	}
	return p.LocalIndex(i)
}

// offset2 computes the local offset of rank-2 element (i, j).
func (h *header) offset2(i, j int) int {
	if h.fast && len(h.shape) == 2 {
		li, lj := i-h.flo[0], j-h.flo[1]
		if uint(li) < uint(h.fn[0]) && uint(lj) < uint(h.fn[1]) {
			return li*h.lshape[1] + lj
		}
		// Miss: fall through for the precise panic message.
	}
	if len(h.shape) != 2 {
		panic(fmt.Sprintf("darray: rank-2 access to rank-%d array %s", len(h.shape), h.name))
	}
	var li, lj int
	if h.repl {
		if i < 1 || i > h.shape[0] || j < 1 || j > h.shape[1] {
			panic(fmt.Sprintf("darray: (%d,%d) out of %v of %s", i, j, h.shape, h.name))
		}
		return (i-1)*h.shape[1] + (j - 1)
	}
	if p := h.pats[0]; p == nil {
		if i < 1 || i > h.shape[0] {
			panic(fmt.Sprintf("darray: index %d out of [1..%d] of %s", i, h.shape[0], h.name))
		}
		li = i - 1
	} else {
		if p.Owner(i) != h.myCoord[0] {
			panic(fmt.Sprintf("darray: node %d accessed nonlocal row %s[%d,%d]", h.node.ID(), h.name, i, j))
		}
		li = p.LocalIndex(i)
	}
	if p := h.pats[1]; p == nil {
		if j < 1 || j > h.shape[1] {
			panic(fmt.Sprintf("darray: index %d out of [1..%d] of %s", j, h.shape[1], h.name))
		}
		lj = j - 1
	} else {
		if p.Owner(j) != h.myCoord[1] {
			panic(fmt.Sprintf("darray: node %d accessed nonlocal col %s[%d,%d]", h.node.ID(), h.name, i, j))
		}
		lj = p.LocalIndex(j)
	}
	return li*h.lshape[1] + lj
}

// offsetLinear computes the local offset of linearized global index g
// without allocating.
func (h *header) offsetLinear(g int) int {
	switch len(h.shape) {
	case 1:
		return h.offset1(g)
	case 2:
		j := (g-1)%h.shape[1] + 1
		i := (g-1)/h.shape[1] + 1
		return h.offset2(i, j)
	default:
		coord := delinearize(h.shape, g)
		return h.offset(coord)
	}
}

// EachLocal calls f for every locally stored element's linearized
// global index, in increasing order.  For replicated arrays it visits
// the whole index space.
func (h *header) EachLocal(f func(g int)) {
	h.EachLocalRun(func(g, _, n int) {
		for k := g; k < g+n; k++ {
			f(k)
		}
	})
}

// EachLocalRun calls f for every run of n locally stored elements that
// are consecutive both in the linearized global index space, from g,
// and in local storage, from offset off — in increasing order of g, so
// off counts up from zero.  It visits only what the node stores: the
// product of each dimension's local intervals, where a collapsed
// dimension (and every dimension of a replicated array) is its whole
// range.  Local storage is row-major over the same product, each
// pattern packing its indices densely in increasing order, which is why
// a run of the innermost dimension is contiguous in both; under a
// locality window (block, collapsed) a run is a whole local row.
func (h *header) EachLocalRun(f func(g, off, n int)) {
	rank := len(h.shape)
	if h.fast {
		// One window per dimension, so the runs are the window's rows,
		// found without allocating.
		if rank == 1 {
			f(h.flo[0], 0, h.fn[0])
			return
		}
		for r := 0; r < h.fn[0]; r++ {
			f((h.flo[0]+r-1)*h.shape[1]+h.flo[1], r*h.fn[1], h.fn[1])
		}
		return
	}
	ivs := make([][]index.Interval, rank)
	for dim, p := range h.pats {
		if p == nil {
			ivs[dim] = []index.Interval{{Lo: 1, Hi: h.shape[dim]}}
		} else if ivs[dim] = p.Local(h.myCoord[dim]).Intervals(); len(ivs[dim]) == 0 {
			return
		}
	}
	// An odometer over the outer dimensions: coordinate c[dim], in local
	// interval at[dim].
	at, c := make([]int, rank), make([]int, rank)
	for dim := range c {
		c[dim] = ivs[dim][0].Lo
	}
	off, last := 0, rank-1
	for {
		base := 0
		for dim := 0; dim < last; dim++ {
			base = base*h.shape[dim] + c[dim] - 1
		}
		for _, iv := range ivs[last] {
			f(base*h.shape[last]+iv.Lo, off, iv.Len())
			off += iv.Len()
		}
		dim := last - 1
		for ; dim >= 0; dim-- {
			if c[dim] < ivs[dim][at[dim]].Hi {
				c[dim]++
				break
			}
			if at[dim]++; at[dim] < len(ivs[dim]) {
				c[dim] = ivs[dim][at[dim]].Lo
				break
			}
			at[dim], c[dim] = 0, ivs[dim][0].Lo
		}
		if dim < 0 {
			return
		}
	}
}

// linearize maps 1-based coordinates to a 1-based row-major index.
func linearize(shape, coord []int) int {
	if len(coord) != len(shape) {
		panic(fmt.Sprintf("darray: coordinate rank %d != array rank %d", len(coord), len(shape)))
	}
	g := 0
	for d, c := range coord {
		if c < 1 || c > shape[d] {
			panic(fmt.Sprintf("darray: coordinate %d out of [1..%d] in dim %d", c, shape[d], d))
		}
		g = g*shape[d] + (c - 1)
	}
	return g + 1
}

// delinearize inverts linearize.
func delinearize(shape []int, g int) []int {
	total := 1
	for _, e := range shape {
		total *= e
	}
	if g < 1 || g > total {
		panic(fmt.Sprintf("darray: linear index %d out of [1..%d]", g, total))
	}
	g--
	out := make([]int, len(shape))
	for d := len(shape) - 1; d >= 0; d-- {
		out[d] = g%shape[d] + 1
		g /= shape[d]
	}
	return out
}
