// Package index implements the index-set algebra underlying Kali's
// communication analysis.
//
// The paper (§3.1) defines the sets exec(p), ref(p), in(p,q) and
// out(p,q) as subsets of iteration and array index spaces.  All of these are sets of
// integers which, for the distributions Kali supports, are unions of a
// small number of contiguous intervals (possibly strided).  This package
// provides a normalized interval-set representation with the operations
// needed by both the compile-time analysis and the run-time inspector:
// union, intersection, difference, translation, scaling, and inverse
// images under affine maps.
//
// A Set is always kept in normal form: intervals are sorted by Lo,
// pairwise disjoint, and non-adjacent (adjacent intervals are merged).
// The zero value of Set is the empty set and is ready to use.
package index

import (
	"fmt"
	"sort"
	"strings"
)

// Interval is the inclusive integer range [Lo, Hi].  An Interval with
// Lo > Hi is empty.
type Interval struct {
	Lo, Hi int
}

// Empty reports whether the interval contains no integers.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Len returns the number of integers in the interval.
func (iv Interval) Len() int {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo + 1
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x int) bool { return iv.Lo <= x && x <= iv.Hi }

// Intersect returns the intersection of two intervals.
func (iv Interval) Intersect(other Interval) Interval {
	lo, hi := iv.Lo, iv.Hi
	if other.Lo > lo {
		lo = other.Lo
	}
	if other.Hi < hi {
		hi = other.Hi
	}
	return Interval{lo, hi}
}

// Shift returns the interval translated by d.
func (iv Interval) Shift(d int) Interval { return Interval{iv.Lo + d, iv.Hi + d} }

func (iv Interval) String() string {
	if iv.Empty() {
		return "[]"
	}
	if iv.Lo == iv.Hi {
		return fmt.Sprintf("[%d]", iv.Lo)
	}
	return fmt.Sprintf("[%d..%d]", iv.Lo, iv.Hi)
}

// Set is a normalized union of disjoint, sorted, non-adjacent intervals.
type Set struct {
	ivs []Interval
}

// Empty is the empty set.
var Empty = Set{}

// Range returns the set {lo..hi}; it is empty when lo > hi.
func Range(lo, hi int) Set {
	if lo > hi {
		return Set{}
	}
	return Set{ivs: []Interval{{lo, hi}}}
}

// Single returns the singleton set {x}.
func Single(x int) Set { return Range(x, x) }

// Strided returns the set {lo, lo+step, lo+2*step, ...} ∩ [lo, hi].
// step must be positive.
func Strided(lo, hi, step int) Set {
	if step <= 0 {
		panic("index: non-positive stride")
	}
	if lo > hi {
		return Set{}
	}
	if step == 1 {
		return Range(lo, hi)
	}
	ivs := make([]Interval, 0, (hi-lo)/step+1)
	for x := lo; x <= hi; x += step {
		ivs = append(ivs, Interval{x, x})
	}
	return Set{ivs: ivs}
}

// FromIntervals builds a Set from arbitrary (possibly overlapping,
// unsorted, or empty) intervals, normalizing the result.
func FromIntervals(ivs ...Interval) Set {
	work := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.Empty() {
			work = append(work, iv)
		}
	}
	if len(work) == 0 {
		return Set{}
	}
	sort.Slice(work, func(i, j int) bool { return work[i].Lo < work[j].Lo })
	out := work[:1]
	for _, iv := range work[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi+1 { // overlapping or adjacent: merge
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
		} else {
			out = append(out, iv)
		}
	}
	return Set{ivs: append([]Interval(nil), out...)}
}

// FromSlice builds a Set from an arbitrary list of integers.
func FromSlice(xs []int) Set {
	ivs := make([]Interval, len(xs))
	for i, x := range xs {
		ivs[i] = Interval{x, x}
	}
	return FromIntervals(ivs...)
}

// Intervals returns the normalized intervals of the set.  The returned
// slice must not be modified.
func (s Set) Intervals() []Interval { return s.ivs }

// Empty reports whether the set has no elements.
func (s Set) Empty() bool { return len(s.ivs) == 0 }

// Len returns the number of integers in the set.
func (s Set) Len() int {
	n := 0
	for _, iv := range s.ivs {
		n += iv.Len()
	}
	return n
}

// NumIntervals returns the number of maximal intervals in the set.
func (s Set) NumIntervals() int { return len(s.ivs) }

// Min returns the smallest element.  It panics on the empty set.
func (s Set) Min() int {
	if s.Empty() {
		panic("index: Min of empty set")
	}
	return s.ivs[0].Lo
}

// Max returns the largest element.  It panics on the empty set.
func (s Set) Max() int {
	if s.Empty() {
		panic("index: Max of empty set")
	}
	return s.ivs[len(s.ivs)-1].Hi
}

// Contains reports whether x is an element of the set, in O(log n)
// interval lookups.
func (s Set) Contains(x int) bool {
	// Find first interval with Hi >= x.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi >= x })
	return i < len(s.ivs) && s.ivs[i].Lo <= x
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	if s.Empty() {
		return t
	}
	if t.Empty() {
		return s
	}
	all := make([]Interval, 0, len(s.ivs)+len(t.ivs))
	all = append(all, s.ivs...)
	all = append(all, t.ivs...)
	return FromIntervals(all...)
}

// Intersect returns s ∩ t using a linear merge of the two sorted
// interval lists.
func (s Set) Intersect(t Set) Set {
	var out []Interval
	i, j := 0, 0
	for i < len(s.ivs) && j < len(t.ivs) {
		iv := s.ivs[i].Intersect(t.ivs[j])
		if !iv.Empty() {
			out = append(out, iv)
		}
		if s.ivs[i].Hi < t.ivs[j].Hi {
			i++
		} else {
			j++
		}
	}
	// Intersection of normalized sets is already sorted and disjoint,
	// but two merged-adjacent results can arise; normalize to be safe.
	return FromIntervals(out...)
}

// Minus returns s ∖ t.
func (s Set) Minus(t Set) Set {
	if s.Empty() || t.Empty() {
		return s
	}
	var out []Interval
	j := 0
	for _, iv := range s.ivs {
		lo := iv.Lo
		for j < len(t.ivs) && t.ivs[j].Hi < lo {
			j++
		}
		k := j
		for k < len(t.ivs) && t.ivs[k].Lo <= iv.Hi {
			cut := t.ivs[k]
			if cut.Lo > lo {
				out = append(out, Interval{lo, cut.Lo - 1})
			}
			if cut.Hi+1 > lo {
				lo = cut.Hi + 1
			}
			if lo > iv.Hi {
				break
			}
			k++
		}
		if lo <= iv.Hi {
			out = append(out, Interval{lo, iv.Hi})
		}
	}
	return FromIntervals(out...)
}

// Equal reports whether two sets contain the same integers.
func (s Set) Equal(t Set) bool {
	if len(s.ivs) != len(t.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != t.ivs[i] {
			return false
		}
	}
	return true
}

// Shift returns the set translated by d: {x + d : x ∈ s}.
func (s Set) Shift(d int) Set {
	out := make([]Interval, len(s.ivs))
	for i, iv := range s.ivs {
		out[i] = iv.Shift(d)
	}
	return Set{ivs: out}
}

// Affine returns {a*x + c : x ∈ s}.  a may be negative but not zero.
func (s Set) Affine(a, c int) Set {
	if a == 0 {
		panic("index: Affine with a == 0")
	}
	if a == 1 {
		return s.Shift(c)
	}
	var out []Interval
	for _, iv := range s.ivs {
		if a == -1 {
			out = append(out, Interval{-iv.Hi + c, -iv.Lo + c})
			continue
		}
		// |a| > 1 produces strided points.
		for x := iv.Lo; x <= iv.Hi; x++ {
			y := a*x + c
			out = append(out, Interval{y, y})
		}
	}
	return FromIntervals(out...)
}

// InverseAffine returns {x : a*x + c ∈ s}, the preimage of s under the
// map x ↦ a*x + c.  a must be nonzero.  The preimage of each interval
// [L, H] is the integer interval ⌈(L-c)/a⌉ .. ⌊(H-c)/a⌋ (endpoints
// swapped when a is negative), so the result needs no point scans.
func (s Set) InverseAffine(a, c int) Set {
	if a == 0 {
		panic("index: InverseAffine with a == 0")
	}
	var out []Interval
	for _, iv := range s.ivs {
		// Solve L <= a*x + c <= H for integer x.
		nlo, nhi := iv.Lo-c, iv.Hi-c
		var xlo, xhi int
		if a > 0 {
			xlo, xhi = ceilDiv(nlo, a), floorDiv(nhi, a)
		} else {
			xlo, xhi = ceilDiv(nhi, a), floorDiv(nlo, a)
		}
		if xlo <= xhi {
			out = append(out, Interval{xlo, xhi})
		}
	}
	return FromIntervals(out...)
}

// Linearize2 returns the row-major linearization of the rectangular
// set rows × cols over a rank-2 space whose second dimension has
// extent width: { (r-1)*width + c : r ∈ rows, c ∈ cols }.  cols must
// lie within [1..width] so rows stay disjoint.  This is how the rank-2
// communication analysis lowers its per-dimension rectangles onto the
// 1-D interval machinery the schedules are built from: each row
// contributes cols shifted by its row offset, and full-width rows of
// adjacent indices merge into single intervals during normalization.
func Linearize2(rows, cols Set, width int) Set {
	if width < 1 {
		panic("index: Linearize2 with non-positive width")
	}
	if cols.Empty() || rows.Empty() {
		return Set{}
	}
	if cols.Min() < 1 || cols.Max() > width {
		panic(fmt.Sprintf("index: Linearize2 cols %v outside [1..%d]", cols, width))
	}
	ivs := make([]Interval, 0, rows.Len()*cols.NumIntervals())
	rows.Each(func(r int) {
		off := (r - 1) * width
		for _, iv := range cols.Intervals() {
			ivs = append(ivs, iv.Shift(off))
		}
	})
	return FromIntervals(ivs...)
}

// Each calls f for every element of the set in increasing order.
func (s Set) Each(f func(x int)) {
	for _, iv := range s.ivs {
		for x := iv.Lo; x <= iv.Hi; x++ {
			f(x)
		}
	}
}

// Slice returns all elements in increasing order.
func (s Set) Slice() []int {
	out := make([]int, 0, s.Len())
	s.Each(func(x int) { out = append(out, x) })
	return out
}

func (s Set) String() string {
	if s.Empty() {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, iv := range s.ivs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(iv.String())
	}
	b.WriteByte('}')
	return b.String()
}

// ceilDiv returns ⌈a/b⌉ for any nonzero b.
func ceilDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

// floorDiv returns ⌊a/b⌋ for any nonzero b.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a > 0) != (b > 0) {
		q--
	}
	return q
}
