// Package comm implements Kali's communication-set representation.
//
// The paper (Figure 5) stores the in(p,q) and out(p,q) sets as
// dynamically-allocated sorted arrays of records, each describing one
// contiguous block of a distributed array held on one processor:
//
//	record
//	    from_proc: integer;  -- sending processor
//	    to_proc:   integer;  -- receiving processor
//	    low:       integer;  -- lower bound of range
//	    high:      integer;  -- upper bound of range
//	    buffer:    ^real;    -- pointer to message buffer
//	end;
//
// The in set is sorted on from_proc with low as the secondary key;
// adjacent ranges are combined to minimize the number of records; an
// individual element is then found by binary search in O(log r) time.
// This package reproduces that representation (the buffer pointer
// becomes an offset into a receive buffer) and the derived operations:
// building, merging, searching, and packing/unpacking message data.
// The records are what the simulator prices (storage and the O(log r)
// search); the host itself finds elements through a bucket directory
// over the same records (index.go).
// Pack/unpack are vectorized: every record covers a contiguous block
// whose owner stores it densely, so PackInto and Unpack move one whole
// range per copy instead of gathering element by element, and a
// machine-wide BufPool recycles message payloads so that replaying a
// cached schedule allocates nothing.
package comm

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
)

// Range is one record of a communication set: the contiguous block of
// global indices [Low, High] of some array, stored on FromProc and
// needed by ToProc.  Buf is the offset of the block's first element in
// the receiver's communication buffer (only meaningful for in sets).
type Range struct {
	FromProc int
	ToProc   int
	Low      int
	High     int
	Buf      int
}

// Len returns the number of elements covered by the record.
func (r Range) Len() int { return r.High - r.Low + 1 }

func (r Range) String() string {
	return fmt.Sprintf("{%d->%d [%d..%d] @%d}", r.FromProc, r.ToProc, r.Low, r.High, r.Buf)
}

// InSet is a processor's receive schedule: for each element it needs
// from another processor, which processor sends it and where it lands
// in the local communication buffer.  Ranges must not change once
// Find has been called.
type InSet struct {
	Ranges []Range // sorted by (FromProc, Low), adjacent ranges merged
	Total  int     // total number of elements received

	// index is Find's directory over Ranges.  NewInSet and Finalize
	// build it; an InSet literal gets it on its first Find.
	index atomic.Pointer[inIndex]
}

// NewInSet wraps records already sorted by (FromProc, Low), with
// adjacent ranges merged and Buf offsets assigned, covering total
// elements.  It takes ownership of ranges and builds Find's index, so
// the result can be searched from several goroutines at once.
func NewInSet(ranges []Range, total int) *InSet {
	s := &InSet{Ranges: ranges, Total: total}
	s.index.Store(buildIndex(ranges))
	return s
}

// OutSet is a processor's send schedule: which of its local elements go
// to which processor.  Sorted by (ToProc, Low).
type OutSet struct {
	Ranges []Range
	Total  int
}

// Builder accumulates nonlocal references during the inspector pass and
// produces the normalized InSet.  Inserting the same element twice is
// harmless (it is recorded once), matching the paper's set semantics.
// Every distinct element gets an insertion id, 0, 1, 2, … in the order
// of its first Add, and FinalizeOffsets maps each id to the element's
// offset in the receive buffer, so an inspector that keeps the ids of
// its references holds them resolved once the set is final.
type Builder struct {
	me    int
	elems []elem  // distinct elements in insertion order, elems[id] the one with insertion id id
	table []int32 // open-addressed set over elems keyed by g: index+1, 0 = empty
	// sorted and offsets are FinalizeOffsets' working memory: the radix
	// sort's two buffers and the offsets it returns.
	sorted  [2][]elem
	offsets []int32
}

// elem is one recorded element: g, stored on home, with its insertion
// id, which it keeps through Finalize's sort.
type elem struct {
	g        int
	home, id int32
}

// NewBuilder creates a Builder for receiving processor me.
func NewBuilder(me int) *Builder {
	return &Builder{me: me}
}

// hashCell is the home slot of key k in a power-of-two table of n
// int32 cells (Fibonacci hashing: consecutive keys spread out).
func hashCell(k, n int) int {
	return int((uint64(k) * 0x9E3779B97F4A7C15) >> (64 - uint(bits.TrailingZeros(uint(n)))))
}

// putCell enters id under key k in an open-addressed table that has a
// free cell.
func putCell(table []int32, k int, id int32) {
	h := hashCell(k, len(table))
	for table[h] != 0 {
		h = (h + 1) & (len(table) - 1)
	}
	table[h] = id
}

// Add records that global element g, stored on processor home, is
// needed locally.  It returns the element's insertion id, and added
// true when the element was not already recorded (so callers can
// charge list-insert cost only for new entries, as the paper's
// implementation does).
func (b *Builder) Add(g, home int) (id int, added bool) {
	if home == b.me {
		panic("comm: Add of a local element")
	}
	if int(int32(home)) != home {
		panic(fmt.Sprintf("comm: home %d of element %d is not a processor number", home, g))
	}
	if 2*len(b.elems) >= len(b.table) {
		b.rehash(max(16, 2*len(b.table)))
	}
	mask := len(b.table) - 1
	h := hashCell(g, len(b.table))
	for ; b.table[h] != 0; h = (h + 1) & mask {
		if old := b.elems[b.table[h]-1]; old.g == g {
			if int(old.home) != home {
				panic(fmt.Sprintf("comm: element %d recorded with two homes %d and %d", g, old.home, home))
			}
			return int(old.id), false
		}
	}
	id = len(b.elems)
	b.elems = append(b.elems, elem{g: g, home: int32(home), id: int32(id)})
	b.table[h] = int32(id + 1)
	return id, true
}

// rehash re-enters every recorded element in a table of size cells, a
// power of two.
func (b *Builder) rehash(size int) {
	b.table = make([]int32, size)
	for i, e := range b.elems {
		putCell(b.table, e.g, int32(i+1))
	}
}

// Reset empties b for receiving processor me and keeps its memory, so
// that a Builder recycled across builds grows its set, its element list
// and its sort buffers once, not once a build.  The table keeps its
// size.  Reset is the release of what FinalizeOffsets lent: the
// offsets it returned are b's, and Reset ends their life.
func (b *Builder) Reset(me int) {
	b.me = me
	b.elems = b.elems[:0]
	clear(b.table)
}

// Count returns the number of distinct elements recorded so far.
func (b *Builder) Count() int { return len(b.elems) }

// Finalize is FinalizeOffsets without the offsets.
func (b *Builder) Finalize() *InSet {
	in, _ := b.FinalizeOffsets()
	return in
}

// FinalizeOffsets sorts the recorded elements by (home, index), merges
// adjacent indices from the same home into single records, and assigns
// buffer offsets: the paper's in-set construction.  It also returns
// where each element landed, offsets[id] for the element Add gave
// insertion id id, in memory the Builder keeps (see Reset); the in set
// is the caller's.  The Builder's set stays as it was.
func (b *Builder) FinalizeOffsets() (in *InSet, offsets []int32) {
	es := sortedElems(b.elems, &b.sorted)
	// An element starts a record unless it extends its predecessor's.
	starts := func(k int) bool {
		return k == 0 || es[k-1].home != es[k].home || es[k-1].g+1 != es[k].g
	}
	nrec := 0
	for k := range es {
		if starts(k) {
			nrec++
		}
	}
	ranges := make([]Range, 0, nrec)
	offsets = slices.Grow(b.offsets[:0], len(es))[:len(es)]
	b.offsets = offsets
	for k, e := range es {
		offsets[e.id] = int32(k)
		if starts(k) {
			ranges = append(ranges, Range{FromProc: int(e.home), ToProc: b.me, Low: e.g, High: e.g, Buf: k})
		} else {
			ranges[len(ranges)-1].High = e.g // combine adjacent ranges
		}
	}
	return NewInSet(ranges, len(es)), offsets
}

// sortedElems returns es ordered by (home, g), leaving es as it is: a
// byte-wise radix sort, least significant byte first, whose passes
// write to bufs in turn, growing them as they must.  A byte on which
// all elements agree takes no pass, and for real processor counts and
// array sizes that is every byte but two or three, so the sort is a few
// linear sweeps where a comparison sort spends most of an inspector
// build.
func sortedElems(es []elem, bufs *[2][]elem) []elem {
	var varies [2]uint64 // bits in which some g, some home differs from the first
	for _, e := range es {
		varies[0] |= uint64(e.g ^ es[0].g)
		varies[1] |= uint64(e.home ^ es[0].home)
	}
	// Flipping the sign bit makes unsigned byte order the order of ints.
	key := func(e elem, field int) uint64 {
		if field == 0 {
			return uint64(e.g) ^ 1<<63
		}
		return uint64(e.home) ^ 1<<63
	}
	src := es
	npass := 0
	for field, v := range varies {
		for shift := uint(0); shift < 64; shift += 8 {
			if v>>shift&0xff == 0 {
				continue
			}
			var next [256]int // counts, then each byte value's next output position
			for _, e := range src {
				next[key(e, field)>>shift&0xff]++
			}
			sum := 0
			for k, c := range next {
				next[k] = sum
				sum += c
			}
			buf := &bufs[npass&1]
			if cap(*buf) < len(es) {
				*buf = make([]elem, len(es))
			}
			dst := (*buf)[:len(es)]
			for _, e := range src {
				k := key(e, field) >> shift & 0xff
				dst[next[k]] = e
				next[k]++
			}
			src = dst
			npass++
		}
	}
	return src
}

// NumRanges returns the record count r used in the O(log r) search.
func (s *InSet) NumRanges() int { return len(s.Ranges) }

// Senders returns the distinct sending processors in ascending order.
func (s *InSet) Senders() []int {
	var out []int
	for _, r := range s.Ranges {
		if len(out) == 0 || out[len(out)-1] != r.FromProc {
			out = append(out, r.FromProc)
		}
	}
	return out
}

// RangesFrom returns the records sourced from processor q.
func (s *InSet) RangesFrom(q int) []Range {
	if sd := s.dir().sender(q); sd != nil {
		return s.Ranges[sd.first:sd.end]
	}
	return nil
}

// BuildOut assembles a processor's OutSet from the collections of
// in-records that name it as FromProc, as delivered by the global
// exchange ("out(p,q) = in(q,p)": the transposition the paper performs
// with the Crystal router).  Records are sorted by (ToProc, Low) with
// adjacent ranges merged.  BuildOut takes ownership of received: it
// sorts and merges the records in place, and the OutSet keeps the
// slice.
func BuildOut(me int, received []Range) *OutSet {
	for _, r := range received {
		if r.FromProc != me {
			panic(fmt.Sprintf("comm: out record %v not sourced at %d", r, me))
		}
	}
	slices.SortFunc(received, func(a, b Range) int {
		if a.ToProc != b.ToProc {
			return cmp.Compare(a.ToProc, b.ToProc)
		}
		return cmp.Compare(a.Low, b.Low)
	})
	out := &OutSet{Ranges: received[:0]}
	for _, r := range received {
		out.Total += r.Len()
		if n := len(out.Ranges); n > 0 {
			if last := &out.Ranges[n-1]; last.ToProc == r.ToProc && last.High+1 == r.Low {
				last.High = r.High
				continue
			}
		}
		out.Ranges = append(out.Ranges, r)
	}
	return out
}

// Receivers returns the distinct destination processors in ascending
// order.
func (s *OutSet) Receivers() []int {
	var out []int
	for _, r := range s.Ranges {
		if len(out) == 0 || out[len(out)-1] != r.ToProc {
			out = append(out, r.ToProc)
		}
	}
	return out
}

// RangesTo returns the records destined for processor q.
func (s *OutSet) RangesTo(q int) []Range {
	lo := sort.Search(len(s.Ranges), func(i int) bool { return s.Ranges[i].ToProc >= q })
	hi := lo
	for hi < len(s.Ranges) && s.Ranges[hi].ToProc == q {
		hi++
	}
	return s.Ranges[lo:hi]
}

// CountTo returns the number of elements destined for processor q.
func (s *OutSet) CountTo(q int) int {
	n := 0
	for _, r := range s.RangesTo(q) {
		n += r.Len()
	}
	return n
}

// CountFrom returns the number of elements expected from processor q.
func (s *InSet) CountFrom(q int) int {
	if sd := s.dir().sender(q); sd != nil {
		return sd.n
	}
	return 0
}

// PackInto fills dst with the values of all records destined to q, one
// bulk copyRange call per record (copyRange must copy the local values
// of global indices [lo..hi] into its dst argument).  Because every
// record covers a contiguous block of global indices whose owner packs
// them densely, each record is a single memcpy-style copy rather than a
// per-element gather.  It returns the number of values packed; dst must
// have at least CountTo(q) elements.
func (s *OutSet) PackInto(q int, dst []float64, copyRange func(lo, hi int, dst []float64)) int {
	n := 0
	for _, r := range s.RangesTo(q) {
		copyRange(r.Low, r.High, dst[n:n+r.Len()])
		n += r.Len()
	}
	return n
}

// Unpack scatters a payload received from q into the communication
// buffer according to the in set's records for q — one bulk copy per
// record, since each record's elements land contiguously at its Buf
// offset, and one copy in all when the records' offsets follow on from
// each other, as Finalize and NewInSet's callers lay them out.  It
// returns the number of values consumed and panics if the payload size
// mismatches the schedule.
func (s *InSet) Unpack(q int, payload []float64, buf []float64) int {
	sd := s.dir().sender(q)
	n := 0
	if sd != nil {
		n = sd.n
	}
	if n != len(payload) {
		panic(fmt.Sprintf("comm: payload from %d has %d values, schedule expects %d", q, len(payload), n))
	}
	switch {
	case n == 0:
	case sd.packed:
		copy(buf[sd.buf:sd.buf+n], payload)
	default:
		off := 0
		for _, r := range s.Ranges[sd.first:sd.end] {
			off += copy(buf[r.Buf:r.Buf+r.Len()], payload[off:off+r.Len()])
		}
	}
	return n
}
