package comm

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// findLinear is the reference Find: a scan over the records.
func findLinear(ranges []Range, home, g int) (int, bool) {
	for _, r := range ranges {
		if r.FromProc == home && r.Low <= g && g <= r.High {
			return r.Buf + g - r.Low, true
		}
	}
	return 0, false
}

// The in-set shapes the tests draw from.
const (
	shapeBlock  = iota // a few long runs per sender
	shapeCyclic        // single-element records, senders interleaved
	shapeRows          // rank-2 block x block: many short rows per sender
	shapeOneSender
	shapeSkewed // a crowd of records in one corner of a wide span
	shapeEmpty
	numShapes
)

// genElems draws the (g, home) pairs of one in set for receiver 0.
// Every g has one home, as under any real distribution; indices and
// homes may be negative.
func genElems(r *rand.Rand, shape int) [][2]int {
	var es [][2]int
	base := r.Intn(2000) - 300
	switch shape {
	case shapeBlock:
		for q := 1; q <= 1+r.Intn(5); q++ {
			g := base + q*5000
			for k := 0; k < 1+r.Intn(3); k++ {
				g += 2 + r.Intn(40)
				for n := 1 + r.Intn(300); n > 0; n-- {
					es = append(es, [2]int{g, q})
					g++
				}
			}
		}
	case shapeCyclic:
		p := 2 + r.Intn(9)
		for g := base; g < base+50+r.Intn(600); g++ {
			if q := ((g % p) + p) % p; q != 0 && r.Intn(4) > 0 {
				es = append(es, [2]int{g, q})
			}
		}
	case shapeRows:
		nx := 16 + r.Intn(50)
		for q := 1; q <= 1+r.Intn(4); q++ {
			c0 := r.Intn(nx / 2)
			c1 := c0 + r.Intn(nx/2)
			for row := q * 40; row < q*40+3+r.Intn(60); row++ {
				for c := c0; c <= c1; c++ {
					es = append(es, [2]int{base + row*nx + c, q})
				}
			}
		}
	case shapeOneSender:
		q := r.Intn(40) - 8
		if q == 0 {
			q = 1
		}
		for g := base; g < base+1+r.Intn(400); g++ {
			if r.Intn(3) > 0 {
				es = append(es, [2]int{g, q})
			}
		}
	case shapeSkewed:
		for q := 1; q <= 1+r.Intn(2); q++ {
			for k := 0; k < 20+r.Intn(200); k++ {
				es = append(es, [2]int{base + q*1_000_000 + 2*k, q})
			}
			es = append(es, [2]int{base + q*1_000_000 + 400_000 + r.Intn(1000), q})
		}
	}
	return es
}

// checkFind compares Find with the reference for every element of the
// set, every index in a gap between two records, the indices around
// each sender's span, and homes that send nothing; and FindRun for
// every run that starts or ends a record, and the runs one element
// longer than a record at either end, which the set holds only where
// the next record of the sender continues the indices and the slots.
func checkFind(t testing.TB, in *InSet) {
	t.Helper()
	check := func(home, g int) {
		t.Helper()
		wb, wok := findLinear(in.Ranges, home, g)
		if gb, gok := in.Find(home, g); gb != wb || gok != wok {
			t.Fatalf("Find(%d, %d) = %d, %v; linear scan says %d, %v (records %v)", home, g, gb, gok, wb, wok, in.Ranges)
		}
	}
	checkRun := func(lo, hi int) {
		t.Helper()
		// The reference: lo's record, and every element up to hi in
		// records of the same sender, buffer slots following on.
		wb, wok := 0, false
		for _, r := range in.Ranges {
			if r.Low <= lo && lo <= r.High {
				wb, wok = r.Buf+lo-r.Low, true
				for g := lo + 1; g <= hi && wok; g++ {
					b, ok := findLinear(in.Ranges, r.FromProc, g)
					wok = ok && b == wb+g-lo
				}
			}
		}
		if gb, gok := in.FindRun(lo, hi); gb != wb || gok != wok {
			t.Fatalf("FindRun(%d, %d) = %d, %v; linear scan says %d, %v (records %v)", lo, hi, gb, gok, wb, wok, in.Ranges)
		}
	}
	for k, r := range in.Ranges {
		for g := r.Low; g <= r.High; g++ {
			check(r.FromProc, g)
			checkRun(g, r.High)
			checkRun(r.Low, g)
		}
		checkRun(r.Low-1, r.High)
		checkRun(r.Low, r.High+1)
		lo, hi := r.Low-3, r.High+3 // the sender's span edges, unless a neighbour record says otherwise
		if k > 0 && in.Ranges[k-1].FromProc == r.FromProc {
			lo = max(in.Ranges[k-1].High+1, r.Low-50)
		}
		for g := lo; g < r.Low; g++ {
			check(r.FromProc, g)
		}
		for g := r.High + 1; g <= hi; g++ {
			check(r.FromProc, g)
		}
		for _, home := range []int{r.FromProc + 1, r.FromProc - 1, -r.FromProc, r.FromProc + 1<<40} {
			check(home, r.Low)
		}
	}
	for _, home := range []int{-1, 0, 1, 7, 1 << 33} {
		for _, g := range []int{-1, 0, 1} {
			check(home, g)
		}
	}
}

// inSets returns the same in set made three ways: by the Builder from
// a shuffled Add stream, as a literal that has only Ranges (indexed on
// first Find), and by NewInSet.
func inSets(r *rand.Rand, elems [][2]int) []*InSet {
	b := NewBuilder(0)
	for _, k := range r.Perm(len(elems)) {
		b.Add(elems[k][0], elems[k][1])
	}
	built := b.Finalize()
	return []*InSet{
		built,
		{Ranges: slices.Clone(built.Ranges), Total: built.Total},
		NewInSet(slices.Clone(built.Ranges), built.Total),
	}
}

func TestFindMatchesLinearScan(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, in := range inSets(r, genElems(r, int(seed)%numShapes)) {
			checkFind(t, in)
		}
	}
}

func FuzzInSetFind(f *testing.F) {
	for shape := 0; shape < numShapes; shape++ {
		f.Add(int64(shape), uint8(shape))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		for _, in := range inSets(r, genElems(r, int(shape)%numShapes)) {
			checkFind(t, in)
		}
	})
}

// TestFindLiteralFromManyGoroutines: an InSet literal may meet its
// first Find on several goroutines at once (run under -race in CI).
func TestFindLiteralFromManyGoroutines(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	in := inSets(r, genElems(r, shapeRows))[1]
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func() {
			ok := true
			for _, rg := range in.Ranges {
				buf, found := in.Find(rg.FromProc, rg.High)
				ok = ok && found && buf == rg.Buf+rg.Len()-1
			}
			done <- ok
		}()
	}
	for w := 0; w < 4; w++ {
		if !<-done {
			t.Error("a concurrent Find missed a recorded element")
		}
	}
}

// refBuilder is the Builder this package had before the exact set and
// the radix sort: a Go map from element to home, dumped and ordered by
// sort.Slice.  It fixes what Add must answer and what Finalize must
// produce.
type refBuilder struct {
	me    int
	elems map[int]int
}

func (b *refBuilder) Add(g, home int) bool {
	if _, ok := b.elems[g]; ok {
		return false
	}
	b.elems[g] = home
	return true
}

func (b *refBuilder) Finalize() (ranges []Range, total int) {
	type elem struct{ g, home int }
	es := make([]elem, 0, len(b.elems))
	for g, home := range b.elems {
		es = append(es, elem{g, home})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].home != es[j].home {
			return es[i].home < es[j].home
		}
		return es[i].g < es[j].g
	})
	for _, e := range es {
		if n := len(ranges); n > 0 {
			last := &ranges[n-1]
			if last.FromProc == e.home && last.High+1 == e.g {
				last.High = e.g
				continue
			}
		}
		ranges = append(ranges, Range{FromProc: e.home, ToProc: b.me, Low: e.g, High: e.g})
	}
	off := 0
	for i := range ranges {
		ranges[i].Buf = off
		off += ranges[i].Len()
	}
	return ranges, len(es)
}

// TestBuilderAddFinalizeMatchesReference: on random Add streams with
// duplicates the Builder gives the reference's answer to every Add —
// the inspector charges a list insert exactly where Add says "new", so
// the sequence decides simulated clocks — and the reference's records,
// and FinalizeOffsets maps every insertion id to the offset Find gives
// its element.
func TestBuilderAddFinalizeMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		elems := genElems(r, int(seed)%numShapes)
		me := 0
		if seed%5 == 0 {
			me = -77
		}
		var stream [][2]int
		for n := 2 * len(elems); n > 0; n-- {
			stream = append(stream, elems[r.Intn(len(elems))])
		}
		checkBuilder(t, me, stream, elems)
	}
}

// FuzzBuilderFinalize: checkBuilder on arbitrary (g, home) streams.
// The bytes are read as 5-byte entries: a 4-byte index and a home in
// -8..7; an entry whose home is the receiver, or whose index was seen
// with another home, is skipped, as no distribution would make it.
func FuzzBuilderFinalize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 1, 2, 0, 0, 0, 1, 1, 0, 0, 0, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 3, 0, 0, 0, 0x80, 0xfd, 7, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, raw []byte) {
		homes := map[int]int{}
		var stream [][2]int
		for ; len(raw) >= 5; raw = raw[5:] {
			g := int(int32(binary.LittleEndian.Uint32(raw)))
			home := int(raw[4]&15) - 8
			if h, ok := homes[g]; home == 0 || ok && h != home {
				continue
			}
			homes[g] = home
			stream = append(stream, [2]int{g, home})
		}
		checkBuilder(t, 0, stream, stream)
	})
}

// checkBuilder feeds stream's (g, home) pairs to a Builder for
// receiver me and to the reference and compares every Add's answer
// and id, the records, and every insertion id's offset against Find;
// then it feeds after, to show that Finalize left the set as it was.
// It does so twice: with a fresh Builder, and with one recycled from a
// larger build for another receiver, which must give the same ids,
// records and offsets.
func checkBuilder(t *testing.T, me int, stream, after [][2]int) {
	t.Helper()
	var fresh []int32
	for i, b := range []*Builder{NewBuilder(me), recycledBuilder(me, len(stream))} {
		offsets := checkBuild(t, b, me, stream, after)
		if i == 0 {
			fresh = slices.Clone(offsets)
		} else if !slices.Equal(offsets, fresh) {
			t.Fatalf("recycled Builder gave offsets %v, a fresh one %v", offsets, fresh)
		}
	}
}

// recycledBuilder returns a Builder for receiver me that has recorded
// and finalized a build of more than n elements for another receiver,
// and been Reset.
func recycledBuilder(me, n int) *Builder {
	b := NewBuilder(me + 1)
	for k := 0; k < 2*n+40; k++ {
		b.Add(3*k-n, me+2+k%5)
	}
	b.FinalizeOffsets()
	b.Reset(me)
	return b
}

// checkBuild is checkBuilder for one Builder b; it returns the offsets.
func checkBuild(t *testing.T, b *Builder, me int, stream, after [][2]int) []int32 {
	t.Helper()
	ref := &refBuilder{me: me, elems: map[int]int{}}
	ids := map[int]int{} // g -> insertion id
	add := func(e [2]int) {
		t.Helper()
		id, got := b.Add(e[0], e[1])
		if want := ref.Add(e[0], e[1]); got != want {
			t.Fatalf("Add(%d, %d) added = %v, reference %v", e[0], e[1], got, want)
		}
		if first, seen := ids[e[0]]; seen && id != first || !seen && id != len(ids) {
			t.Fatalf("Add(%d, %d) gave id %d; earlier ids %v", e[0], e[1], id, ids)
		}
		ids[e[0]] = id
		if b.Count() != len(ref.elems) {
			t.Fatalf("Count = %d, reference %d", b.Count(), len(ref.elems))
		}
	}
	for _, e := range stream {
		add(e)
	}
	in, offsets := b.FinalizeOffsets()
	ranges, total := ref.Finalize()
	if in.Total != total || !slices.Equal(in.Ranges, ranges) {
		t.Fatalf("Finalize gave %d elements in %v, reference %d in %v", in.Total, in.Ranges, total, ranges)
	}
	if len(offsets) != len(ids) {
		t.Fatalf("FinalizeOffsets gave %d offsets for %d ids", len(offsets), len(ids))
	}
	for g, id := range ids {
		if off, ok := in.Find(ref.elems[g], g); !ok || int(offsets[id]) != off {
			t.Fatalf("element %d (id %d): offset %d, Find says %d, %v", g, id, offsets[id], off, ok)
		}
	}
	for _, e := range after {
		add(e)
	}
	return offsets
}
