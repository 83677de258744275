package comm

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(0)
	for want, g := range []int{5, 7, 6, 20} {
		if id, added := b.Add(g, 1+g/20); !added || id != want {
			t.Fatalf("first Add of %d = %d, %v; want id %d, added", g, id, added, want)
		}
	}
	if id, added := b.Add(5, 1); added || id != 0 {
		t.Fatalf("duplicate Add of 5 = %d, %v; want its id 0, not added", id, added)
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d", b.Count())
	}
	in := b.Finalize()
	if in.Total != 4 {
		t.Fatalf("Total = %d", in.Total)
	}
	// 5,6,7 from proc 1 merge into one record.
	if in.NumRanges() != 2 {
		t.Fatalf("ranges = %v", in.Ranges)
	}
	r0 := in.Ranges[0]
	if r0.FromProc != 1 || r0.Low != 5 || r0.High != 7 || r0.Buf != 0 {
		t.Fatalf("merged record wrong: %v", r0)
	}
	r1 := in.Ranges[1]
	if r1.FromProc != 2 || r1.Low != 20 || r1.High != 20 || r1.Buf != 3 {
		t.Fatalf("second record wrong: %v", r1)
	}
}

func TestBuilderPanics(t *testing.T) {
	b := NewBuilder(3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Add of local element must panic")
			}
		}()
		b.Add(5, 3)
	}()
	b.Add(5, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("conflicting home must panic")
			}
		}()
		b.Add(5, 2)
	}()
}

func TestFind(t *testing.T) {
	b := NewBuilder(0)
	for _, e := range []struct{ g, home int }{
		{5, 1}, {6, 1}, {7, 1}, {9, 1}, {3, 2}, {100, 3},
	} {
		b.Add(e.g, e.home)
	}
	in := b.Finalize()
	// Every recorded element must be findable and buffer offsets
	// must be distinct and dense.
	seen := map[int]bool{}
	for _, e := range []struct{ g, home int }{
		{5, 1}, {6, 1}, {7, 1}, {9, 1}, {3, 2}, {100, 3},
	} {
		buf, ok := in.Find(e.home, e.g)
		if !ok {
			t.Fatalf("element %d from %d not found", e.g, e.home)
		}
		if seen[buf] {
			t.Fatalf("duplicate buffer slot %d", buf)
		}
		seen[buf] = true
		if buf < 0 || buf >= in.Total {
			t.Fatalf("buffer slot %d out of range", buf)
		}
	}
	// Misses.
	if _, ok := in.Find(1, 8); ok {
		t.Fatal("8 was never added")
	}
	if _, ok := in.Find(2, 5); ok {
		t.Fatal("5 is from proc 1, not 2")
	}
	if _, ok := in.Find(9, 5); ok {
		t.Fatal("unknown home")
	}
}

func TestSendersAndRangesFrom(t *testing.T) {
	b := NewBuilder(0)
	b.Add(1, 3)
	b.Add(2, 3)
	b.Add(10, 1)
	b.Add(30, 5)
	in := b.Finalize()
	if got := in.Senders(); !equalInts(got, []int{1, 3, 5}) {
		t.Fatalf("Senders = %v", got)
	}
	if got := in.RangesFrom(3); len(got) != 1 || got[0].Low != 1 || got[0].High != 2 {
		t.Fatalf("RangesFrom(3) = %v", got)
	}
	if got := in.RangesFrom(2); len(got) != 0 {
		t.Fatalf("RangesFrom(2) = %v", got)
	}
}

func TestBuildOutTransposes(t *testing.T) {
	// Records arriving at proc 1 from the router: proc 0 needs [5..7],
	// proc 2 needs [6..6] and [8..9].
	recs := []Range{
		{FromProc: 1, ToProc: 2, Low: 8, High: 9},
		{FromProc: 1, ToProc: 0, Low: 5, High: 7},
		{FromProc: 1, ToProc: 2, Low: 6, High: 6},
	}
	out := BuildOut(1, recs)
	if out.Total != 6 {
		t.Fatalf("Total = %d", out.Total)
	}
	if got := out.Receivers(); !equalInts(got, []int{0, 2}) {
		t.Fatalf("Receivers = %v", got)
	}
	if got := out.RangesTo(2); len(got) != 2 || got[0].Low != 6 || got[1].Low != 8 {
		t.Fatalf("RangesTo(2) = %v", got)
	}
}

func TestBuildOutMergesAdjacent(t *testing.T) {
	recs := []Range{
		{FromProc: 0, ToProc: 1, Low: 5, High: 6},
		{FromProc: 0, ToProc: 1, Low: 7, High: 9},
	}
	out := BuildOut(0, recs)
	if len(out.Ranges) != 1 || out.Ranges[0].Low != 5 || out.Ranges[0].High != 9 {
		t.Fatalf("merge failed: %v", out.Ranges)
	}
}

func TestBuildOutPanicsOnWrongSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildOut(1, []Range{{FromProc: 2, ToProc: 0, Low: 1, High: 1}})
}

func TestPackUnpackRoundTrip(t *testing.T) {
	// Proc 1 sends elements 5..7 and 9 to proc 0.
	b := NewBuilder(0)
	for _, g := range []int{5, 6, 7, 9} {
		b.Add(g, 1)
	}
	in := b.Finalize()

	outRecs := make([]Range, len(in.Ranges))
	copy(outRecs, in.Ranges)
	out := BuildOut(1, outRecs)

	if got := out.CountTo(0); got != 4 {
		t.Fatalf("CountTo(0) = %d, want 4", got)
	}
	payload := make([]float64, out.CountTo(0))
	ranged := 0
	n0 := out.PackInto(0, payload, func(lo, hi int, dst []float64) {
		ranged++
		for g := lo; g <= hi; g++ {
			dst[g-lo] = float64(g) * 10
		}
	})
	if n0 != 4 {
		t.Fatalf("packed %d values, want 4", n0)
	}
	// Elements 5..7 and 9 form two contiguous records, so the bulk
	// pack must touch exactly two ranges, not four elements.
	if ranged != 2 {
		t.Fatalf("PackInto made %d range copies, want 2", ranged)
	}
	buf := make([]float64, in.Total)
	n := in.Unpack(1, payload, buf)
	if n != 4 {
		t.Fatalf("consumed %d", n)
	}
	for _, g := range []int{5, 6, 7, 9} {
		slot, ok := in.Find(1, g)
		if !ok || buf[slot] != float64(g)*10 {
			t.Fatalf("element %d: slot=%d ok=%v val=%g", g, slot, ok, buf[slot])
		}
	}
}

func TestUnpackSizeMismatchPanics(t *testing.T) {
	b := NewBuilder(0)
	b.Add(5, 1)
	in := b.Finalize()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	in.Unpack(1, []float64{1, 2}, make([]float64, 1))
}

// TestUnpackScatteredOffsets: an in set whose sender's records do not
// occupy consecutive buffer slots, as a literal may lay them out, still
// lands every value where Find says it is.
func TestUnpackScatteredOffsets(t *testing.T) {
	in := &InSet{Ranges: []Range{
		{FromProc: 1, Low: 5, High: 7, Buf: 4},
		{FromProc: 1, Low: 9, High: 9, Buf: 0},
		{FromProc: 2, Low: 20, High: 21, Buf: 1},
		{FromProc: 3, Low: 30, High: 30, Buf: 3},
		{FromProc: 3, Low: 32, High: 32, Buf: 7},
	}, Total: 8}
	buf := make([]float64, in.Total)
	for q := 1; q <= 3; q++ {
		var payload []float64
		for _, r := range in.RangesFrom(q) {
			for g := r.Low; g <= r.High; g++ {
				payload = append(payload, float64(g))
			}
		}
		if n := in.Unpack(q, payload, buf); n != len(payload) {
			t.Fatalf("Unpack from %d consumed %d of %d values", q, n, len(payload))
		}
	}
	for _, r := range in.Ranges {
		for g := r.Low; g <= r.High; g++ {
			if off, ok := in.Find(r.FromProc, g); !ok || buf[off] != float64(g) {
				t.Errorf("element %d from %d: offset %d (%v) holds %g", g, r.FromProc, off, ok, buf[off])
			}
		}
	}
}

// TestQuickFindMatchesModel: Find agrees with a map-based model for
// random element sets, and merging preserves the element multiset.
func TestQuickFindMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// A consistent owner function: home(g) is a pure function of g,
		// as it is for any real distribution.
		home := func(g int) int { return 1 + (g*7+int(seed&3))%5 }
		b := NewBuilder(0)
		model2 := map[[2]int]bool{} // (home, g)
		for k := 0; k < r.Intn(60); k++ {
			g := r.Intn(50)
			b.Add(g, home(g))
			model2[[2]int{home(g), g}] = true
		}
		in := b.Finalize()
		// total must equal model size
		if in.Total != len(model2) {
			return false
		}
		slots := map[int]bool{}
		for k := range model2 {
			buf, ok := in.Find(k[0], k[1])
			if !ok || slots[buf] {
				return false
			}
			slots[buf] = true
		}
		// negative lookups
		for g := 0; g < 50; g++ {
			for home := 1; home <= 5; home++ {
				_, ok := in.Find(home, g)
				if ok != model2[[2]int{home, g}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRangesSortedMerged: representation invariant — in-set
// records sorted by (FromProc, Low), disjoint, maximally merged.
func TestQuickRangesSortedMerged(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := NewBuilder(0)
		home := func(g int) int { return 1 + (g*13+int(seed&7))%4 }
		for k := 0; k < 5+r.Intn(80); k++ {
			g := r.Intn(100)
			b.Add(g, home(g))
		}
		in := b.Finalize()
		if !sort.SliceIsSorted(in.Ranges, func(i, j int) bool {
			a, c := in.Ranges[i], in.Ranges[j]
			if a.FromProc != c.FromProc {
				return a.FromProc < c.FromProc
			}
			return a.Low < c.Low
		}) {
			return false
		}
		for i := 1; i < len(in.Ranges); i++ {
			a, c := in.Ranges[i-1], in.Ranges[i]
			if a.FromProc == c.FromProc && c.Low <= a.High+1 {
				return false // overlapping or unmerged adjacency
			}
		}
		// buffer offsets dense
		off := 0
		for _, rg := range in.Ranges {
			if rg.Buf != off {
				return false
			}
			off += rg.Len()
		}
		return off == in.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkFind(b *testing.B) {
	bd := NewBuilder(0)
	for g := 0; g < 4096; g += 2 { // 2048 singleton ranges
		bd.Add(g, 1+g%7)
	}
	in := bd.Finalize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Find(1+(i*2%4096)%7, i*2%4096)
	}
}
