package index

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{3, 7}
	if iv.Empty() {
		t.Fatal("non-empty interval reported empty")
	}
	if got := iv.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	if !iv.Contains(3) || !iv.Contains(7) || iv.Contains(8) || iv.Contains(2) {
		t.Fatal("Contains boundary behaviour wrong")
	}
	empty := Interval{5, 4}
	if !empty.Empty() || empty.Len() != 0 {
		t.Fatal("empty interval misreported")
	}
}

func TestIntervalIntersect(t *testing.T) {
	cases := []struct {
		a, b, want Interval
	}{
		{Interval{1, 5}, Interval{3, 9}, Interval{3, 5}},
		{Interval{1, 5}, Interval{6, 9}, Interval{6, 5}},
		{Interval{1, 9}, Interval{3, 4}, Interval{3, 4}},
		{Interval{5, 5}, Interval{5, 5}, Interval{5, 5}},
	}
	for _, c := range cases {
		got := c.a.Intersect(c.b)
		if got.Empty() != c.want.Empty() {
			t.Errorf("%v ∩ %v emptiness = %v", c.a, c.b, got)
			continue
		}
		if !got.Empty() && got != c.want {
			t.Errorf("%v ∩ %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRangeAndSingle(t *testing.T) {
	s := Range(2, 6)
	if s.Len() != 5 || s.Min() != 2 || s.Max() != 6 {
		t.Fatalf("Range(2,6) = %v", s)
	}
	if !Range(6, 2).Empty() {
		t.Fatal("inverted range should be empty")
	}
	if got := Single(4).Slice(); !reflect.DeepEqual(got, []int{4}) {
		t.Fatalf("Single(4) = %v", got)
	}
}

func TestStrided(t *testing.T) {
	s := Strided(1, 10, 3)
	want := []int{1, 4, 7, 10}
	if got := s.Slice(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Strided = %v, want %v", got, want)
	}
	if got := Strided(1, 10, 1); !got.Equal(Range(1, 10)) {
		t.Fatalf("stride-1 should equal Range: %v", got)
	}
	if !Strided(5, 4, 2).Empty() {
		t.Fatal("empty strided range")
	}
}

func TestStridedPanicsOnBadStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for stride 0")
		}
	}()
	Strided(1, 5, 0)
}

func TestFromIntervalsNormalizes(t *testing.T) {
	s := FromIntervals(Interval{5, 9}, Interval{1, 3}, Interval{4, 4}, Interval{20, 10})
	// 1..3 and 4..4 and 5..9 are adjacent and must merge to 1..9.
	if s.NumIntervals() != 1 || !s.Equal(Range(1, 9)) {
		t.Fatalf("normalization failed: %v", s)
	}
}

func TestFromSlice(t *testing.T) {
	s := FromSlice([]int{7, 1, 2, 2, 3, 9})
	if got, want := s.String(), "{[1..3] [7] [9]}"; got != want {
		t.Fatalf("FromSlice = %s, want %s", got, want)
	}
}

func TestContains(t *testing.T) {
	s := FromSlice([]int{1, 2, 3, 10, 11, 40})
	for _, x := range []int{1, 2, 3, 10, 11, 40} {
		if !s.Contains(x) {
			t.Errorf("should contain %d", x)
		}
	}
	for _, x := range []int{0, 4, 9, 12, 39, 41} {
		if s.Contains(x) {
			t.Errorf("should not contain %d", x)
		}
	}
	if Empty.Contains(0) {
		t.Error("empty set contains nothing")
	}
}

func TestUnionIntersectMinus(t *testing.T) {
	a := Range(1, 10)
	b := FromIntervals(Interval{5, 15})
	if got := a.Union(b); !got.Equal(Range(1, 15)) {
		t.Fatalf("union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(Range(5, 10)) {
		t.Fatalf("intersect = %v", got)
	}
	if got := a.Minus(b); !got.Equal(Range(1, 4)) {
		t.Fatalf("minus = %v", got)
	}
	if got := b.Minus(a); !got.Equal(Range(11, 15)) {
		t.Fatalf("minus2 = %v", got)
	}
}

func TestMinusSplitsIntervals(t *testing.T) {
	a := Range(1, 100)
	b := FromIntervals(Interval{10, 20}, Interval{50, 60})
	got := a.Minus(b)
	want := FromIntervals(Interval{1, 9}, Interval{21, 49}, Interval{61, 100})
	if !got.Equal(want) {
		t.Fatalf("minus = %v, want %v", got, want)
	}
}

func TestShiftAndAffine(t *testing.T) {
	s := FromIntervals(Interval{1, 3}, Interval{7, 8})
	if got := s.Shift(10); got.String() != "{[11..13] [17..18]}" {
		t.Fatalf("shift = %v", got)
	}
	if got := s.Affine(1, -1); !got.Equal(s.Shift(-1)) {
		t.Fatalf("affine(1,-1) = %v", got)
	}
	if got := s.Affine(-1, 0); got.String() != "{[-8..-7] [-3..-1]}" {
		t.Fatalf("affine(-1,0) = %v", got)
	}
	if got := Range(1, 3).Affine(2, 0); !got.Equal(FromSlice([]int{2, 4, 6})) {
		t.Fatalf("affine(2,0) = %v", got)
	}
}

func TestInverseAffine(t *testing.T) {
	// x+1 ∈ [5..10]  ⇒ x ∈ [4..9]
	if got := Range(5, 10).InverseAffine(1, 1); !got.Equal(Range(4, 9)) {
		t.Fatalf("inv(1,1) = %v", got)
	}
	// 2x ∈ [5..10] ⇒ x ∈ [3..5]
	if got := Range(5, 10).InverseAffine(2, 0); !got.Equal(Range(3, 5)) {
		t.Fatalf("inv(2,0) = %v", got)
	}
	// -x ∈ [5..10] ⇒ x ∈ [-10..-5]
	if got := Range(5, 10).InverseAffine(-1, 0); !got.Equal(Range(-10, -5)) {
		t.Fatalf("inv(-1,0) = %v", got)
	}
	// 3x+1 ∈ [2..4] ⇒ x ∈ {1}
	if got := Range(2, 4).InverseAffine(3, 1); !got.Equal(Single(1)) {
		t.Fatalf("inv(3,1) = %v", got)
	}
	// empty preimage
	if got := Range(2, 2).InverseAffine(3, 0); !got.Empty() {
		t.Fatalf("inv of unreachable point = %v", got)
	}
}

// TestSubsetEqual: the subset relation, as an empty difference, and
// set equality.
func TestSubsetEqual(t *testing.T) {
	a := Range(3, 6)
	b := Range(1, 10)
	subset := func(x, y Set) bool { return x.Minus(y).Empty() }
	if !subset(a, b) || subset(b, a) {
		t.Fatal("subset relation wrong")
	}
	if !subset(a, a) || !subset(Empty, a) {
		t.Fatal("reflexivity / empty subset wrong")
	}
	if a.Equal(b) || !a.Equal(Range(3, 6)) {
		t.Fatal("equality wrong")
	}
}

func TestEachOrder(t *testing.T) {
	s := FromIntervals(Interval{5, 6}, Interval{1, 2})
	var got []int
	s.Each(func(x int) { got = append(got, x) })
	if !reflect.DeepEqual(got, []int{1, 2, 5, 6}) {
		t.Fatalf("Each order = %v", got)
	}
}

func TestMinMaxPanicOnEmpty(t *testing.T) {
	for _, f := range []func(){func() { Empty.Min() }, func() { Empty.Max() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on empty set")
				}
			}()
			f()
		}()
	}
}

func TestStringForms(t *testing.T) {
	if Empty.String() != "{}" {
		t.Fatalf("empty string = %q", Empty.String())
	}
	if got := Single(3).String(); got != "{[3]}" {
		t.Fatalf("singleton = %q", got)
	}
}

// randomSet builds a random set over a small universe for property tests.
func randomSet(r *rand.Rand) Set {
	n := r.Intn(12)
	xs := make([]int, n)
	for i := range xs {
		xs[i] = r.Intn(40) - 10
	}
	return FromSlice(xs)
}

// asMap converts a set to a map for model-based checking.
func asMap(s Set) map[int]bool {
	m := map[int]bool{}
	s.Each(func(x int) { m[x] = true })
	return m
}

func fromMap(m map[int]bool) Set {
	xs := make([]int, 0, len(m))
	for x := range m {
		xs = append(xs, x)
	}
	sort.Ints(xs)
	return FromSlice(xs)
}

// TestQuickSetAlgebra model-checks union/intersect/minus against maps.
func TestQuickSetAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		ma, mb := asMap(a), asMap(b)

		mu := map[int]bool{}
		for x := range ma {
			mu[x] = true
		}
		for x := range mb {
			mu[x] = true
		}
		mi := map[int]bool{}
		for x := range ma {
			if mb[x] {
				mi[x] = true
			}
		}
		md := map[int]bool{}
		for x := range ma {
			if !mb[x] {
				md[x] = true
			}
		}
		return a.Union(b).Equal(fromMap(mu)) &&
			a.Intersect(b).Equal(fromMap(mi)) &&
			a.Minus(b).Equal(fromMap(md))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAlgebraicLaws checks the set identities the schedule
// algebra relies on: commutativity, idempotence, and the partition of a
// set by another.
func TestQuickAlgebraicLaws(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		// commutativity
		if !a.Union(b).Equal(b.Union(a)) || !a.Intersect(b).Equal(b.Intersect(a)) {
			return false
		}
		// idempotence
		if !a.Union(a).Equal(a) || !a.Intersect(a).Equal(a) {
			return false
		}
		// partition: (a ∖ b) ∪ (a ∩ b) == a
		if !a.Minus(b).Union(a.Intersect(b)).Equal(a) {
			return false
		}
		// a ∖ b and b are disjoint
		if !a.Minus(b).Intersect(b).Empty() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNormalForm checks the representation invariant after random ops.
func TestQuickNormalForm(t *testing.T) {
	check := func(s Set) bool {
		prev := Interval{0, -1}
		for i, iv := range s.Intervals() {
			if iv.Empty() {
				return false
			}
			if i > 0 && iv.Lo <= prev.Hi+1 { // must be disjoint and non-adjacent
				return false
			}
			prev = iv
		}
		return true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		return check(a.Union(b)) && check(a.Intersect(b)) && check(a.Minus(b)) &&
			check(a.Shift(r.Intn(7)-3)) && check(a.InverseAffine(1+r.Intn(3), r.Intn(5)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInverseAffine: x ∈ InverseAffine(a,c)(s) ⇔ a*x+c ∈ s over a window.
func TestQuickInverseAffine(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r)
		a := []int{1, -1, 2, 3, -2}[r.Intn(5)]
		c := r.Intn(9) - 4
		inv := s.InverseAffine(a, c)
		for x := -60; x <= 60; x++ {
			if inv.Contains(x) != s.Contains(a*x+c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIntersectLarge(b *testing.B) {
	var ivs1, ivs2 []Interval
	for i := 0; i < 1000; i++ {
		ivs1 = append(ivs1, Interval{i * 10, i*10 + 4})
		ivs2 = append(ivs2, Interval{i*10 + 3, i*10 + 8})
	}
	s1, s2 := FromIntervals(ivs1...), FromIntervals(ivs2...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s1.Intersect(s2)
	}
}

func BenchmarkContains(b *testing.B) {
	var ivs []Interval
	for i := 0; i < 1000; i++ {
		ivs = append(ivs, Interval{i * 10, i*10 + 4})
	}
	s := FromIntervals(ivs...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Contains((i * 7) % 10000)
	}
}

// TestIntervalOverlapsAndShift: two intervals overlap when their
// intersection is not empty, touching ones included.
func TestIntervalOverlapsAndShift(t *testing.T) {
	a, b := Interval{1, 5}, Interval{5, 9}
	if a.Intersect(b).Empty() || b.Intersect(a).Empty() {
		t.Fatal("touching intervals overlap")
	}
	if !a.Intersect(Interval{6, 9}).Empty() {
		t.Fatal("disjoint intervals must not overlap")
	}
	if got := a.Shift(3); got != (Interval{4, 8}) {
		t.Fatalf("Shift = %v", got)
	}
}

// TestLinearize2 checks the row-major rectangle linearization.
func TestLinearize2(t *testing.T) {
	// 3 rows × cols {2,3} over width 4: rows 2..4.
	got := Linearize2(Range(2, 4), Range(2, 3), 4)
	want := FromIntervals(Interval{6, 7}, Interval{10, 11}, Interval{14, 15})
	if !got.Equal(want) {
		t.Fatalf("Linearize2 = %v, want %v", got, want)
	}
	// Full-width adjacent rows merge into one interval.
	full := Linearize2(Range(2, 3), Range(1, 4), 4)
	if full.NumIntervals() != 1 || !full.Equal(Range(5, 12)) {
		t.Fatalf("full-width rows = %v, want {[5..12]}", full)
	}
	if !Linearize2(Set{}, Range(1, 2), 4).Empty() || !Linearize2(Range(1, 2), Set{}, 4).Empty() {
		t.Fatal("empty factor should give empty product")
	}
	// Strided columns stay per-row.
	s := Linearize2(Single(2), Strided(1, 4, 2), 4)
	if !s.Equal(FromIntervals(Interval{5, 5}, Interval{7, 7})) {
		t.Fatalf("strided = %v", s)
	}
}
