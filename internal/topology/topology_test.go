package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGridErrors(t *testing.T) {
	if _, err := NewGrid(); err == nil {
		t.Fatal("expected error for rank-0 grid")
	}
	if _, err := NewGrid(4, 0); err == nil {
		t.Fatal("expected error for zero extent")
	}
	if _, err := NewGrid(-2); err == nil {
		t.Fatal("expected error for negative extent")
	}
}

func TestGridLinearCoordRoundTrip(t *testing.T) {
	g := MustGrid(3, 4, 5)
	if g.Size() != 60 || g.Rank() != 3 {
		t.Fatalf("size/rank wrong: %d/%d", g.Size(), g.Rank())
	}
	for id := 0; id < g.Size(); id++ {
		c := g.Coord(id)
		if got := g.Linear(c...); got != id {
			t.Fatalf("round trip failed: %d -> %v -> %d", id, c, got)
		}
	}
}

func TestGridRowMajorOrder(t *testing.T) {
	g := MustGrid(2, 3)
	// Row-major: (0,0)=0 (0,1)=1 (0,2)=2 (1,0)=3 ...
	if g.Linear(0, 2) != 2 || g.Linear(1, 0) != 3 || g.Linear(1, 2) != 5 {
		t.Fatal("row-major linearization wrong")
	}
}

func TestGridPanics(t *testing.T) {
	g := MustGrid(2, 2)
	for _, f := range []func(){
		func() { g.Linear(0) },     // wrong rank
		func() { g.Linear(2, 0) },  // out of range
		func() { g.Linear(0, -1) }, // negative
		func() { g.Coord(4) },      // id too big
		func() { g.Coord(-1) },     // id negative
		func() { MustGrid(0) },     // bad extent
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

func TestChoose(t *testing.T) {
	cases := []struct {
		minP, maxP, avail int
		want              int
		wantErr           bool
	}{
		{1, 128, 128, 128, false},
		{1, 128, 100, 64, false}, // round down to power of two
		{1, 50, 128, 32, false},  // capped by maxP then rounded
		{1, 1, 16, 1, false},
		{100, 128, 100, 100, false}, // pow-of-two 64 < minP, keep 100
		{10, 5, 16, 0, true},        // invalid bounds
		{8, 16, 4, 0, true},         // too few available
		{0, 4, 4, 0, true},          // minP < 1
	}
	for _, c := range cases {
		got, err := Choose(c.minP, c.maxP, c.avail)
		if (err != nil) != c.wantErr {
			t.Errorf("Choose(%d,%d,%d) err = %v", c.minP, c.maxP, c.avail, err)
			continue
		}
		if !c.wantErr && got != c.want {
			t.Errorf("Choose(%d,%d,%d) = %d, want %d", c.minP, c.maxP, c.avail, got, c.want)
		}
	}
}

// TestQuickGridRoundTrip: Linear∘Coord = id for random grids.
func TestQuickGridRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rank := 1 + r.Intn(3)
		ext := make([]int, rank)
		for i := range ext {
			ext[i] = 1 + r.Intn(6)
		}
		g := MustGrid(ext...)
		id := r.Intn(g.Size())
		return g.Linear(g.Coord(id)...) == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGridMetadataAccessors(t *testing.T) {
	g := MustGrid(3, 5)
	if g.Extent(0) != 3 || g.Extent(1) != 5 {
		t.Fatalf("Extent = %d, %d", g.Extent(0), g.Extent(1))
	}
	if g.String() != "Grid[3 5]" {
		t.Fatalf("String = %q", g.String())
	}
}
