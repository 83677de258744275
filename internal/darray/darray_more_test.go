package darray

import (
	"testing"

	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/topology"
)

func TestHeaderAccessors(t *testing.T) {
	d := blockDist(10, 2)
	onEachNode(2, func(n *machine.Node) {
		a := New("alpha", d, n)
		if a.Name() != "alpha" || a.Dist() != d || a.Node() != n {
			t.Error("accessors wrong")
		}
		if s := a.Shape(); len(s) != 1 || s[0] != 10 {
			t.Errorf("Shape = %v", s)
		}
		// Shape must be a defensive copy.
		a.Shape()[0] = 999
		if a.Shape()[0] != 10 {
			t.Error("Shape aliased internal state")
		}
		if a.Size() != 10 {
			t.Errorf("Size = %d", a.Size())
		}
	})
}

func TestIntArrayRank1Accessors(t *testing.T) {
	d := blockDist(8, 2)
	onEachNode(2, func(n *machine.Node) {
		ia := NewInt("k", d, n)
		if ia.Name() != "k" || ia.Rank() != 1 || ia.LocalCount() != 4 {
			t.Error("int array metadata")
		}
		for i := 1; i <= 8; i++ {
			if !ia.IsLocal1(i) {
				continue
			}
			ia.Set1(i, i*7)
			if ia.Get1(i) != i*7 || ia.Get(i) != i*7 {
				t.Errorf("int get/set at %d", i)
			}
		}
		if len(ia.LocalValues()) != 4 {
			t.Error("LocalValues")
		}
		// Variadic set on int arrays.
		lo := ia.Dist().Pattern(0).Local(n.ID()).Min()
		ia.Set(lo*100, lo)
		if ia.Get1(lo) != lo*100 {
			t.Error("variadic Set")
		}
	})
}

func TestIsLocal1AndOwner1(t *testing.T) {
	d := blockDist(8, 2)
	onEachNode(2, func(n *machine.Node) {
		a := New("a", d, n)
		for i := 1; i <= 8; i++ {
			wantOwner := (i - 1) / 4
			if a.Owner1(i) != wantOwner {
				t.Errorf("Owner1(%d) = %d", i, a.Owner1(i))
			}
			if a.IsLocal1(i) != (wantOwner == n.ID()) {
				t.Errorf("IsLocal1(%d) wrong on node %d", i, n.ID())
			}
		}
	})
	// Replicated + out-of-range panic paths.
	g := topology.MustGrid(2)
	rep := dist.NewReplicated([]int{4}, g)
	onEachNode(2, func(n *machine.Node) {
		r := New("r", rep, n)
		if !r.IsLocal1(2) || r.Owner1(2) != -1 {
			t.Error("replicated IsLocal1/Owner1")
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-range IsLocal1 on replicated")
			}
		}()
		r.IsLocal1(9)
	})
}

func TestFloatLocalValuesAndVariadic(t *testing.T) {
	d := blockDist(6, 2)
	onEachNode(2, func(n *machine.Node) {
		a := New("a", d, n)
		vals := a.LocalValues()
		if len(vals) != 3 {
			t.Fatalf("local values len %d", len(vals))
		}
		lo := a.Dist().Pattern(0).Local(n.ID()).Min()
		a.Set(2.5, lo) // variadic setter
		if a.Get(lo) != 2.5 || vals[0] != 2.5 {
			t.Error("variadic get/set or aliasing")
		}
	})
}

// TestSecondDimDistributed exercises offset2 with [*, block] layout —
// columns distributed, rows whole.
func TestSecondDimDistributed(t *testing.T) {
	g := topology.MustGrid(2)
	d := dist.Must([]int{3, 8}, []dist.DimSpec{dist.CollapsedDim(), dist.BlockDim()}, g)
	onEachNode(2, func(n *machine.Node) {
		a := New("a", d, n)
		if a.LocalCount() != 12 {
			t.Fatalf("local count %d", a.LocalCount())
		}
		for i := 1; i <= 3; i++ {
			for j := 1; j <= 8; j++ {
				if !a.IsLocal(i, j) {
					continue
				}
				a.Set2(i, j, float64(i*10+j))
			}
		}
		for i := 1; i <= 3; i++ {
			for j := 1; j <= 8; j++ {
				if a.IsLocal(i, j) && a.Get2(i, j) != float64(i*10+j) {
					t.Errorf("a[%d,%d] wrong", i, j)
				}
			}
		}
		// Column ownership: cols 1-4 on node 0.
		if a.IsLocal(1, 2) != (n.ID() == 0) {
			t.Error("column ownership wrong")
		}
		// Out-of-range second dim panics.
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		a.Get2(1, 9)
	})
}

// TestRank3Linear exercises the generic (rank > 2) offsetLinear path.
func TestRank3Linear(t *testing.T) {
	g := topology.MustGrid(2)
	d := dist.Must([]int{4, 3, 2},
		[]dist.DimSpec{dist.BlockDim(), dist.CollapsedDim(), dist.CollapsedDim()}, g)
	onEachNode(2, func(n *machine.Node) {
		a := New("a", d, n)
		if a.Rank() != 3 || a.Size() != 24 {
			t.Fatal("rank-3 metadata")
		}
		for gl := 1; gl <= 24; gl++ {
			if a.OwnerLinear(gl) != n.ID() {
				continue
			}
			a.SetLinear(gl, float64(gl))
		}
		for gl := 1; gl <= 24; gl++ {
			if a.OwnerLinear(gl) == n.ID() && a.GetLinear(gl) != float64(gl) {
				t.Errorf("rank-3 linear access at %d", gl)
			}
		}
		// Coordinate and linear access agree.
		if a.OwnerLinear(a.Linear(2, 3, 1)) == n.ID() {
			if a.Get(2, 3, 1) != float64(a.Linear(2, 3, 1)) {
				t.Error("coordinate/linear mismatch")
			}
		}
	})
}

func TestIntArray2DMetadata(t *testing.T) {
	g := topology.MustGrid(2)
	d := dist.Must([]int{4, 3}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, g)
	onEachNode(2, func(n *machine.Node) {
		ia := NewInt("adj", d, n)
		if s := ia.Shape(); s[0] != 4 || s[1] != 3 {
			t.Errorf("Shape = %v", s)
		}
		if ia.Dist() != d {
			t.Error("Dist")
		}
	})
}

// TestSpanViews: Span1/Span2 hand out the local row exactly when the
// whole span is inside one contiguous local window — the check a forall
// segment kernel makes once per span instead of once per element — and
// nil otherwise, without ever panicking.
func TestSpanViews(t *testing.T) {
	g := topology.MustGrid(2)
	// Rank 1, block: node 0 owns 1..4, node 1 owns 5..8.
	onEachNode(2, func(n *machine.Node) {
		a := New("a", blockDist(8, 2), n)
		lo := 1 + 4*n.ID()
		for i := lo; i < lo+4; i++ {
			a.Set1(i, float64(i))
		}
		v := a.Span1(lo+1, lo+3)
		if len(v) != 3 || v[0] != float64(lo+1) || v[2] != float64(lo+3) {
			t.Fatalf("node %d: Span1(%d,%d) = %v", n.ID(), lo+1, lo+3, v)
		}
		v[1] = -1 // the view aliases the partition
		if a.Get1(lo+2) != -1 {
			t.Error("Span1 must alias local storage")
		}
		for _, sp := range [][2]int{{lo - 1, lo + 1}, {lo + 2, lo + 4}, {0, 2}, {7, 9}, {lo + 2, lo + 1}} {
			if sp[0] >= lo && sp[1] < lo+4 && sp[0] <= sp[1] {
				continue
			}
			if a.Span1(sp[0], sp[1]) != nil {
				t.Errorf("node %d: Span1(%d,%d) leaves the local window, want nil", n.ID(), sp[0], sp[1])
			}
		}
		if a.Span2(1, 1, 2) != nil {
			t.Error("Span2 of a rank-1 array must be nil")
		}
	})
	// Cyclic has no contiguous window: never a span, even of length 1.
	onEachNode(2, func(n *machine.Node) {
		d := dist.Must([]int{8}, []dist.DimSpec{dist.CyclicDim()}, g)
		a := New("c", d, n)
		if a.Span1(1+n.ID(), 1+n.ID()) != nil {
			t.Error("cyclic array must not hand out spans")
		}
	})
	// Rank 2, [block, *] and replicated.
	onEachNode(2, func(n *machine.Node) {
		d := dist.Must([]int{4, 6}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, g)
		a := New("m", d, n)
		r := 1 + 2*n.ID() // first local row
		for j := 1; j <= 6; j++ {
			a.Set2(r+1, j, float64(10*(r+1)+j))
		}
		v := a.Span2(r+1, 2, 5)
		if len(v) != 4 || v[0] != float64(10*(r+1)+2) || v[3] != float64(10*(r+1)+5) {
			t.Fatalf("node %d: Span2(%d,2,5) = %v", n.ID(), r+1, v)
		}
		other := 3 - 2*n.ID() // a row of the other node
		if a.Span2(other, 1, 6) != nil || a.Span2(r, 0, 3) != nil || a.Span2(r, 4, 7) != nil || a.Span2(5, 1, 2) != nil {
			t.Errorf("node %d: span outside the local window must be nil", n.ID())
		}
		if a.Span1(1, 2) != nil {
			t.Error("Span1 of a rank-2 array must be nil")
		}
		rep := New("w", dist.NewReplicated([]int{5}, g), n)
		if v := rep.Span1(1, 5); len(v) != 5 {
			t.Errorf("replicated Span1(1,5) = %v, want the whole array", v)
		}
		if rep.Span1(1, 6) != nil {
			t.Error("replicated span out of bounds must be nil")
		}
	})
}

// TestLocalLinear: LocalLinear answers only from the contiguous local
// window of a rank-1 array — the value GetLinear would return — and
// declines everything else without panicking: nonlocal and
// out-of-range indices, cyclic arrays, rank 2.
func TestLocalLinear(t *testing.T) {
	g := topology.MustGrid(2)
	onEachNode(2, func(n *machine.Node) {
		a := New("a", blockDist(8, 2), n)
		rep := New("w", dist.NewReplicated([]int{8}, g), n)
		cyc := New("c", dist.Must([]int{8}, []dist.DimSpec{dist.CyclicDim()}, g), n)
		m := New("m", dist.Must([]int{4, 2}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, g), n)
		a.EachLocal(func(x int) { a.SetLinear(x, float64(x)) })
		rep.Fill(3)
		for x := -2; x <= 11; x++ {
			v, ok := a.LocalLinear(x)
			if local := x >= 1 && x <= 8 && a.OwnerLinear(x) == n.ID(); ok != local || ok && v != a.GetLinear(x) {
				t.Errorf("node %d: block LocalLinear(%d) = %g, %v; local %v", n.ID(), x, v, ok, local)
			}
			if v, ok := rep.LocalLinear(x); ok != (x >= 1 && x <= 8) || ok && v != 3 {
				t.Errorf("node %d: replicated LocalLinear(%d) = %g, %v", n.ID(), x, v, ok)
			}
			if _, ok := cyc.LocalLinear(x); ok {
				t.Errorf("node %d: cyclic LocalLinear(%d) answered without a window", n.ID(), x)
			}
			if _, ok := m.LocalLinear(x); ok {
				t.Errorf("node %d: rank-2 LocalLinear(%d) answered", n.ID(), x)
			}
		}
	})
}
