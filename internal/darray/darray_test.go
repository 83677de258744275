package darray

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/topology"
)

// onEachNode runs f on every node of a P-node ideal machine.
func onEachNode(p int, f func(n *machine.Node)) {
	sim.MustNew(p, machine.Ideal()).Run(f)
}

func blockDist(n, p int) *dist.Dist {
	return dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, topology.MustGrid(p))
}

func TestNewSizes(t *testing.T) {
	d := blockDist(10, 4) // B=3: sizes 3,3,3,1
	want := []int{3, 3, 3, 1}
	onEachNode(4, func(n *machine.Node) {
		a := New("a", d, n)
		if a.LocalCount() != want[n.ID()] {
			t.Errorf("node %d local count = %d, want %d", n.ID(), a.LocalCount(), want[n.ID()])
		}
		if a.Size() != 10 || a.Rank() != 1 {
			t.Errorf("size/rank wrong")
		}
	})
}

func TestGetSetLocal(t *testing.T) {
	d := blockDist(12, 3)
	onEachNode(3, func(n *machine.Node) {
		a := New("a", d, n)
		for i := 1; i <= 12; i++ {
			if a.IsLocal(i) {
				a.Set(float64(i)*2, i)
			}
		}
		for i := 1; i <= 12; i++ {
			if a.IsLocal(i) {
				if got := a.Get(i); got != float64(i)*2 {
					t.Errorf("node %d: a[%d] = %g", n.ID(), i, got)
				}
				if got := a.Get1(i); got != float64(i)*2 {
					t.Errorf("node %d: Get1(%d) = %g", n.ID(), i, got)
				}
				if got := a.GetLinear(i); got != float64(i)*2 {
					t.Errorf("node %d: GetLinear(%d) = %g", n.ID(), i, got)
				}
			}
		}
	})
}

func TestNonlocalAccessPanics(t *testing.T) {
	d := blockDist(8, 2)
	onEachNode(2, func(n *machine.Node) {
		a := New("a", d, n)
		nonlocal := 8
		if n.ID() == 1 {
			nonlocal = 1
		}
		for _, f := range []func(){
			func() { a.Get(nonlocal) },
			func() { a.Set(1, nonlocal) },
			func() { a.Get1(nonlocal) },
			func() { a.Set1(nonlocal, 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("node %d: expected panic for index %d", n.ID(), nonlocal)
					}
				}()
				f()
			}()
		}
	})
}

func TestOutOfRangePanics(t *testing.T) {
	d := blockDist(8, 2)
	onEachNode(2, func(n *machine.Node) {
		a := New("a", d, n)
		for _, bad := range []int{0, 9, -1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("expected panic for index %d", bad)
					}
				}()
				a.Get1(bad)
			}()
		}
	})
}

func TestReplicatedArray(t *testing.T) {
	g := topology.MustGrid(3)
	d := dist.NewReplicated([]int{5}, g)
	onEachNode(3, func(n *machine.Node) {
		a := New("r", d, n)
		if !a.Replicated() || a.LocalCount() != 5 {
			t.Errorf("node %d: replicated array wrong", n.ID())
		}
		for i := 1; i <= 5; i++ {
			if !a.IsLocal(i) || a.Owner1(i) != -1 || a.OwnerLinear(i) != -1 {
				t.Errorf("replicated ownership wrong at %d", i)
			}
			a.Set1(i, float64(i))
		}
		if a.Get1(3) != 3 {
			t.Error("replicated get/set")
		}
	})
}

func TestRank2BlockCollapsed(t *testing.T) {
	// The paper's adj/coef pattern: array[1..n, 1..4] dist by [block, *].
	g := topology.MustGrid(2)
	d := dist.Must([]int{6, 4}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, g)
	onEachNode(2, func(n *machine.Node) {
		a := New("coef", d, n)
		ia := NewInt("adj", d, n)
		if a.LocalCount() != 12 {
			t.Errorf("local count = %d", a.LocalCount())
		}
		for i := 1; i <= 6; i++ {
			if !a.IsLocal(i, 1) {
				continue
			}
			for j := 1; j <= 4; j++ {
				a.Set2(i, j, float64(i*10+j))
				ia.Set2(i, j, i*100+j)
			}
		}
		for i := 1; i <= 6; i++ {
			if !a.IsLocal(i, 1) {
				continue
			}
			for j := 1; j <= 4; j++ {
				if a.Get2(i, j) != float64(i*10+j) || a.Get(i, j) != float64(i*10+j) {
					t.Errorf("coef[%d,%d] wrong", i, j)
				}
				if ia.Get2(i, j) != i*100+j {
					t.Errorf("adj[%d,%d] wrong", i, j)
				}
			}
		}
		// Rows 1..3 on node 0, rows 4..6 on node 1.
		wantLocal := n.ID() == 0
		if a.IsLocal(2, 3) != wantLocal {
			t.Errorf("node %d: IsLocal(2,3) = %v", n.ID(), a.IsLocal(2, 3))
		}
	})
}

func TestLinearDelinear(t *testing.T) {
	g := topology.MustGrid(2)
	d := dist.Must([]int{3, 4}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, g)
	onEachNode(2, func(n *machine.Node) {
		a := New("a", d, n)
		want := 1
		for i := 1; i <= 3; i++ {
			for j := 1; j <= 4; j++ {
				if g := a.Linear(i, j); g != want {
					t.Errorf("Linear(%d,%d) = %d, want %d", i, j, g, want)
				}
				c := a.Delinear(want)
				if c[0] != i || c[1] != j {
					t.Errorf("Delinear(%d) = %v", want, c)
				}
				want++
			}
		}
	})
}

func TestOwnerLinearMatchesOwner(t *testing.T) {
	g := topology.MustGrid(3)
	d := dist.Must([]int{5, 4}, []dist.DimSpec{dist.CyclicDim(), dist.CollapsedDim()}, g)
	onEachNode(3, func(n *machine.Node) {
		a := New("a", d, n)
		for i := 1; i <= 5; i++ {
			for j := 1; j <= 4; j++ {
				lin := a.Linear(i, j)
				if a.OwnerLinear(lin) != a.Owner(i, j) {
					t.Errorf("OwnerLinear(%d) = %d, Owner(%d,%d) = %d",
						lin, a.OwnerLinear(lin), i, j, a.Owner(i, j))
				}
			}
		}
	})
}

func TestGetSetLinearRank2(t *testing.T) {
	g := topology.MustGrid(2)
	d := dist.Must([]int{4, 3}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, g)
	onEachNode(2, func(n *machine.Node) {
		a := New("a", d, n)
		for gidx := 1; gidx <= 12; gidx++ {
			if a.OwnerLinear(gidx) == n.ID() {
				a.SetLinear(gidx, float64(gidx))
			}
		}
		for gidx := 1; gidx <= 12; gidx++ {
			if a.OwnerLinear(gidx) == n.ID() {
				if a.GetLinear(gidx) != float64(gidx) {
					t.Errorf("GetLinear(%d) = %g", gidx, a.GetLinear(gidx))
				}
			}
		}
	})
}

func TestEachLocalOrderAndCoverage(t *testing.T) {
	g := topology.MustGrid(2)
	d := dist.Must([]int{4, 3}, []dist.DimSpec{dist.CyclicDim(), dist.CollapsedDim()}, g)
	counts := make(chan int, 2)
	onEachNode(2, func(n *machine.Node) {
		a := New("a", d, n)
		prev := 0
		count := 0
		a.EachLocal(func(gl int) {
			if gl <= prev {
				t.Errorf("EachLocal out of order: %d after %d", gl, prev)
			}
			if a.OwnerLinear(gl) != n.ID() {
				t.Errorf("EachLocal visited nonlocal %d", gl)
			}
			prev = gl
			count++
		})
		counts <- count
	})
	if c1, c2 := <-counts, <-counts; c1+c2 != 12 {
		t.Fatalf("EachLocal covered %d elements, want 12", c1+c2)
	}
}

// scanLocal is how EachLocal used to find a node's elements: a scan of
// the whole global index space with an ownership test per element.
func scanLocal(h *header, f func(g int)) {
	rank := len(h.shape)
	coord := make([]int, rank)
	for i := range coord {
		coord[i] = 1
	}
	for {
		if h.repl || h.isLocal(coord) {
			f(linearize(h.shape, coord))
		}
		k := rank - 1
		for k >= 0 {
			coord[k]++
			if coord[k] <= h.shape[k] {
				break
			}
			coord[k] = 1
			k--
		}
		if k < 0 {
			return
		}
	}
}

// TestEachLocalMatchesScan: EachLocal, which walks the product of each
// dimension's local intervals, visits exactly the elements the full
// scan of the global index space finds, in the same order, for every
// kind of dimension (block, cyclic, block_cyclic, map, collapsed) and
// replicated arrays, ranks 1 to 3, real and integer arrays, on 1, 3, 4
// and 8 processors.  EachLocalRun's runs tile the same sequence, each
// contiguous in local storage at the offset it reports.
func TestEachLocalMatchesScan(t *testing.T) {
	const n1, n2, n3 = 13, 6, 5
	mapDim := func(n, p int) dist.DimSpec {
		owners := make([]int, n)
		for i := range owners {
			owners[i] = (i*i + i/3) % p
		}
		return dist.MapDim(owners)
	}
	for _, p := range []int{1, 3, 4, 8} {
		g1 := topology.MustGrid(p)
		pr, pc := 1, p // the 2-D grid: 1×1, 1×3, 2×2, 2×4
		if p%2 == 0 {
			pr, pc = 2, p/2
		}
		g2 := topology.MustGrid(pr, pc)
		cases := []struct {
			name  string
			shape []int
			specs []dist.DimSpec // nil: replicated
			grid  *topology.Grid
		}{
			{"block", []int{n1}, []dist.DimSpec{dist.BlockDim()}, g1},
			{"cyclic", []int{n1}, []dist.DimSpec{dist.CyclicDim()}, g1},
			{"block_cyclic", []int{n1}, []dist.DimSpec{dist.BlockCyclicDim(3)}, g1},
			{"map", []int{n1}, []dist.DimSpec{mapDim(n1, p)}, g1},
			{"replicated", []int{n1}, nil, g1},
			{"[block, *]", []int{n1, n2}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, g1},
			{"[*, cyclic]", []int{n2, n1}, []dist.DimSpec{dist.CollapsedDim(), dist.CyclicDim()}, g1},
			{"[map, *]", []int{n1, n2}, []dist.DimSpec{mapDim(n1, p), dist.CollapsedDim()}, g1},
			{"[block, block]", []int{n1, n2}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g2},
			{"[cyclic, block_cyclic]", []int{n1, n1}, []dist.DimSpec{dist.CyclicDim(), dist.BlockCyclicDim(2)}, g2},
			{"[map, block]", []int{n1, n2}, []dist.DimSpec{mapDim(n1, pr), dist.BlockDim()}, g2},
			{"replicated rank 2", []int{n2, n3}, nil, g2},
			{"[*, block_cyclic, *]", []int{n3, n1, n2}, []dist.DimSpec{dist.CollapsedDim(), dist.BlockCyclicDim(2), dist.CollapsedDim()}, g1},
			{"[block, *, cyclic]", []int{n3, n2, n1}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim(), dist.CyclicDim()}, g2},
			{"replicated rank 3", []int{n3, 2, n2}, nil, g1},
		}
		for _, c := range cases {
			d := dist.NewReplicated(c.shape, c.grid)
			if c.specs != nil {
				d = dist.Must(c.shape, c.specs, c.grid)
			}
			onEachNode(p, func(nd *machine.Node) {
				for _, h := range []*header{&New("a", d, nd).header, &NewInt("k", d, nd).header} {
					var want, got []int
					scanLocal(h, func(g int) { want = append(want, g) })
					h.EachLocal(func(g int) { got = append(got, g) })
					if !slices.Equal(got, want) {
						t.Errorf("P=%d %s node %d: EachLocal visits %v, the scan %v", p, c.name, nd.ID(), got, want)
					}
					next := 0
					h.EachLocalRun(func(g, off, n int) {
						if n < 1 || off != next {
							t.Errorf("P=%d %s node %d: run of %d at offset %d, want one or more at %d", p, c.name, nd.ID(), n, off, next)
						}
						for k := 0; k < n; k++ {
							if off+k >= len(want) || want[off+k] != g+k || h.offsetLinear(g+k) != off+k {
								t.Errorf("P=%d %s node %d: run (%d, %d, %d) is not contiguous at element %d", p, c.name, nd.ID(), g, off, n, k)
								return
							}
						}
						next = off + n
					})
					if next != h.localCount() {
						t.Errorf("P=%d %s node %d: runs cover %d of %d local elements", p, c.name, nd.ID(), next, h.localCount())
					}
				}
			})
		}
	}
}

func TestVersionBump(t *testing.T) {
	d := blockDist(4, 2)
	onEachNode(2, func(n *machine.Node) {
		ia := NewInt("adj", d, n)
		if ia.Version() != 0 {
			t.Error("initial version")
		}
		ia.Bump()
		ia.Bump()
		if ia.Version() != 2 {
			t.Error("bumped version")
		}
	})
}

func TestFill(t *testing.T) {
	d := blockDist(6, 2)
	onEachNode(2, func(n *machine.Node) {
		a := New("a", d, n)
		a.Fill(7)
		a.EachLocal(func(gl int) {
			if a.GetLinear(gl) != 7 {
				t.Errorf("Fill missed %d", gl)
			}
		})
	})
}

func TestRankMismatchPanics(t *testing.T) {
	d := blockDist(6, 2)
	onEachNode(2, func(n *machine.Node) {
		a := New("a", d, n)
		for _, f := range []func(){
			func() { a.Get2(1, 1) },
			func() { a.Get(1, 2) },
			func() { a.Linear(1, 2) },
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
	})
}

// TestQuickOwnershipPartition: every element of random 1-D and 2-D
// distributions has exactly one owning node, and all accessors agree.
func TestQuickOwnershipPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := 1 + r.Intn(5)
		n := 1 + r.Intn(30)
		g := topology.MustGrid(p)
		var d *dist.Dist
		switch r.Intn(3) {
		case 0:
			d = dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
		case 1:
			d = dist.Must([]int{n}, []dist.DimSpec{dist.CyclicDim()}, g)
		default:
			d = dist.Must([]int{n, 3}, []dist.DimSpec{dist.BlockCyclicDim(2), dist.CollapsedDim()}, g)
		}
		ok := true
		ownerCount := make([]int, d.Shape()[0]*func() int {
			if d.Rank() == 2 {
				return 3
			}
			return 1
		}())
		onEachNode(p, func(nd *machine.Node) {
			a := New("a", d, nd)
			a.EachLocal(func(gl int) {
				if a.OwnerLinear(gl) != nd.ID() {
					ok = false
				}
			})
		})
		// Count ownership via OwnerLinear on one handle.
		onEachNode(1, func(nd *machine.Node) {})
		m := sim.MustNew(p, machine.Ideal())
		m.Run(func(nd *machine.Node) {
			if nd.ID() != 0 {
				return
			}
			a := New("a", d, nd)
			for gl := 1; gl <= a.Size(); gl++ {
				o := a.OwnerLinear(gl)
				if o < 0 || o >= p {
					ok = false
					return
				}
				ownerCount[gl-1]++
			}
		})
		for _, c := range ownerCount {
			if c != 1 {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGet1Block(b *testing.B) {
	d := blockDist(1024, 1)
	m := sim.MustNew(1, machine.Ideal())
	m.Run(func(n *machine.Node) {
		a := New("a", d, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = a.Get1(i%1024 + 1)
		}
	})
}

func BenchmarkGet2BlockCollapsed(b *testing.B) {
	g := topology.MustGrid(1)
	d := dist.Must([]int{1024, 4}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, g)
	m := sim.MustNew(1, machine.Ideal())
	m.Run(func(n *machine.Node) {
		a := New("a", d, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = a.Get2(i%1024+1, i%4+1)
		}
	})
}
