package forall

import (
	"fmt"
	"math/rand"
	"testing"

	"kali/internal/analysis"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/machine/wallclock"
	"kali/internal/topology"
)

// logCase is one array of the write-log property test.
type logCase struct {
	shape []int
	specs []dist.DimSpec
	grid  []int
}

func (c logCase) String() string { return fmt.Sprintf("%v %v on %v", c.shape, c.specs, c.grid) }

// nodes is the size of the case's grid.
func (c logCase) nodes() int {
	p := 1
	for _, e := range c.grid {
		p *= e
	}
	return p
}

// drawLogCase draws an array of 1–40 elements per dimension: rank 1
// block, cyclic or block_cyclic(1…4) over 1–4 nodes; rank 2 one such
// dimension and one collapsed over 1–4 nodes; or rank 2 [block,block]
// or [cyclic,block] on a 2×2 grid, the latter with no locality window
// wherever a node owns more than one row.
func drawLogCase(r *rand.Rand) logCase {
	n := func() int { return 1 + r.Intn(40) }
	dim := func() dist.DimSpec {
		switch r.Intn(3) {
		case 0:
			return dist.BlockDim()
		case 1:
			return dist.CyclicDim()
		}
		return dist.BlockCyclicDim(1 + r.Intn(4))
	}
	p := 1 + r.Intn(4)
	switch r.Intn(4) {
	case 0, 1:
		return logCase{[]int{n()}, []dist.DimSpec{dim()}, []int{p}}
	case 2:
		specs := []dist.DimSpec{dim(), dist.CollapsedDim()}
		if r.Intn(2) == 0 {
			specs[0], specs[1] = specs[1], specs[0]
		}
		return logCase{[]int{n(), n()}, specs, []int{p}}
	}
	first := dist.BlockDim()
	if r.Intn(2) == 0 {
		first = dist.CyclicDim()
	}
	return logCase{[]int{n(), n()}, []dist.DimSpec{first, dist.BlockDim()}, []int{2, 2}}
}

// logValue is the value the property test stores into element g.
func logValue(seed, g int) float64 { return float64(seed) + float64(g)/8 }

// TestWriteLogMatchesSet: the write log commits every store where Set
// and Set2 would have made it, on the simulator and the wall backend,
// whether Write and Write2 resolve the element through the node's
// locality window or past it; and a loop that reads a[i+1] (declared)
// while writing a[i] sees only pre-loop values, copy-in/copy-out.
func TestWriteLogMatchesSet(t *testing.T) {
	r := rand.New(rand.NewSource(4141))
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		c := drawLogCase(r)
		for _, backend := range []string{"sim", "wall"} {
			p := c.nodes()
			m := sim.MustNew(p, machine.Ideal())
			if backend == "wall" {
				m = wallclock.MustNew(p, machine.Ideal())
			}
			m.Run(func(nd *machine.Node) {
				if err := checkWriteLog(nd, c, trial); err != "" {
					t.Errorf("%s, trial %d, %v, node %d: %s", backend, trial, c, nd.ID(), err)
				}
			})
		}
	}
}

// checkWriteLog runs the property test's loops for case c on node nd
// and returns what went wrong, if anything.
func checkWriteLog(nd *machine.Node, c logCase, seed int) string {
	p := nd.P()
	grid := topology.MustGrid(c.grid...)
	d := dist.Must(c.shape, c.specs, grid)
	a, want := darray.New("a", d, nd), darray.New("want", d, nd)
	// One iteration per node: own's single element on each.
	own := darray.New("own", dist.Must([]int{p}, []dist.DimSpec{dist.BlockDim()}, topology.MustGrid(p)), nd)
	eng := NewEngine(nd)
	eng.Run(&Loop{
		Name: "fill", Lo: 1, Hi: p, On: own, OnF: analysis.Identity,
		Body: func(_ int, e *Env) {
			a.EachLocal(func(g int) {
				v := logValue(seed, g)
				if a.Rank() == 1 {
					e.Write(a, g, v)
					return
				}
				if x := a.Delinear(g); g%2 == 0 {
					e.Write2(a, x[0], x[1], v)
				} else {
					e.WriteAt(a, v, x...)
				}
			})
		},
	})
	want.EachLocal(func(g int) {
		x := want.Delinear(g)
		if want.Rank() == 1 {
			want.Set(logValue(seed, g), x...)
		} else {
			want.Set2(x[0], x[1], logValue(seed, g))
		}
	})
	if err := sameLocal(a, want); err != "" {
		return "after the fill loop: " + err
	}

	// The shift: a[i] = a[i+1] (rank 1), a[i,j] = a[i,j+1] (rank 2 on
	// the 2×2 grid, the only rank-2 layout a Loop2 runs on).
	switch {
	case a.Rank() == 1 && c.shape[0] > 1:
		n := c.shape[0]
		eng.Run(&Loop{
			Name: "shift", Lo: 1, Hi: n - 1, On: a, OnF: analysis.Identity,
			Reads: []ReadSpec{{Array: a, Affine: &analysis.Affine{A: 1, C: 1}}},
			Body:  func(i int, e *Env) { e.Write(a, i, e.Read(a, i+1)) },
		})
		want.EachLocal(func(g int) {
			if g < n {
				want.Set1(g, logValue(seed, g+1))
			}
		})
	case len(c.grid) == 2 && c.shape[1] > 1:
		n0, n1 := c.shape[0], c.shape[1]
		eng.Run2(&Loop2{
			Name: "shift2", LoI: 1, HiI: n0, LoJ: 1, HiJ: n1 - 1, On: a,
			Reads: []ReadSpec{{Array: a, Affine2: analysis.Shift2(0, 1)}},
			Body:  func(i, j int, e *Env) { e.Write2(a, i, j, e.Read2(a, i, j+1)) },
		})
		want.EachLocal(func(g int) {
			if x := want.Delinear(g); x[1] < n1 {
				want.Set2(x[0], x[1], logValue(seed, g+1))
			}
		})
	default:
		return ""
	}
	if err := sameLocal(a, want); err != "" {
		return "after the shift: " + err
	}
	return ""
}

// sameLocal compares two arrays of one distribution element by element
// in local storage.
func sameLocal(a, want *darray.Array) string {
	got, exp := a.LocalValues(), want.LocalValues()
	for k := range exp {
		if got[k] != exp[k] {
			return fmt.Sprintf("local element %d is %v, want %v", k, got[k], exp[k])
		}
	}
	return ""
}

// storePanic runs one loop iteration, on node 0 of a p-node simulator,
// whose body makes store into array A of distribution d, and returns
// the panic's text.
func storePanic(p int, d *dist.Dist, store func(e *Env, a *darray.Array)) string {
	return panicText(func() {
		sim.MustNew(p, machine.Ideal()).Run(func(nd *machine.Node) {
			own := darray.New("own", dist.Must([]int{p}, []dist.DimSpec{dist.BlockDim()}, topology.MustGrid(p)), nd)
			a := darray.New("A", d, nd)
			NewEngine(nd).Run(&Loop{
				Name: "w", Lo: 1, Hi: 1, On: own, OnF: analysis.Identity,
				Body: func(_ int, e *Env) { store(e, a) },
			})
		})
	})
}

// TestWritePanicsBothSidesOfTheWindow pins the text of every panic an
// executor-mode Write or Write2 raises, on a distribution with a
// locality window and on one without: Write and Write2 try the window
// first and run the checks only past it, and must still fail exactly
// as the checks alone did.
func TestWritePanicsBothSidesOfTheWindow(t *testing.T) {
	g1, g2 := topology.MustGrid(2), topology.MustGrid(2, 2)
	must := func(shape []int, g *topology.Grid, specs ...dist.DimSpec) *dist.Dist {
		return dist.Must(shape, specs, g)
	}
	block, cyclic, coll := dist.BlockDim(), dist.CyclicDim(), dist.CollapsedDim()
	repl := dist.NewReplicated([]int{6, 6}, g1)
	cases := []struct {
		name  string
		p     int
		d     *dist.Dist
		store func(e *Env, a *darray.Array)
		want  string
	}{
		// A replicated array is in every node's window, so the window
		// accessor must refuse it for the replicated panic to stand.
		{"Write2 replicated", 2, repl,
			func(e *Env, a *darray.Array) { e.Write2(a, 2, 3, 1) },
			`machine: node 0 panicked: forall w: write to replicated array "A"`},
		{"Write2 replicated, outside node 0's rows", 2, repl,
			func(e *Env, a *darray.Array) { e.Write2(a, 6, 6, 1) },
			`machine: node 0 panicked: forall w: write to replicated array "A"`},

		{"Write2 non-owner, [block,block]", 4, must([]int{6, 6}, g2, block, block),
			func(e *Env, a *darray.Array) { e.Write2(a, 2, 5, 1) },
			`machine: node 0 panicked: forall w: non-owner write to A[2,5] on node 0`},
		{"Write2 non-owner, [cyclic,block]", 4, must([]int{6, 6}, g2, cyclic, block),
			func(e *Env, a *darray.Array) { e.Write2(a, 2, 1, 1) },
			`machine: node 0 panicked: forall w: non-owner write to A[2,1] on node 0`},
		{"Write2 non-owner, [block,*]", 2, must([]int{6, 6}, g1, block, coll),
			func(e *Env, a *darray.Array) { e.Write2(a, 4, 1, 1) },
			`machine: node 0 panicked: forall w: non-owner write to A[4,1] on node 0`},
		{"Write2 non-owner, [cyclic,*]", 2, must([]int{6, 6}, g1, cyclic, coll),
			func(e *Env, a *darray.Array) { e.Write2(a, 2, 1, 1) },
			`machine: node 0 panicked: forall w: non-owner write to A[2,1] on node 0`},

		{"Write 0, block", 2, must([]int{8}, g1, block),
			func(e *Env, a *darray.Array) { e.Write(a, 0, 1) },
			`machine: node 0 panicked: darray: linear index 0 out of [1..8] of A`},
		{"Write N+1, block", 2, must([]int{8}, g1, block),
			func(e *Env, a *darray.Array) { e.Write(a, 9, 1) },
			`machine: node 0 panicked: darray: linear index 9 out of [1..8] of A`},
		{"Write 0, cyclic", 2, must([]int{8}, g1, cyclic),
			func(e *Env, a *darray.Array) { e.Write(a, 0, 1) },
			`machine: node 0 panicked: darray: linear index 0 out of [1..8] of A`},
		{"Write N+1, cyclic", 2, must([]int{8}, g1, cyclic),
			func(e *Env, a *darray.Array) { e.Write(a, 9, 1) },
			`machine: node 0 panicked: darray: linear index 9 out of [1..8] of A`},
		{"Write N+1, [block,*]", 2, must([]int{6, 6}, g1, block, coll),
			func(e *Env, a *darray.Array) { e.Write(a, 37, 1) },
			`machine: node 0 panicked: darray: linear index 37 out of [1..36] of A`},

		{"Write2 row 0, [block,block]", 4, must([]int{6, 6}, g2, block, block),
			func(e *Env, a *darray.Array) { e.Write2(a, 0, 1, 1) },
			`machine: node 0 panicked: dist: index 0 out of [1..6] of block(6/2)`},
		{"Write2 row N+1, [block,block]", 4, must([]int{6, 6}, g2, block, block),
			func(e *Env, a *darray.Array) { e.Write2(a, 7, 1, 1) },
			`machine: node 0 panicked: dist: index 7 out of [1..6] of block(6/2)`},
		{"Write2 column 0, [block,block]", 4, must([]int{6, 6}, g2, block, block),
			func(e *Env, a *darray.Array) { e.Write2(a, 1, 0, 1) },
			`machine: node 0 panicked: dist: index 0 out of [1..6] of block(6/2)`},
		{"Write2 column N+1, [block,block]", 4, must([]int{6, 6}, g2, block, block),
			func(e *Env, a *darray.Array) { e.Write2(a, 1, 7, 1) },
			`machine: node 0 panicked: dist: index 7 out of [1..6] of block(6/2)`},
		{"Write2 row 0, [cyclic,block]", 4, must([]int{6, 6}, g2, cyclic, block),
			func(e *Env, a *darray.Array) { e.Write2(a, 0, 1, 1) },
			`machine: node 0 panicked: dist: index 0 out of [1..6] of cyclic(6/2)`},
		{"Write2 row N+1, [cyclic,block]", 4, must([]int{6, 6}, g2, cyclic, block),
			func(e *Env, a *darray.Array) { e.Write2(a, 7, 1, 1) },
			`machine: node 0 panicked: dist: index 7 out of [1..6] of cyclic(6/2)`},
		{"Write2 column 0, [block,*]", 2, must([]int{6, 6}, g1, block, coll),
			func(e *Env, a *darray.Array) { e.Write2(a, 1, 0, 1) },
			`machine: node 0 panicked: darray: coordinate 0 out of [1..6] in dim 1 of A`},
		{"Write2 column N+1, [cyclic,*]", 2, must([]int{6, 6}, g1, cyclic, coll),
			func(e *Env, a *darray.Array) { e.Write2(a, 1, 7, 1) },
			`machine: node 0 panicked: darray: coordinate 7 out of [1..6] in dim 1 of A`},
	}
	for _, c := range cases {
		if got := storePanic(c.p, c.d, c.store); got != c.want {
			t.Errorf("%s: panic %q, want %q", c.name, got, c.want)
		}
	}
}

// BenchmarkEnvHalo is the Env accessor layer on its own: one sweep per
// op of the 1-D Jacobi loop b[i] = (a[i-1]+a[i+1])/2 over 256 elements
// on two wall-clock threads, through Body (no Segment), schedule
// cached, so each op is the executor's Read/Write/commit path plus one
// boundary exchange.
func BenchmarkEnvHalo(b *testing.B) {
	const n, p = 256, 2
	g := topology.MustGrid(p)
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	b.ReportAllocs()
	wallclock.MustNew(p, machine.NCUBE7()).Run(func(nd *machine.Node) {
		a, bb := darray.New("a", d, nd), darray.New("b", d, nd)
		a.EachLocal(func(i int) { a.Set1(i, float64(i)) })
		loop := &Loop{
			Name: "halo", Lo: 2, Hi: n - 1, On: bb, OnF: analysis.Identity,
			Reads: []ReadSpec{
				{Array: a, Affine: &analysis.Affine{A: 1, C: -1}},
				{Array: a, Affine: &analysis.Affine{A: 1, C: 1}},
			},
			Body: func(i int, e *Env) {
				e.Write(bb, i, 0.5*(e.Read(a, i-1)+e.Read(a, i+1)))
			},
		}
		eng := NewEngine(nd)
		eng.Run(loop)
		// Schedule built and pools warm on both nodes: node 0 resets
		// the timer (the benchmark goroutine waits in Run meanwhile).
		nd.Barrier()
		if nd.ID() == 0 {
			b.ResetTimer()
		}
		nd.Barrier()
		for i := 0; i < b.N; i++ {
			eng.Run(loop)
		}
	})
}
