package forall

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"kali/internal/analysis"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/topology"
)

// Tests of the boundary's runs: the nonlocal iterations cut into runs of
// consecutive columns and offered to a loop's Segment body with the Env
// in the nonlocal mode, the span accessors that resolve a run's reads
// there, and direct stores from the boundary.

// shiftRun is what one run of shiftLoops leaves behind.
type shiftRun struct {
	c                  []float64
	stats              machine.Stats
	clock              float64
	boundary, bySegs   int
	interior, interSeg int
}

// shiftLoops runs forall i in 1..n-2 on c[i].loc do c[i] := b[i+2] +
// h[i+2] end twice on p nodes, b, c and h distributed by spec.  With
// segment set the loop carries a Segment body, written against the span
// accessors the way the VM's kernel is, for both of the executor's
// loops; store selects the array it stores: c, or b — a declared read,
// which must never be stored directly.
func shiftLoops(t *testing.T, n, p int, spec dist.DimSpec, segment, reference bool, store string) shiftRun {
	t.Helper()
	d := dist.Must([]int{n}, []dist.DimSpec{spec}, topology.MustGrid(p))
	mach := sim.MustNew(p, machine.NCUBE7())
	out := shiftRun{c: make([]float64, n)}
	var mu sync.Mutex
	mach.Run(func(nd *machine.Node) {
		b, c, h := darray.New("b", d, nd), darray.New("c", d, nd), darray.New("h", d, nd)
		b.EachLocal(func(g int) { b.Set1(g, float64(g)*1.5) })
		h.EachLocal(func(g int) { h.Set1(g, float64(g)*0.25) })
		dst := c
		if store == "b" {
			dst = b
		}
		loop := &Loop{
			Name: "shift", Lo: 1, Hi: n - 2, On: c, OnF: analysis.Identity,
			Reads: []ReadSpec{
				{Array: b, Affine: &analysis.Affine{A: 1, C: 2}},
				{Array: h, Affine: &analysis.Affine{A: 1, C: 2}},
			},
			Body: func(i int, e *Env) {
				x := e.Read(b, i+2) + e.Read(h, i+2)
				e.Flops(1)
				e.Write(dst, i, x)
			},
		}
		if segment {
			cell, u := nd.ClockCell()
			charge := func(t float64, checks int, search float64) float64 {
				if checks > 0 {
					t += u.LocTest
				}
				if checks > 1 {
					t += search
				}
				return t + u.MemRef
			}
			loop.Segment = func(lo, hi int, e *Env) bool {
				x, cx, sx := e.ReadSpan1(b, lo+2, hi+2)
				y, cy, sy := e.ReadSpan1(h, lo+2, hi+2)
				w := e.WriteSpan1(dst, lo, hi)
				if store == "b" && w != nil {
					t.Errorf("node %d: WriteSpan1 of the declared read b granted [%d..%d] (nonlocal: %v)", nd.ID(), lo, hi, e.Nonlocal())
				}
				if x == nil || y == nil || w == nil {
					return false
				}
				clk := *cell
				for k := range w {
					clk += u.LoopIter
					clk = charge(clk, cx, sx)
					clk = charge(clk, cy, sy)
					clk += u.Flop
					clk += u.MemRef
					w[k] = x[k] + y[k]
				}
				*cell = clk
				nd.AddFlopCount(int64(len(w)))
				return true
			}
		}
		eng := NewEngine(nd)
		eng.Reference = reference
		eng.Run(loop)
		eng.Run(loop)
		mu.Lock()
		defer mu.Unlock()
		dst.EachLocal(func(g int) { out.c[g-1] = dst.Get1(g) })
		out.boundary += eng.BoundaryIters()
		out.bySegs += eng.BoundarySegmentIters()
		out.interior += eng.InteriorIters()
		out.interSeg += eng.SegmentIters()
	})
	out.stats = mach.TotalStats()
	out.clock = mach.MaxClock()
	return out
}

// TestBoundaryRunsMatchPerElement: a loop whose Segment body takes the
// boundary's runs as well as the interior's — reading through ReadSpan1
// and storing through WriteSpan1 — leaves the very array, statistics
// and clock bits the same production executor leaves running every
// iteration through Body, and the reference executor's array and
// traffic, for block, cyclic and block_cyclic distributions on one to
// four nodes.  Cyclic and block_cyclic runs that come from two peers,
// or mix local and remote elements, are declined; on two or
// more block nodes some boundary runs must really have been taken.
// Storing into b, which the loop also reads, must never be direct: the
// shifts see b as it was before each loop, as copy-in/copy-out says.
func TestBoundaryRunsMatchPerElement(t *testing.T) {
	const n = 23
	specs := map[string]dist.DimSpec{
		"block": dist.BlockDim(), "cyclic": dist.CyclicDim(), "block_cyclic(3)": dist.BlockCyclicDim(3),
	}
	for name, spec := range specs {
		for p := 1; p <= 4; p++ {
			for _, store := range []string{"c", "b"} {
				tag := fmt.Sprintf("%s p=%d store %s", name, p, store)
				seg := shiftLoops(t, n, p, spec, true, false, store)
				body := shiftLoops(t, n, p, spec, false, false, store)
				ref := shiftLoops(t, n, p, spec, false, true, store)
				for i := range body.c {
					if math.Float64bits(seg.c[i]) != math.Float64bits(body.c[i]) || seg.c[i] != ref.c[i] {
						t.Fatalf("%s: %s[%d] = %v by segments, %v through Body, %v on the reference executor",
							tag, store, i+1, seg.c[i], body.c[i], ref.c[i])
					}
				}
				if seg.stats != body.stats || math.Float64bits(seg.clock) != math.Float64bits(body.clock) {
					t.Errorf("%s: stats %+v clock %v by segments, %+v %v through Body", tag, seg.stats, seg.clock, body.stats, body.clock)
				}
				if rs := ref.stats; seg.stats.BytesSent != rs.BytesSent || seg.stats.FlopCount != rs.FlopCount {
					t.Errorf("%s: stats %+v by segments, reference %+v", tag, seg.stats, rs)
				}
				if seg.boundary != ref.boundary || body.bySegs != 0 || ref.bySegs != 0 || seg.bySegs > seg.boundary {
					t.Errorf("%s: boundary iterations %d (%d by segments), through Body %d (%d), reference %d (%d)",
						tag, seg.boundary, seg.bySegs, body.boundary, body.bySegs, ref.boundary, ref.bySegs)
				}
				if name == "block" && store == "c" && p > 1 && (seg.boundary == 0 || seg.bySegs == 0) {
					t.Errorf("%s: %d of %d boundary iterations by segments, want some of some", tag, seg.bySegs, seg.boundary)
				}
			}
		}
	}
}

// TestReadSpanResolvesBoundaryReads: what ReadSpan1 makes of a run.  In
// the interior, the local storage with no checks; in the boundary, the
// local storage behind a locality test when the whole run is in the
// node's window, a run of the receive buffer behind a locality test and
// a search that costs what ChargeSearch does when one record of the in
// set holds the whole run, and nil for a run that is partly local or
// comes from two peers.  Every view holds what Read returns.
func TestReadSpanResolvesBoundaryReads(t *testing.T) {
	cases := []struct {
		name string
		n, p int
		spec dist.DimSpec
		// offsets of the reads b[i+off], and the kinds of view the
		// boundary must have shown: "local", "buffer", "nil".
		offs []int
		want []string
	}{
		// Node 0 owns 1..8: its boundary run 6..8 reads b[6..8] locally,
		// b[7..9] across the window's edge, b[9..11] from node 1.
		{"block", 16, 2, dist.BlockDim(), []int{0, 1, 3}, []string{"local", "buffer", "nil"}},
		// Node 0 owns 1-2, 7-8, ...: b[i+3] of the run 1..2 is b[4] from
		// node 1 and b[5] from node 2, b[i+2] is b[3..4], one record.
		{"block_cyclic(2)", 24, 3, dist.BlockCyclicDim(2), []int{2, 3}, []string{"buffer", "nil"}},
	}
	for _, c := range cases {
		d := dist.Must([]int{c.n}, []dist.DimSpec{c.spec}, topology.MustGrid(c.p))
		var mu sync.Mutex
		seen := map[string]bool{}
		sim.MustNew(c.p, machine.NCUBE7()).Run(func(nd *machine.Node) {
			b, a := darray.New("b", d, nd), darray.New("a", d, nd)
			b.EachLocal(func(g int) { b.Set1(g, float64(g)*1.5) })
			var reads []ReadSpec
			for _, off := range c.offs {
				reads = append(reads, ReadSpec{Array: b, Affine: &analysis.Affine{A: 1, C: off}})
			}
			loop := &Loop{
				Name: "spans", Lo: 1, Hi: c.n - 3, On: a, OnF: analysis.Identity, Reads: reads,
				Body: func(i int, e *Env) {
					for _, off := range c.offs {
						e.Read(b, i+off)
					}
				},
				Segment: func(lo, hi int, e *Env) bool {
					for _, off := range c.offs {
						v, checks, search := e.ReadSpan1(b, lo+off, hi+off)
						kind := "nil"
						switch {
						case v == nil:
						case !e.Nonlocal() && checks == 0:
							kind = "interior"
						case checks == 1:
							kind = "local"
						case checks == 2 && search == nd.SearchCost(e.sched.slots[0].in.NumRanges()):
							kind = "buffer"
						default:
							t.Errorf("%s node %d: b[%d..%d] resolved with %d checks costing %v (nonlocal: %v)",
								c.name, nd.ID(), lo+off, hi+off, checks, search, e.Nonlocal())
						}
						if v != nil && len(v) != hi-lo+1 {
							t.Errorf("%s: view of b[%d..%d] has %d elements", c.name, lo+off, hi+off, len(v))
						}
						for k, x := range v {
							if g := lo + off + k; x != float64(g)*1.5 {
								t.Errorf("%s node %d: view of b[%d..%d] holds %v for b[%d], want %v", c.name, nd.ID(), lo+off, hi+off, x, g, float64(g)*1.5)
							}
						}
						if e.Nonlocal() {
							mu.Lock()
							seen[kind] = true
							mu.Unlock()
						} else if kind != "interior" {
							t.Errorf("%s node %d: interior run b[%d..%d] resolved as %s", c.name, nd.ID(), lo+off, hi+off, kind)
						}
					}
					return false
				},
			}
			NewEngine(nd).Run(loop)
		})
		for _, k := range c.want {
			if !seen[k] {
				t.Errorf("%s: no boundary read resolved as %s (saw %v)", c.name, k, seen)
			}
		}
	}
}

// TestBoundaryRunsAreMaximal: the boundary is offered as maximal runs of
// consecutive iterations — consecutive columns of one row at rank 2 —
// covering the nonlocal list in order, each exactly once; a loop with
// an enumerated schedule is offered none of them, and takes them per
// element through Body.
func TestBoundaryRunsAreMaximal(t *testing.T) {
	const n = 12
	g2 := topology.MustGrid(2, 2)
	d2 := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g2)
	d1 := dist.Must([]int{n}, []dist.DimSpec{dist.BlockCyclicDim(2)}, topology.MustGrid(4))
	for _, enumerate := range []bool{false, true} {
		sim.MustNew(4, machine.Ideal()).Run(func(nd *machine.Node) {
			// Rank 2: a five-point stencil with a shifted on clause.
			u, old := darray.New("u", d2, nd), darray.New("old", d2, nd)
			shift := func(di, dj int) *analysis.Affine2 {
				return &analysis.Affine2{I: analysis.Affine{A: 1, C: di}, J: analysis.Affine{A: 1, C: dj}}
			}
			var runs, perElement []iteration
			l2 := &Loop2{
				Name: "stencil", LoI: 1, HiI: n - 2, LoJ: 1, HiJ: n - 2, On: u,
				OnF2: analysis.Affine2{I: analysis.Affine{A: 1, C: 1}, J: analysis.Affine{A: 1, C: 1}},
				Reads: []ReadSpec{
					{Array: old, Affine2: shift(0, 1)}, {Array: old, Affine2: shift(1, 0)},
					{Array: old, Affine2: shift(1, 2)}, {Array: old, Affine2: shift(2, 1)},
				},
				Body: func(i, j int, e *Env) {
					if e.Nonlocal() {
						perElement = append(perElement, iteration{i, j})
					}
					e.Read2(old, i, j+1)
					e.Read2(old, i+1, j)
					e.Read2(old, i+1, j+2)
					e.Read2(old, i+2, j+1)
				},
				Segment: func(i, jLo, jHi int, e *Env) bool {
					if e.Nonlocal() {
						runs = append(runs, iteration{i, jLo}, iteration{i, jHi})
					}
					return false
				},
				Enumerate: enumerate,
			}
			eng := NewEngine(nd)
			eng.Run2(l2)
			s := eng.Schedule2("stencil")
			checkRuns(t, fmt.Sprintf("rank 2 node %d enumerate=%v", nd.ID(), enumerate), 2, s.execNonlocal, runs, perElement, enumerate)
			if eng.BoundaryIters() != len(s.execNonlocal) || eng.BoundarySegmentIters() != 0 {
				t.Errorf("node %d: %d boundary iterations, %d by segments; want %d and none (all declined)",
					nd.ID(), eng.BoundaryIters(), eng.BoundarySegmentIters(), len(s.execNonlocal))
			}

			// Rank 2, inspected: the diagonal of each tile reads across to
			// the next tile, so consecutive boundary iterations sit in
			// consecutive columns of consecutive rows — separate runs.
			runs, perElement = nil, nil
			l2.Name, l2.LoI, l2.HiI, l2.LoJ, l2.HiJ, l2.OnF2 = "diagonal", 1, n, 1, n, analysis.Identity2
			l2.Reads = []ReadSpec{{Array: old}}
			l2.Body = func(i, j int, e *Env) {
				if e.Nonlocal() {
					perElement = append(perElement, iteration{i, j})
				}
				if (i-1)%(n/2) == (j-1)%(n/2) {
					e.Read2(old, i, (j+n/2-1)%n+1)
				} else {
					e.Read2(old, i, j)
				}
			}
			eng.Run2(l2)
			checkRuns(t, fmt.Sprintf("diagonal node %d enumerate=%v", nd.ID(), enumerate), 2, eng.Schedule2("diagonal").execNonlocal, runs, perElement, enumerate)

			// Rank 1: a shift over block_cyclic(2), whose boundary is runs of
			// two separated by gaps.
			a, b := darray.New("a", d1, nd), darray.New("b", d1, nd)
			runs, perElement = nil, nil
			l1 := &Loop{
				Name: "shift", Lo: 1, Hi: n - 2, On: a, OnF: analysis.Identity,
				Reads: []ReadSpec{{Array: b, Affine: &analysis.Affine{A: 1, C: 2}}},
				Body: func(i int, e *Env) {
					if e.Nonlocal() {
						perElement = append(perElement, iteration{i: i})
					}
					e.Read(b, i+2)
				},
				Segment: func(lo, hi int, e *Env) bool {
					if e.Nonlocal() {
						runs = append(runs, iteration{i: lo}, iteration{i: hi})
					}
					return false
				},
				Enumerate: enumerate,
			}
			eng.Run(l1)
			checkRuns(t, fmt.Sprintf("rank 1 node %d enumerate=%v", nd.ID(), enumerate), 1, eng.Schedule("shift").execNonlocal, runs, perElement, enumerate)
		})
	}
}

// checkRuns holds the boundary runs a Segment body was offered (first
// and last iteration of each) and the iterations Body then ran against
// the nonlocal list its, in order.
func checkRuns(t *testing.T, tag string, rank int, its, runs, perElement []iteration, enumerate bool) {
	t.Helper()
	if !slices.Equal(perElement, its) {
		t.Errorf("%s: Body ran the boundary %v, want %v", tag, perElement, its)
	}
	if enumerate {
		if len(runs) != 0 {
			t.Errorf("%s: an enumerated loop was offered boundary runs %v", tag, runs)
		}
		return
	}
	k := 0
	for r := 0; r < len(runs); r += 2 {
		row, lo := runs[r].rowCol(rank)
		_, hi := runs[r+1].rowCol(rank)
		if k > 0 {
			if pr, px := its[k-1].rowCol(rank); pr == row && px+1 == lo {
				t.Errorf("%s: run %v..%v continues the one before it", tag, runs[r], runs[r+1])
			}
		}
		for x := lo; x <= hi; x, k = x+1, k+1 {
			if k >= len(its) {
				t.Fatalf("%s: run %v..%v goes past the nonlocal list %v", tag, runs[r], runs[r+1], its)
			}
			if kr, kx := its[k].rowCol(rank); kr != row || kx != x {
				t.Fatalf("%s: run %v..%v does not follow the nonlocal list %v at %d", tag, runs[r], runs[r+1], its, k)
			}
		}
	}
	if k != len(its) || len(its) == 0 {
		t.Errorf("%s: runs cover %d of %d boundary iterations", tag, k, len(its))
	}
}
