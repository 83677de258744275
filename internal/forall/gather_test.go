package forall

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"kali/internal/alloctest"
	"kali/internal/analysis"
	"kali/internal/comm"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/machine/wallclock"
	"kali/internal/topology"
)

// Tests of Env.Gather, the load side of a Segment body whose reads have
// data for subscripts: a hand-written kernel over the handle, with the
// clock in the node's ClockCell, must be the per-element Body in every
// observable — values, Stats, clocks to the bit — in both executor
// loops.

// gatherLoop is the indirect loop out[i] := src[idx[i]] + src[idx[i]+1]
// over 1..n; with segments it carries an Inspect body and a Segment
// body over Env.Gather.
func gatherLoop(nd *machine.Node, n int, out, src *darray.Array, idx *darray.IntArray, segments bool) *Loop {
	l := &Loop{
		Name: "gather", Lo: 1, Hi: n, On: out, OnF: analysis.Identity,
		Reads:     []ReadSpec{{Array: src}},
		DependsOn: []Dep{idx},
		Body: func(i int, e *Env) {
			g := e.ReadInt(idx, i)
			x := e.Read(src, g) + e.Read(src, g%n+1)
			e.Flops(2)
			e.Write(out, i, x)
		},
	}
	if !segments {
		return l
	}
	l.Inspect = func(lo, hi int, e *Env) bool {
		from := idx.Span1(lo, hi)
		if from == nil {
			return false
		}
		for _, g := range from {
			e.BeginIter()
			e.Read(src, g)
			e.Read(src, g%n+1)
		}
		return true
	}
	cell, u := nd.ClockCell()
	l.Segment = func(lo, hi int, e *Env) bool {
		from, dst := idx.Span1(lo, hi), e.WriteSpan1(out, lo, hi)
		if from == nil || dst == nil {
			return false
		}
		h, ok := e.Gather(src)
		if !ok {
			return false
		}
		read := func(t float64, g int) (float64, float64) {
			v, remote := h.At(g)
			if h.Tested {
				t += u.LocTest
				if remote {
					t += h.Search
				}
			}
			return v, t + u.MemRef
		}
		t := *cell
		for k, g := range from {
			t += u.LoopIter
			t += u.MemRef
			a, t1 := read(t, g)
			b, t2 := read(t1, g%n+1)
			t = t2 + 2*u.Flop
			t += u.MemRef
			dst[k] = a + b
		}
		*cell = t
		nd.AddFlopCount(int64(2 * len(dst)))
		return true
	}
	return l
}

// gatherRun is what sweeps of the gather loop leave behind.
type gatherRun struct {
	out                                    []float64
	plans                                  []uint64 // each node's Schedule.Digest
	stats                                  machine.Stats
	clock                                  uint64
	interior, seg, boundary, bseg, inspect int
}

func runGather(t *testing.T, mach *machine.Machine, spec dist.DimSpec, n, sweeps int, segments bool) gatherRun {
	t.Helper()
	d := dist.Must([]int{n}, []dist.DimSpec{spec}, topology.MustGrid(mach.P()))
	r := gatherRun{out: make([]float64, n), plans: make([]uint64, mach.P())}
	var mu sync.Mutex
	mach.Run(func(nd *machine.Node) {
		src, out := darray.New("src", d, nd), darray.New("out", d, nd)
		idx := darray.NewInt("idx", d, nd)
		src.EachLocal(func(g int) { src.Set1(g, 1+float64(g)*0.37) })
		// Mostly a neighbour (local but at block edges), every fifth a
		// reference across the array.
		idx.EachLocal(func(g int) {
			if g%5 == 0 {
				idx.Set1(g, (g*7)%n+1)
			} else {
				idx.Set1(g, g%n+1)
			}
		})
		eng := NewEngine(nd)
		l := gatherLoop(nd, n, out, src, idx, segments)
		for s := 0; s < sweeps; s++ {
			eng.Run(l)
		}
		mu.Lock()
		defer mu.Unlock()
		out.EachLocal(func(g int) { r.out[g-1] = out.Get1(g) })
		r.interior += eng.InteriorIters()
		r.seg += eng.SegmentIters()
		r.boundary += eng.BoundaryIters()
		r.bseg += eng.BoundarySegmentIters()
		r.inspect += eng.InspectSegmentIters()
		r.plans[nd.ID()] = eng.Schedule("gather").Digest()
	})
	r.stats = mach.TotalStats()
	r.clock = math.Float64bits(mach.MaxClock())
	return r
}

// TestGatherSegmentsMatchBody: the kernels (Inspect, and Segment over
// Env.Gather) and the same loop without them agree on values, Stats,
// every node's plan and (on the simulator) every clock bit, on both
// backends, at P 1, 3, 4 and 8 and under every rank-1 distribution
// kind.  Under block each iteration is recorded and each interior and
// boundary iteration runs by segments; the others have no locality
// window, so the kernels decline every run and Body runs them all.
func TestGatherSegmentsMatchBody(t *testing.T) {
	const n, sweeps = 61, 3
	specs := map[string]dist.DimSpec{
		"block": dist.BlockDim(), "cyclic": dist.CyclicDim(), "block_cyclic": dist.BlockCyclicDim(3),
	}
	for _, p := range []int{1, 3, 4, 8} {
		owners := make([]int, n)
		for i := range owners {
			owners[i] = (i * i) % p
		}
		specs["map"] = dist.MapDim(owners)
		for name, spec := range specs {
			for _, backend := range []string{"sim", "wall"} {
				mk := func() *machine.Machine {
					if backend == "wall" {
						return wallclock.MustNew(p, machine.IPSC2())
					}
					return sim.MustNew(p, machine.NCUBE7())
				}
				tag := fmt.Sprintf("%s %s p=%d", backend, name, p)
				want := runGather(t, mk(), spec, n, sweeps, false)
				got := runGather(t, mk(), spec, n, sweeps, true)
				for i := range want.out {
					if got.out[i] != want.out[i] {
						t.Fatalf("%s: out[%d] = %v by segments, want %v", tag, i+1, got.out[i], want.out[i])
					}
				}
				if backend == "sim" && (got.stats != want.stats || got.clock != want.clock) {
					t.Errorf("%s: stats %+v clock %#x by segments, want %+v %#x", tag, got.stats, got.clock, want.stats, want.clock)
				}
				if !slices.Equal(got.plans, want.plans) {
					t.Errorf("%s: plan digests %x by segments, want %x", tag, got.plans, want.plans)
				}
				if got.stats.FlopCount != want.stats.FlopCount {
					t.Errorf("%s: %d flops by segments, want %d", tag, got.stats.FlopCount, want.stats.FlopCount)
				}
				if got.interior != want.interior || got.boundary != want.boundary || want.seg+want.bseg+want.inspect != 0 {
					t.Errorf("%s: iterations %+v by segments, %+v without", tag, got, want)
				}
				windowed := name == "block" || p == 1
				if windowed && (got.seg != got.interior || got.bseg != got.boundary || got.inspect != n) ||
					!windowed && got.seg+got.bseg+got.inspect != 0 {
					t.Errorf("%s: %d of %d interior and %d of %d boundary iterations by segments, %d of %d recorded",
						tag, got.seg, got.interior, got.bseg, got.boundary, got.inspect, n)
				}
				if p > 1 && name == "block" && got.boundary == 0 {
					t.Errorf("%s: no boundary iterations to test", tag)
				}
			}
		}
	}
}

// TestGatherKeepsReadPanics: a body whose references changed since
// inspection without the driving array in DependsOn fails with Read's
// message whether the boundary runs by segments or per element.
func TestGatherKeepsReadPanics(t *testing.T) {
	const n, p = 16, 4
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, topology.MustGrid(p))
	run := func(segments bool) string {
		return panicText(func() {
			sim.MustNew(p, machine.NCUBE7()).Run(func(nd *machine.Node) {
				src, out := darray.New("src", d, nd), darray.New("out", d, nd)
				idx := darray.NewInt("idx", d, nd)
				idx.EachLocal(func(g int) { idx.Set1(g, n+1-g) })
				l := gatherLoop(nd, n, out, src, idx, segments)
				l.DependsOn = nil
				eng := NewEngine(nd)
				eng.Run(l)
				// A reference the schedule never saw: node 0 read only
				// node 3's src[13..16]; now it reads node 1's src[6].
				if idx.IsLocal1(3) {
					idx.Set1(3, 6)
				}
				eng.Run(l)
			})
		})
	}
	want := "machine: node 0 panicked: forall gather: element src[6] not in communication schedule — body references changed since inspection (add the driving array to DependsOn)"
	for _, segments := range []bool{false, true} {
		if got := run(segments); got != want {
			t.Errorf("segments=%v: panic %q, want %q", segments, got, want)
		}
	}
}

// TestGatherSegmentReplayAllocationFree: replaying the inspected loop
// with its interior and boundary run by the kernel allocates nothing.
func TestGatherSegmentReplayAllocationFree(t *testing.T) {
	const n, p, warmup, reps = 64, 4, 5, 20
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, topology.MustGrid(p))
	mach := sim.MustNew(p, machine.Ideal())
	pin := alloctest.Pin{Pool: func() comm.PoolStats { return MachinePoolStats(mach) }}
	mach.Run(func(nd *machine.Node) {
		src, out := darray.New("src", d, nd), darray.New("out", d, nd)
		idx := darray.NewInt("idx", d, nd)
		idx.EachLocal(func(g int) { idx.Set1(g, (g*7)%n+1) })
		eng := NewEngine(nd)
		l := gatherLoop(nd, n, out, src, idx, true)
		pin.Run(nd, warmup, reps, func() { eng.Run(l) })
		if eng.BoundarySegmentIters() == 0 || eng.BoundarySegmentIters() != eng.BoundaryIters() {
			t.Errorf("node %d: %d of %d boundary iterations by segments", nd.ID(), eng.BoundarySegmentIters(), eng.BoundaryIters())
		}
	})
	pin.Check(t, "gather segment replay")
}

// TestReplayOutOfOrder: after inspection the subscripts are shuffled
// among the boundary iterations, with the driving array left out of
// DependsOn, so that the replayed schedule meets every remote
// reference it recorded, but in another order.  Read and Gather must
// confirm each entry of the inspector's stream against the element
// asked for, and search where it does not match: both read the right
// values.
func TestReplayOutOfOrder(t *testing.T) {
	const n, p = 64, 4
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, topology.MustGrid(p))
	val := func(g int) float64 { return 1 + float64(g)*0.37 }
	for _, segments := range []bool{false, true} {
		sim.MustNew(p, machine.NCUBE7()).Run(func(nd *machine.Node) {
			src, out := darray.New("src", d, nd), darray.New("out", d, nd)
			idx := darray.NewInt("idx", d, nd)
			src.EachLocal(func(g int) { src.Set1(g, val(g)) })
			idx.EachLocal(func(g int) { idx.Set1(g, (g*7)%n+1) })
			l := gatherLoop(nd, n, out, src, idx, segments)
			l.DependsOn = nil
			eng := NewEngine(nd)
			eng.Run(l)
			// Reverse the subscripts of the boundary iterations: each
			// still reads a remote element, the set of them is the one
			// inspected, and their order is not.
			its := eng.Schedule("gather").execNonlocal
			for a, b := 0, len(its)-1; a < b; a, b = a+1, b-1 {
				ga, gb := idx.Get1(its[a].i), idx.Get1(its[b].i)
				idx.Set1(its[a].i, gb)
				idx.Set1(its[b].i, ga)
			}
			if len(its) < 2 || idx.Get1(its[0].i) == idx.Get1(its[len(its)-1].i) {
				t.Errorf("node %d: %d boundary iterations, nothing reordered", nd.ID(), len(its))
			}
			eng.Run(l)
			out.EachLocal(func(i int) {
				g := idx.Get1(i)
				if got, want := out.Get1(i), val(g)+val(g%n+1); got != want {
					t.Errorf("segments=%v node %d: out[%d] = %v, want src[%d]+src[%d] = %v", segments, nd.ID(), i, got, g, g%n+1, want)
				}
			})
			if segments && eng.BoundarySegmentIters() == 0 {
				t.Errorf("node %d: no boundary run went through Gather", nd.ID())
			}
		})
	}
}

// TestCursorsOnlyOverStreams: an Env gets stream cursors only over a
// plan that has reference streams, so over an enumerated plan (and
// every other plan without streams) seek and the replay have nothing
// to do; and a Gather handle from an Env without cursors, the
// reference executor's, holds no stream and searches every remote read.
func TestCursorsOnlyOverStreams(t *testing.T) {
	const n, p = 64, 4
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, topology.MustGrid(p))
	sim.MustNew(p, machine.NCUBE7()).Run(func(nd *machine.Node) {
		src, out := darray.New("src", d, nd), darray.New("out", d, nd)
		idx := darray.NewInt("idx", d, nd)
		idx.EachLocal(func(g int) { idx.Set1(g, (g*7)%n+1) })
		for _, enumerate := range []bool{false, true} {
			l := gatherLoop(nd, n, out, src, idx, false)
			l.Enumerate = enumerate
			eng := NewEngine(nd)
			eng.Run(l)
			s := eng.Schedule("gather")
			var env Env
			env.reset(eng, nil, s, []*darray.Array{src})
			if want := map[bool]int{false: len(s.slots), true: 0}[enumerate]; len(env.pos) != want {
				t.Errorf("node %d, enumerate=%v: %d cursors, want %d", nd.ID(), enumerate, len(env.pos), want)
			}
			if enumerate {
				continue
			}
			if len(s.execNonlocal) == 0 || s.slots[0].ref.refs == nil {
				t.Errorf("node %d: inspector plan without a stream", nd.ID())
			}
			bare := Env{mode: modeExecNonlocal, node: nd, sched: s, arrays: []*darray.Array{src}}
			if h, ok := bare.Gather(src); !ok || h.refs != nil {
				t.Errorf("node %d: Gather from an Env without cursors: ok %v, stream of %d entries", nd.ID(), ok, len(h.refs))
			}
		}
	})
}

// TestPlansOwnTheirMemory: one recording serves a large inspector
// build and then smaller ones, as the pool serves a node's builds, and
// no finished plan's iteration lists, reference streams, stream starts
// or in and out records share memory with it: the streams and starts
// are exact-size copies, and no later build changes an earlier plan.
func TestPlansOwnTheirMemory(t *testing.T) {
	const p = 4
	sim.MustNew(p, machine.NCUBE7()).Run(func(nd *machine.Node) {
		rec, eng := new(recording), NewEngine(nd)
		var plans []*plan
		var digests []uint64
		for _, n := range []int{400, 64, 131} {
			d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, topology.MustGrid(p))
			src, out := darray.New("src", d, nd), darray.New("out", d, nd)
			idx := darray.NewInt("idx", d, nd)
			idx.EachLocal(func(g int) { idx.Set1(g, (g*7)%n+1) })
			var c loopCore
			gatherLoop(nd, n, out, src, idx, true).lower(&c)
			pl := eng.inspect(&c, rec)
			pl.rank = 1
			plans, digests = append(plans, pl), append(digests, (&Schedule{plan: pl}).Digest())
		}
		var borrowed [][2]uintptr
		borrowed = appendSpan(borrowed, rec.exec)
		borrowed = appendSpan(borrowed, rec.nonlocal)
		for _, sr := range rec.slots[:cap(rec.slots)] {
			borrowed = appendSpan(borrowed, sr.refs)
			borrowed = appendSpan(borrowed, sr.starts)
		}
		for i, pl := range plans {
			if got := (&Schedule{plan: pl}).Digest(); got != digests[i] {
				t.Errorf("node %d: plan %d changed under later builds", nd.ID(), i)
			}
			var own [][2]uintptr
			own = appendSpan(own, pl.execLocal)
			own = appendSpan(own, pl.execNonlocal)
			for _, sl := range pl.slots {
				if cap(sl.ref.refs) != len(sl.ref.refs) || cap(sl.ref.starts) != len(sl.ref.starts) {
					t.Errorf("node %d, plan %d: stream %d/%d and starts %d/%d (length/capacity)", nd.ID(), i,
						len(sl.ref.refs), cap(sl.ref.refs), len(sl.ref.starts), cap(sl.ref.starts))
				}
				own = appendSpan(own, sl.ref.refs)
				own = appendSpan(own, sl.ref.starts)
				own = appendSpan(own, sl.in.Ranges)
				own = appendSpan(own, sl.out.Ranges)
			}
			for _, a := range own {
				for _, b := range borrowed {
					if a[0] < b[1] && b[0] < a[1] {
						t.Errorf("node %d, plan %d: memory %#x..%#x is the recording's", nd.ID(), i, a[0], a[1])
					}
				}
			}
		}
		if len(plans[0].execNonlocal) == 0 {
			t.Errorf("node %d: no nonlocal iterations to test", nd.ID())
		}
	})
}

// appendSpan appends the address range of s's backing array, to its
// capacity, if it has one.
func appendSpan[T any](spans [][2]uintptr, s []T) [][2]uintptr {
	if cap(s) == 0 {
		return spans
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return append(spans, [2]uintptr{lo, lo + uintptr(cap(s))*unsafe.Sizeof(*new(T))})
}
