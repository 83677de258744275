package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"kali/internal/analysis"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/machine"
	"kali/internal/machine/wallclock"
	"kali/internal/topology"
)

// wallP is the thread count of the wall-clock workloads: one pinned
// OS thread per core of the 2-core host the benchmark is sized for.
const wallP = 2

// wallNode is one node's share of a wall workload.  The arrays and the
// engine are bound to the machine's nodes, so they live across the
// separate Machine.Run calls of set-up, measurement and tracing.
type wallNode struct {
	// replay is one op: one sweep or one redistribute ping-pong.
	replay func()
	// reseed rewrites this node's part of the input for a window;
	// check compares this node's part of the result with the closed
	// form and returns the number of wrong elements.
	reseed func(window int)
	check  func(window int) int
	engine *forall.Engine // nil when the op uses no forall engine
	label  string         // span name of one op
}

// wallWorkload drives windows of ops on a two-thread wall machine.
type wallWorkload struct {
	m      *machine.Machine
	nodes  [wallP]*wallNode
	window int // ops per timed window
	shape  func(probeShape) probeShape
	salt   int
	// windows counts windows run so far, so each gets fresh input.
	windows int
}

// runWindows runs timed windows until b ends.  Every node times its
// own window; a window's sample is the slowest node's time ÷ ops.
// Node 0 decides whether another window follows and the nodes agree
// through an all-reduce, outside the timed region.
func (w *wallWorkload) runWindows(b budget, tr *tracer) samples {
	var perNode [wallP][]time.Duration
	var traffic [wallP]machine.Stats // of the timed regions only
	var bad atomic.Int64
	buildsBefore := w.builds()
	first := w.windows
	w.m.Run(func(nd *machine.Node) {
		me := nd.ID()
		st := w.nodes[me]
		for k := 0; ; k++ {
			st.reseed(first + k)
			nd.Barrier()
			sent := nd.Stats()
			t0 := time.Now()
			if tr == nil {
				for i := 0; i < w.window; i++ {
					st.replay()
				}
			} else {
				for i := 0; i < w.window; i++ {
					s := tr.begin(st.label, k*w.window+i, me, -1)
					st.replay()
					tr.end(s)
				}
			}
			perNode[me] = append(perNode[me], time.Since(t0))
			traffic[me] = traffic[me].Add(nd.Stats().Sub(sent))
			bad.Add(int64(st.check(first + k)))
			again := 0.0
			if me == 0 && b.more(k+1) {
				again = 1
			}
			if nd.AllReduce(again, "max") == 0 {
				return
			}
		}
	})
	n := len(perNode[0])
	w.windows += n
	s := samples{ops: n * w.window}
	for k := 0; k < n; k++ {
		slow := perNode[0][k]
		for p := 1; p < wallP; p++ {
			slow = max(slow, perNode[p][k])
		}
		s.us = append(s.us, float64(slow)/1e3/float64(w.window))
	}
	if bad.Load() > 0 {
		// A wrong element cannot be pinned on one op of its window:
		// count the whole pass as failed.
		s.failed = s.ops
	}
	for _, t := range traffic {
		s.msgs += int64(t.MsgsSent)
		s.bytes += int64(t.BytesSent)
	}
	s.builds = w.builds() - buildsBefore
	return s
}

func (w *wallWorkload) builds() int64 {
	var n int64
	for _, st := range w.nodes {
		if st.engine != nil {
			n += int64(st.engine.Builds())
		}
	}
	return n
}

// episodeWindows is how many windows one Machine.Run measures before
// the pass starts a new one.  Where the host puts a run's two pinned
// threads shifts every window of that run by up to a fifth, so a pass
// is many short runs, each with fresh threads, and its median is
// taken over all their windows.
const episodeWindows = 6

func (w *wallWorkload) measure(b budget, tr *tracer) samples {
	var all samples
	for b.more(len(all.us)) {
		episode := b
		episode.maxSamples = episodeWindows
		if b.maxSamples > 0 {
			episode.maxSamples = min(episodeWindows, b.maxSamples-len(all.us))
		}
		all.merge(w.runWindows(episode, tr))
	}
	return all
}
func (w *wallWorkload) twin(budget, *tracer) {}
func (w *wallWorkload) close()               {}

func (w *wallWorkload) probeShape() probeShape { return w.shape(defaultProbeShape(w.salt)) }

// warm runs ops untimed so schedules are built and pools grown.
func (w *wallWorkload) warm(ops int) error {
	saved := w.window
	w.window = ops
	s := w.runWindows(budget{maxSamples: 1}, nil)
	w.window = saved
	if s.failed > 0 {
		return fmt.Errorf("warm-up failed its reference check")
	}
	return nil
}

// setupWallHalo is a warm replay of a 1-D Jacobi forall: b[i] :=
// (a[i-1]+a[i+1])/2, one boundary element each way per sweep.
func setupWallHalo(seed int64, sz sizes) (instance, error) {
	n := sz.haloN
	w := &wallWorkload{m: wallclock.MustNew(wallP, machine.NCUBE7()), window: sz.haloWindow, salt: saltOf(seed)}
	w.shape = func(ps probeShape) probeShape {
		ps.packRanges, ps.packLen = 1, 1
		return ps
	}
	w.m.Run(func(nd *machine.Node) {
		d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, topology.MustGrid(wallP))
		a, b := darray.New("a", d, nd), darray.New("b", d, nd)
		eng := forall.NewEngine(nd)
		loop := haloLoop(a, b, n)
		w.nodes[nd.ID()] = &wallNode{
			replay: func() { eng.Run(loop) },
			reseed: func(window int) {
				a.EachLocal(func(i int) { a.Set1(i, haloValue(w.salt, window, i)) })
			},
			check: func(window int) int {
				wrong := 0
				b.EachLocal(func(i int) {
					if i == 1 || i == n {
						return
					}
					want := 0.5 * (haloValue(w.salt, window, i-1) + haloValue(w.salt, window, i+1))
					if b.Get1(i) != want {
						wrong++
					}
				})
				return wrong
			},
			engine: eng,
			label:  "Engine.Run",
		}
	})
	if err := w.warm(sz.haloWarm); err != nil {
		return nil, fmt.Errorf("wall-halo: %w", err)
	}
	return w, nil
}

// haloLoop is the 1-D Jacobi forall of the wall-halo workload.
func haloLoop(a, b *darray.Array, n int) *forall.Loop {
	return &forall.Loop{
		Name: "halo", Lo: 2, Hi: n - 1,
		On: b, OnF: analysis.Identity,
		Reads: []forall.ReadSpec{
			{Array: a, Affine: &analysis.Affine{A: 1, C: -1}},
			{Array: a, Affine: &analysis.Affine{A: 1, C: 1}},
		},
		Body: func(i int, e *forall.Env) {
			e.Write(b, i, 0.5*(e.Read(a, i-1)+e.Read(a, i+1)))
		},
	}
}

// rowColDists are the [block,*] and [*,block] distributions of an n×n
// array over the wall machine's nodes.
func rowColDists(n int) (rows, cols *dist.Dist) {
	g := topology.MustGrid(wallP)
	rows = dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}, g)
	cols = dist.Must([]int{n, n}, []dist.DimSpec{dist.CollapsedDim(), dist.BlockDim()}, g)
	return rows, cols
}

// setupWallTranspose is a [block,*] ↔ [*,block] redistribution
// ping-pong: half of every node's partition crosses per direction.
func setupWallTranspose(seed int64, sz sizes) (instance, error) {
	n := sz.transN
	w := &wallWorkload{m: wallclock.MustNew(wallP, machine.NCUBE7()), window: sz.transWindow, salt: saltOf(seed)}
	w.shape = func(ps probeShape) probeShape {
		ps.redistN = n
		ps.packRanges, ps.packLen = n/wallP, n/wallP
		return ps
	}
	w.m.Run(func(nd *machine.Node) {
		rows, cols := rowColDists(n)
		a := darray.New("t", rows, nd)
		// wrongNow counts local elements that differ from the closed
		// form under whatever distribution a has at the moment.
		wrongNow := func(window int) int {
			wrong := 0
			a.EachLocal(func(g int) {
				if a.GetLinear(g) != transposeValue(w.salt, window, g) {
					wrong++
				}
			})
			return wrong
		}
		w.nodes[nd.ID()] = &wallNode{
			replay: func() {
				darray.Redistribute(a, cols)
				darray.Redistribute(a, rows)
			},
			reseed: func(window int) {
				a.EachLocal(func(g int) { a.SetLinear(g, transposeValue(w.salt, window, g)) })
			},
			// After the window's even number of redistributions a is
			// back in rows; one more checks the column layout too.
			check: func(window int) int {
				wrong := wrongNow(window)
				darray.Redistribute(a, cols)
				wrong += wrongNow(window)
				darray.Redistribute(a, rows)
				return wrong
			},
			label: "darray.Redistribute x2",
		}
	})
	if err := w.warm(sz.transWarm); err != nil {
		return nil, fmt.Errorf("wall-transpose: %w", err)
	}
	return w, nil
}
