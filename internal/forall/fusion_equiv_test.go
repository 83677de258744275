package forall

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"kali/internal/analysis"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/machine/wallclock"
	"kali/internal/topology"
)

// Fusion-equivalence property: cross-loop aggregation changes *when*
// messages move, never what they carry, so over random loop sequences
// the matrix {prod, ref} × {sim, wall} × {compile-time, inspector,
// enumerate} must produce bit-identical array contents, identical
// per-executor Stats across backends, identical byte and flop totals
// prod vs ref, message counts that only shrink, and warm simulated
// clocks that only shrink.  Mirrors backend_equiv_test.go's single-loop
// matrix one level up the pipeline: there every window has one loop,
// here production fuses and the per-loop reference executor is the
// oracle.

// fuseLoop is one randomly drawn loop of a sequence over the case's
// array pool: dst = f(src [, src2]) with affine offsets, or an
// indirect permutation read.
type fuseLoop struct {
	dst, src int
	src2     int // second read array (-1: none)
	off      int // affine read offset
	off2     int
	indirect bool
}

// fuseCase is one randomly drawn sequence shape.
type fuseCase struct {
	n, p  int
	spec  dist.DimSpec
	loops []fuseLoop
	perm  []int // shared by every indirect loop
}

const fusePoolSize = 4

func drawFuseCase(r *rand.Rand, indirect bool) fuseCase {
	c := fuseCase{
		n: 12 + r.Intn(36),
		p: 1 + r.Intn(4),
	}
	switch r.Intn(3) {
	case 0:
		c.spec = dist.BlockDim()
	case 1:
		c.spec = dist.CyclicDim()
	default:
		c.spec = dist.BlockCyclicDim(1 + r.Intn(4))
	}
	offs := []int{-2, -1, 1, 2}
	nloops := 2 + r.Intn(3)
	for k := 0; k < nloops; k++ {
		l := fuseLoop{
			dst:  r.Intn(fusePoolSize),
			src:  r.Intn(fusePoolSize),
			src2: -1,
			off:  offs[r.Intn(len(offs))],
		}
		if l.src == l.dst {
			l.src = (l.src + 1) % fusePoolSize
		}
		if r.Intn(2) == 0 {
			l.src2 = r.Intn(fusePoolSize)
			if l.src2 == l.dst {
				l.src2 = (l.src2 + 1) % fusePoolSize
			}
			l.off2 = offs[r.Intn(len(offs))]
		}
		l.indirect = indirect && r.Intn(2) == 0
		c.loops = append(c.loops, l)
	}
	if indirect {
		// At least one loop must actually be indirect.
		c.loops[r.Intn(len(c.loops))].indirect = true
		c.perm = make([]int, c.n)
		for i := range c.perm {
			c.perm[i] = r.Intn(c.n) + 1
		}
	}
	return c
}

// fuseExec selects one cell of the matrix.
type fuseExec struct {
	force     bool // ForceInspector
	enumerate bool // Enumerate on the indirect loops
	reference bool // the per-loop oracle instead of fusing production
}

// runFuseCase executes the case's sequence on the given machine:
// two cold sweeps, a barrier, three warm sweeps, a barrier.  It
// returns the gathered contents of the whole array pool, machine-wide
// Stats, the warm-window clock delta (meaningful on sim only: the
// barriers synchronize all clocks, so the delta is backend-global),
// and node 0's fused-window count.
func runFuseCase(c fuseCase, m *machine.Machine, ex fuseExec) ([]float64, machine.Stats, float64, int) {
	g := topology.MustGrid(m.P())
	d := dist.Must([]int{c.n}, []dist.DimSpec{c.spec}, g)
	vals := make([]float64, fusePoolSize*c.n)
	var warmDelta float64
	var windows int
	var mu sync.Mutex
	m.Run(func(nd *machine.Node) {
		var pool [fusePoolSize]*darray.Array
		for a := range pool {
			pool[a] = darray.New(string(rune('A'+a)), d, nd)
			av := pool[a]
			seed := float64(a + 1)
			av.EachLocal(func(gl int) { av.Set1(gl, seed*0.5+float64(gl)*1.25) })
		}
		var perm *darray.IntArray
		if c.perm != nil {
			perm = darray.NewInt("perm", d, nd)
			perm.EachLocal(func(gl int) { perm.Set1(gl, c.perm[gl-1]) })
		}
		eng := NewEngine(nd)
		eng.ForceInspector = ex.force
		eng.Reference = ex.reference

		var seq []SeqLoop
		for k, fl := range c.loops {
			fl := fl
			dst, src := pool[fl.dst], pool[fl.src]
			// Bounds keep every affine subscript inside [1, n].
			lo, hi := 3, c.n-2
			name := "fuse" + string(rune('0'+k))
			var loop *Loop
			if fl.indirect {
				loop = &Loop{
					Name: name, Lo: lo, Hi: hi,
					On: dst, OnF: analysis.Identity,
					Reads:     []ReadSpec{{Array: src}},
					DependsOn: []Dep{perm},
					Enumerate: ex.enumerate,
					Body: func(i int, e *Env) {
						j := e.ReadInt(perm, i)
						e.Write(dst, i, e.Read(src, j)+float64(i))
					},
				}
			} else if fl.src2 >= 0 {
				src2 := pool[fl.src2]
				loop = &Loop{
					Name: name, Lo: lo, Hi: hi,
					On: dst, OnF: analysis.Identity,
					Reads: []ReadSpec{
						{Array: src, Affine: &analysis.Affine{A: 1, C: fl.off}},
						{Array: src2, Affine: &analysis.Affine{A: 1, C: fl.off2}},
					},
					Body: func(i int, e *Env) {
						e.Write(dst, i, 0.5*e.Read(src, i+fl.off)+0.25*e.Read(src2, i+fl.off2)+float64(i))
					},
				}
			} else {
				loop = &Loop{
					Name: name, Lo: lo, Hi: hi,
					On: dst, OnF: analysis.Identity,
					Reads: []ReadSpec{{Array: src, Affine: &analysis.Affine{A: 1, C: fl.off}}},
					Body: func(i int, e *Env) {
						e.Write(dst, i, 0.5*e.Read(src, i+fl.off)+float64(i))
					},
				}
			}
			seq = append(seq, SeqLoop{L: loop, Writes: []*darray.Array{dst}})
		}

		for s := 0; s < 2; s++ {
			eng.RunSequence(seq)
		}
		nd.Barrier()
		c0 := nd.Clock()
		for s := 0; s < 3; s++ {
			eng.RunSequence(seq)
		}
		nd.Barrier()
		c1 := nd.Clock()

		mu.Lock()
		if nd.ID() == 0 {
			warmDelta = c1 - c0
			windows = eng.FusedWindows()
		}
		for a, av := range pool {
			av.EachLocal(func(gl int) { vals[a*c.n+gl-1] = av.Get1(gl) })
		}
		mu.Unlock()
	})
	return vals, m.TotalStats(), warmDelta, windows
}

func TestFusionEquivalenceMatrix(t *testing.T) {
	type kind struct {
		name      string
		indirect  bool
		force     bool
		enumerate bool
	}
	kinds := []kind{
		{"compile-time", false, false, false},
		{"inspector", false, true, false},
		{"enumerate", true, false, true},
	}
	r := rand.New(rand.NewSource(932))
	strictSavings, fusedWindows := 0, 0
	for trial := 0; trial < 12; trial++ {
		for _, k := range kinds {
			c := drawFuseCase(rand.New(rand.NewSource(r.Int63())), k.indirect)
			type cell struct {
				vals  []float64
				stats machine.Stats
				warm  float64
				win   int
			}
			get := func(backend string, reference bool) cell {
				var m *machine.Machine
				if backend == "sim" {
					m = sim.MustNew(c.p, machine.NCUBE7())
				} else {
					m = wallclock.MustNew(c.p, machine.NCUBE7())
				}
				ex := fuseExec{force: k.force, enumerate: k.enumerate, reference: reference}
				vals, stats, warm, win := runFuseCase(c, m, ex)
				return cell{vals, stats, warm, win}
			}
			simF, simU := get("sim", false), get("sim", true)
			wallF, wallU := get("wall", false), get("wall", true)

			// Contents: bit-identical across all four cells.
			for _, o := range []struct {
				name string
				c    cell
			}{{"sim ref", simU}, {"wall prod", wallF}, {"wall ref", wallU}} {
				for i := range simF.vals {
					if o.c.vals[i] != simF.vals[i] {
						t.Fatalf("trial %d %s (%+v): %s element %d differs: %v vs %v",
							trial, k.name, c, o.name, i, o.c.vals[i], simF.vals[i])
					}
				}
			}
			// Stats: backend-independent for each executor.
			if simF.stats != wallF.stats {
				t.Fatalf("trial %d %s (%+v): production stats differ across backends: sim %+v, wall %+v",
					trial, k.name, c, simF.stats, wallF.stats)
			}
			if simU.stats != wallU.stats {
				t.Fatalf("trial %d %s (%+v): reference stats differ across backends: sim %+v, wall %+v",
					trial, k.name, c, simU.stats, wallU.stats)
			}
			// Fusion never changes the bytes moved or the arithmetic done,
			// only the envelope count; the reference oracle must see no
			// fused traffic at all.
			if simF.stats.BytesSent != simU.stats.BytesSent || simF.stats.FlopCount != simU.stats.FlopCount {
				t.Fatalf("trial %d %s (%+v): production bytes/flops %d/%d != reference %d/%d",
					trial, k.name, c, simF.stats.BytesSent, simF.stats.FlopCount, simU.stats.BytesSent, simU.stats.FlopCount)
			}
			if simF.stats.MsgsSent > simU.stats.MsgsSent {
				t.Fatalf("trial %d %s (%+v): fusion grew message count: %d > %d",
					trial, k.name, c, simF.stats.MsgsSent, simU.stats.MsgsSent)
			}
			if simU.stats.FusedMsgsSent != 0 || simU.win != 0 {
				t.Fatalf("trial %d %s: reference run recorded %d fused messages, %d fusion windows",
					trial, k.name, simU.stats.FusedMsgsSent, simU.win)
			}
			// Warm simulated clocks shrink-only (tiny epsilon: the same
			// charges accumulate in a different order, so the last few
			// float bits may move).
			if eps := 1e-9 * (1 + simU.warm); simF.warm > simU.warm+eps {
				t.Fatalf("trial %d %s (%+v): fusion grew the warm simulated clock: %.12g > %.12g",
					trial, k.name, c, simF.warm, simU.warm)
			}
			if simF.stats.MsgsSent < simU.stats.MsgsSent {
				strictSavings++
			}
			fusedWindows += simF.win
		}
	}
	// The draw must actually exercise fusion: some trials have windows,
	// and some save messages outright.
	if fusedWindows == 0 {
		t.Fatal("no trial executed a fusion window")
	}
	if strictSavings == 0 {
		t.Fatal("no trial saved messages through fusion")
	}
}

// TestFusedWindowRepeatsOneLoop: a window that runs one loop twice
// holds one Schedule twice, so both loops' sections land in one set of
// receive buffers, and a section that completes before its loop drains
// is unpacked into them at once (drainSections), with the same values
// the earlier loop's section brought.  On the wall backend the
// last node is late to every window, so the middle node finds loop 1's
// section from its left neighbour before loop 0's from its right one.
// Production must match the reference executor bit for bit, with
// every window fused and every section's payload back in the pool.
func TestFusedWindowRepeatsOneLoop(t *testing.T) {
	const n, p, sweeps = 30, 3, 6
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, topology.MustGrid(p))
	run := func(reference bool) ([]float64, int) {
		vals := make([]float64, sweeps*n)
		windows := 0
		var mu sync.Mutex
		m := wallclock.MustNew(p, machine.Ideal())
		m.Run(func(nd *machine.Node) {
			src, out := darray.New("src", d, nd), darray.New("out", d, nd)
			l := &Loop{
				Name: "l", Lo: 2, Hi: n - 1,
				On: out, OnF: analysis.Identity,
				Reads: []ReadSpec{
					{Array: src, Affine: &analysis.Affine{A: 1, C: -1}},
					{Array: src, Affine: &analysis.Affine{A: 1, C: 1}},
				},
				Body: func(i int, e *Env) { e.Write(out, i, e.Read(src, i-1)-2*e.Read(src, i+1)) },
			}
			seq := []SeqLoop{{L: l, Writes: []*darray.Array{out}}, {L: l, Writes: []*darray.Array{out}}}
			eng := NewEngine(nd)
			eng.Reference = reference
			for s := 0; s < sweeps; s++ {
				src.EachLocal(func(gl int) { src.Set1(gl, float64(gl*(s+1)+s)) })
				if nd.ID() == p-1 {
					time.Sleep(time.Millisecond)
				}
				eng.RunSequence(seq)
				mu.Lock()
				out.EachLocal(func(gl int) { vals[s*n+gl-1] = out.Get1(gl) })
				mu.Unlock()
			}
			if nd.ID() == 1 {
				windows = eng.FusedWindows()
			}
		})
		if st := MachinePoolStats(m); st.Gets != st.Puts {
			t.Errorf("reference=%v: %d payloads taken from the pool, %d returned", reference, st.Gets, st.Puts)
		}
		return vals, windows
	}
	prod, windows := run(false)
	ref, _ := run(true)
	for i := range ref {
		if prod[i] != ref[i] {
			t.Errorf("sweep %d: out[%d] = %g, reference %g", i/n, i%n+1, prod[i], ref[i])
		}
	}
	if windows != sweeps {
		t.Errorf("%d of %d windows fused", windows, sweeps)
	}
}
