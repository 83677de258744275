package forall

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"kali/internal/analysis"
	"kali/internal/comm"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/machine/wallclock"
	"kali/internal/topology"
)

// Tests of the interior's row-segment form: what a schedule stores,
// how the engine dispatches it, and the accessors a Segment body runs
// against.  The bodies here are hand-written Go; the bytecode VM's own
// kernel is pinned against its per-element path in internal/lang.

// segRun is what one run of the jacobi pair leaves behind.
type segRun struct {
	u        []float64
	stats    machine.Stats
	clock    float64
	interior int
	segment  int
}

// runSegJacobi runs sweeps of the copy/relax pair, both loops carrying
// Segment bodies, on a 2×2 grid (1×1 on a one-node machine) — through
// RunSequence when fused, else each loop on its own — on the production
// executor, which dispatches interiors to the Segment bodies, or on the
// reference executor, which never calls them.
func runSegJacobi(t *testing.T, mach *machine.Machine, n, sweeps int, reference, fused bool) segRun {
	t.Helper()
	g := topology.MustGrid(2, 2)
	if mach.P() == 1 {
		g = topology.MustGrid(1, 1)
	}
	d := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g)
	out := segRun{u: make([]float64, n*n)}
	var mu sync.Mutex
	mach.Run(func(nd *machine.Node) {
		u := darray.New("u", d, nd)
		old := darray.New("old", d, nd)
		for r := 1; r <= n; r++ {
			for c := 1; c <= n; c++ {
				if u.IsLocal(r, c) && (r == 1 || r == n || c == 1 || c == n) {
					u.Set2(r, c, 1.0+float64(((r-1)*n+c)%7))
				}
			}
		}
		copyLoop := &Loop2{
			Name: "copy", LoI: 1, HiI: n, LoJ: 1, HiJ: n, On: old,
			Body: func(i, j int, e *Env) { e.Write2(old, i, j, e.ReadLocal2(u, i, j)) },
		}
		shift := func(di, dj int) *analysis.Affine2 {
			return &analysis.Affine2{I: analysis.Affine{A: 1, C: di}, J: analysis.Affine{A: 1, C: dj}}
		}
		relaxLoop := &Loop2{
			Name: "relax", LoI: 2, HiI: n - 1, LoJ: 2, HiJ: n - 1, On: u,
			Reads: []ReadSpec{
				{Array: old, Affine2: shift(-1, 0)}, {Array: old, Affine2: shift(1, 0)},
				{Array: old, Affine2: shift(0, -1)}, {Array: old, Affine2: shift(0, 1)},
			},
			Body: func(i, j int, e *Env) {
				x := 0.25 * (e.Read2(old, i-1, j) + e.Read2(old, i+1, j) +
					e.Read2(old, i, j-1) + e.Read2(old, i, j+1))
				e.Flops(9)
				e.Write2(u, i, j, x)
			},
		}
		// The same loops a row at a time: charges in the order Body
		// makes them, on the held clock.
		cell, cost := nd.ClockCell()
		copyLoop.Segment = func(i, jLo, jHi int, e *Env) bool {
			src, dst := u.Span2(i, jLo, jHi), e.WriteSpan2(old, i, jLo, jHi)
			if src == nil || dst == nil {
				return false
			}
			clk := *cell
			for k := range dst {
				clk += cost.LoopIter
				clk += cost.MemRef
				clk += cost.MemRef
				dst[k] = src[k]
			}
			*cell = clk
			return true
		}
		relaxLoop.Segment = func(i, jLo, jHi int, e *Env) bool {
			up, dn := old.Span2(i-1, jLo, jHi), old.Span2(i+1, jLo, jHi)
			mid := old.Span2(i, jLo-1, jHi+1)
			dst := e.WriteSpan2(u, i, jLo, jHi)
			if up == nil || dn == nil || mid == nil || dst == nil {
				return false
			}
			clk := *cell
			for k := range dst {
				clk += cost.LoopIter
				for m := 0; m < 4; m++ {
					clk += cost.MemRef
				}
				clk += 9 * cost.Flop
				clk += cost.MemRef
				dst[k] = 0.25 * (up[k] + dn[k] + mid[k] + mid[k+2])
			}
			*cell = clk
			nd.AddFlopCount(int64(9 * len(dst)))
			return true
		}
		eng := NewEngine(nd)
		eng.Reference = reference
		seq := []SeqLoop{
			{L2: copyLoop, Writes: []*darray.Array{old}},
			{L2: relaxLoop, Writes: []*darray.Array{u}},
		}
		for s := 0; s < sweeps; s++ {
			if fused {
				eng.RunSequence(seq)
			} else {
				eng.Run2(copyLoop)
				eng.Run2(relaxLoop)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for r := 1; r <= n; r++ {
			for c := 1; c <= n; c++ {
				if u.IsLocal(r, c) {
					out.u[(r-1)*n+c-1] = u.Get2(r, c)
				}
			}
		}
		out.interior += eng.InteriorIters()
		out.segment += eng.SegmentIters()
	})
	out.stats = mach.TotalStats()
	out.clock = mach.MaxClock()
	return out
}

// TestSegmentDispatchMatchesPerElement: loops run through their
// Segment bodies by the production executor and the same loops run per
// element through Body by the reference executor leave identical
// arrays, traffic and flop counts, alone and through RunSequence, on
// both backends; with a Segment body every production interior
// iteration goes through it, and the reference never calls one.  On
// the simulator production clocks can only be earlier — and on one
// node, where there is nothing to overlap and the Segment dispatch is
// the only difference left, they are the same bits.
func TestSegmentDispatchMatchesPerElement(t *testing.T) {
	const n, sweeps = 20, 3
	backends := map[string]func(p int) *machine.Machine{
		"sim":  func(p int) *machine.Machine { return sim.MustNew(p, machine.NCUBE7()) },
		"wall": func(p int) *machine.Machine { return wallclock.MustNew(p, machine.NCUBE7()) },
	}
	for name, mk := range backends {
		for _, p := range []int{4, 1} {
			for _, fused := range []bool{false, true} {
				ref := runSegJacobi(t, mk(p), n, sweeps, true, fused)
				got := runSegJacobi(t, mk(p), n, sweeps, false, fused)
				tag := fmt.Sprintf("%s p=%d fused=%v", name, p, fused)
				for i := range ref.u {
					if got.u[i] != ref.u[i] {
						t.Fatalf("%s: u[%d] = %v by segments, want %v", tag, i, got.u[i], ref.u[i])
					}
				}
				// The copy loop reads nothing remote, so even the fused
				// window sends exactly the relax loop's messages.
				gs, rs := got.stats, ref.stats
				if gs.MsgsSent != rs.MsgsSent || gs.MsgsReceived != rs.MsgsReceived ||
					gs.BytesSent != rs.BytesSent || gs.FlopCount != rs.FlopCount {
					t.Errorf("%s: stats %+v by segments, want %+v", tag, gs, rs)
				}
				if name == "sim" && (got.clock > ref.clock || p == 1 && got.clock != ref.clock) {
					t.Errorf("%s: clock %v by segments, reference %v (want no later; bitwise equal on one node)", tag, got.clock, ref.clock)
				}
				if ref.segment != 0 || ref.interior == 0 {
					t.Errorf("%s: reference run counted %d of %d interior iterations as segment-run", tag, ref.segment, ref.interior)
				}
				if got.segment != got.interior || got.interior != ref.interior {
					t.Errorf("%s: %d of %d interior iterations ran through Segment (reference run: %d)",
						tag, got.segment, got.interior, ref.interior)
				}
			}
		}
	}
}

// TestInteriorStoredAsSegments: a compile-time rank-2 schedule holds
// its interior as one segment per interior row, the inspector's
// run-length compression arrives at the same list, a save and load
// through the disk cache reproduces the whole plan (iteration lists,
// ranges and peer lists), and MemBytes still prices the interior per
// iteration (the paper's §5 iteration-list model).
func TestInteriorStoredAsSegments(t *testing.T) {
	const n = 16
	g := topology.MustGrid(2, 2)
	d := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, g)
	dir := t.TempDir()
	for _, force := range []bool{false, true} {
		sim.MustNew(4, machine.Ideal()).Run(func(nd *machine.Node) {
			u, old := darray.New("u", d, nd), darray.New("old", d, nd)
			eng := NewEngine(nd)
			eng.ForceInspector = force
			eng.Run2(&Loop2{
				Name: "relax", LoI: 2, HiI: n - 1, LoJ: 2, HiJ: n - 1, On: u,
				Reads: []ReadSpec{
					{Array: old, Affine2: &analysis.Affine2{I: analysis.Affine{A: 1, C: -1}, J: analysis.Identity}},
					{Array: old, Affine2: &analysis.Affine2{I: analysis.Affine{A: 1, C: 1}, J: analysis.Identity}},
					{Array: old, Affine2: &analysis.Affine2{I: analysis.Identity, J: analysis.Affine{A: 1, C: -1}}},
					{Array: old, Affine2: &analysis.Affine2{I: analysis.Identity, J: analysis.Affine{A: 1, C: 1}}},
				},
				Body: func(i, j int, e *Env) {
					e.Write2(u, i, j, e.Read2(old, i-1, j)+e.Read2(old, i+1, j)+e.Read2(old, i, j-1)+e.Read2(old, i, j+1))
				},
			})
			s := eng.Schedule2("relax")
			// Each node owns an 8×8 tile and runs 7×7 of it (the loop
			// skips the array's rim); the row and the column next to a
			// neighbouring tile are boundary, so 6 rows of 6 interior
			// columns remain.
			if len(s.execLocal) != 6 || s.LocalIters() != 36 {
				t.Errorf("node %d force=%v: %d segments covering %d interior iterations, want 6 covering 36",
					nd.ID(), force, len(s.execLocal), s.LocalIters())
			}
			for _, sg := range s.execLocal {
				if sg.hi-sg.lo+1 != 6 {
					t.Errorf("node %d force=%v: segment %+v is not a whole interior row", nd.ID(), force, sg)
				}
			}
			want := 8*2*(s.LocalIters()+s.NonlocalIters()) + 8*s.RecvCount()
			for _, as := range s.slots {
				want += recBytes * (len(as.in.Ranges) + len(as.out.Ranges))
			}
			if got := s.MemBytes(); got != want {
				t.Errorf("node %d force=%v: MemBytes = %d, want %d (interior priced per iteration)", nd.ID(), force, got, want)
			}
			if !force {
				store := NewSharedStore(1, dir)
				store.saveDisk(nd.ID(), 1, s.plan)
				back := store.loadDisk(nd.ID(), 1)
				if back == nil || !reflect.DeepEqual(planView(back), planView(s.plan)) {
					t.Errorf("node %d: disk round trip changed the plan:\n%+v\nwant\n%+v", nd.ID(), back, s.plan)
				}
			}
		})
	}
}

// planView is p with every slot's in and out sets replaced by their
// records and totals: what a plan means, without the in set's search
// index, which DeepEqual would compare by address.
func planView(p *plan) any {
	type setView struct {
		Ranges []comm.Range
		Total  int
	}
	q := *p
	q.slots = nil
	sets := []setView{}
	for _, sl := range p.slots {
		sets = append(sets, setView{sl.in.Ranges, sl.in.Total}, setView{sl.out.Ranges, sl.out.Total})
	}
	return []any{q, sets}
}

// panicText runs f and returns the text of its panic ("" if none).
func panicText(f func()) (text string) {
	defer func() {
		if r := recover(); r != nil {
			text = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestSegmentRefusalsKeepBodyPanics: the two stores a Segment body may
// not make directly — into a replicated array, and across the edge of
// the local window — are refused by WriteSpan, and the per-element
// fallback raises exactly the panic it raised before segments existed.
func TestSegmentRefusalsKeepBodyPanics(t *testing.T) {
	g := topology.MustGrid(2)
	d := dist.Must([]int{8}, []dist.DimSpec{dist.BlockDim()}, g)
	run := func(target string, withSegment bool) string {
		return panicText(func() {
			sim.MustNew(2, machine.Ideal()).Run(func(nd *machine.Node) {
				a := darray.New("A", d, nd)
				var dst *darray.Array
				off := 0
				if target == "replicated" {
					dst = darray.New("R", dist.NewReplicated([]int{8}, g), nd)
				} else {
					dst, off = darray.New("B", d, nd), 1 // B[i+1]: node 0's last store leaves its block
				}
				loop := &Loop{
					Name: "w", Lo: 1, Hi: 7, On: a, OnF: analysis.Identity,
					Body: func(i int, e *Env) { e.Write(dst, i+off, 1) },
				}
				if withSegment {
					loop.Segment = func(lo, hi int, e *Env) bool {
						v := e.WriteSpan1(dst, lo+off, hi+off)
						if v == nil {
							return false
						}
						for k := range v {
							v[k] = 1
						}
						return true
					}
				}
				NewEngine(nd).Run(loop)
			})
		})
	}
	want := map[string]string{
		"replicated": `machine: node 0 panicked: forall w: write to replicated array "R"`,
		"edge":       `machine: node 0 panicked: forall w: non-owner write to B[5] on node 0`,
	}
	for target, text := range want {
		for _, withSegment := range []bool{false, true} {
			if got := run(target, withSegment); got != text {
				t.Errorf("%s, segment=%v: panic %q, want %q", target, withSegment, got, text)
			}
		}
	}
}

// TestWriteSpanRefusesDeclaredReadsAndSticks: copy-in/copy-out is only
// skippable where it cannot be observed — never for an array the loop
// declares as read — and once one span of an array has been refused,
// later spans of it are too, so a logged store is never overtaken by a
// direct one.
func TestWriteSpanRefusesDeclaredReadsAndSticks(t *testing.T) {
	g := topology.MustGrid(1)
	d := dist.Must([]int{8}, []dist.DimSpec{dist.BlockDim()}, g)
	sim.MustNew(1, machine.Ideal()).Run(func(nd *machine.Node) {
		a, b := darray.New("A", d, nd), darray.New("B", d, nd)
		for i := 1; i <= 8; i++ {
			a.Set1(i, float64(i))
		}
		calls := 0
		loop := &Loop{
			Name: "shift", Lo: 1, Hi: 7, On: a, OnF: analysis.Identity,
			Reads: []ReadSpec{{Array: a, Affine: &analysis.Affine{A: 1, C: 1}}},
			Body:  func(i int, e *Env) { e.Write(a, i, e.Read(a, i+1)) },
			Segment: func(lo, hi int, e *Env) bool {
				calls++
				if e.WriteSpan1(a, lo, hi) != nil {
					t.Error("WriteSpan1 of a declared read must be nil")
				}
				if e.WriteSpan1(b, lo, hi) == nil {
					t.Error("WriteSpan1 of an undeclared local span must resolve")
				}
				if e.WriteSpan1(b, lo, hi+2) != nil {
					t.Error("WriteSpan1 past the local window must be nil")
				}
				if e.WriteSpan1(b, lo, hi) != nil {
					t.Error("WriteSpan1 must stay refused for an array after one refusal")
				}
				return false
			},
		}
		eng := NewEngine(nd)
		eng.Run(loop)
		eng.Run(loop) // refusals are per execution: the second run asserts afresh
		if calls != 2 {
			t.Errorf("Segment offered %d times, want 2", calls)
		}
		// Declined segments ran through Body with copy-in/copy-out
		// intact: two shifts.
		for i := 1; i <= 6; i++ {
			if a.Get1(i) != float64(i+2) {
				t.Errorf("A[%d] = %g after two shifts, want %d", i, a.Get1(i), i+2)
			}
		}
		if eng.SegmentIters() != 0 || eng.InteriorIters() != 14 {
			t.Errorf("declined segments: %d of %d interior iterations counted as segment-run, want 0 of 14",
				eng.SegmentIters(), eng.InteriorIters())
		}
	})
}
