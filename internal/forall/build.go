package forall

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"kali/internal/analysis"
	"kali/internal/comm"
	"kali/internal/crystal"
	"kali/internal/darray"
	"kali/internal/index"
	"kali/internal/machine"
)

// buildCompileTime derives the schedule from closed-form set algebra
// (paper §3.1/[3], lifted per dimension for rank-2 loops): no
// inspector pass, no global exchange.  Both ends of every transfer
// compute the same sets independently, so the send and receive
// schedules agree by construction.
func (e *Engine) buildCompileTime(c *loopCore) *plan {
	if c.rank == 1 {
		return e.buildCompileTime1(c)
	}
	return e.buildCompileTime2(c)
}

// buildCompileTime1 is the rank-1 closed-form path.
func (e *Engine) buildCompileTime1(c *loopCore) *plan {
	me := e.node.ID()
	onPat := c.on.Dist().Pattern(0)

	reads := make([]analysis.Read, len(c.reads))
	for i, r := range c.reads {
		reads[i] = analysis.Read{Pat: r.Array.Dist().Pattern(r.Dim), G: *r.Affine}
	}
	sets := analysis.Compute(onPat, c.onF, c.bounds[0], c.bounds[1], reads, me)
	widenLines(c, sets.In)
	widenLines(c, sets.Out)
	// Symbolic evaluation: a handful of closed-form evaluations.
	e.node.Charge(machine.Cost{Calls: 2 + len(c.reads)})

	p := &plan{kind: BuildCompileTime}
	for _, iv := range sets.ExecLocal.Intervals() {
		p.execLocal = append(p.execLocal, segment{lo: iv.Lo, hi: iv.Hi})
	}
	sets.ExecNonlocal.Each(func(i int) { p.execNonlocal = append(p.execNonlocal, iteration{i: i}) })
	p.slots = e.assembleSlots(c, sets.In, sets.Out)
	return p
}

// widenLines turns the sets of lines each rank-2 read of a rank-1 loop
// exchanges into sets of elements: the other dimension is collapsed, so
// a line moves whole.
func widenLines(c *loopCore, byRead []map[int]index.Set) {
	for k, r := range c.reads {
		if r.Array.Rank() != 2 {
			continue
		}
		rows, cols := index.Range(1, r.Array.Extent(0)), index.Range(1, r.Array.Extent(1))
		for q, lines := range byRead[k] {
			if r.Dim == 0 {
				byRead[k][q] = index.Linearize2(lines, cols, r.Array.Extent(1))
			} else {
				byRead[k][q] = index.Linearize2(rows, lines, r.Array.Extent(1))
			}
		}
	}
}

// buildCompileTime2 is the rank-2 closed-form path: the exec and
// execLocal rectangles and the per-peer element rectangles all come
// from the per-dimension interval algebra.  The interior rectangle is
// emitted a row segment at a time without enumerating it; only the
// boundary iterations are listed one by one (both in loop order,
// matching the inspector).
func (e *Engine) buildCompileTime2(c *loopCore) *plan {
	me := e.node.ID()
	d := c.on.Dist()
	onI, onJ := d.Pattern(0), d.Pattern(1)

	reads := make([]analysis.Read2, len(c.reads))
	for i, r := range c.reads {
		rd := r.Array.Dist()
		reads[i] = analysis.Read2{
			PatI: rd.Pattern(0), PatJ: rd.Pattern(1),
			G:     *r.Affine2,
			Width: r.Array.Shape()[1],
		}
	}
	sets := analysis.Compute2(onI, onJ, c.onF2,
		c.bounds[0], c.bounds[1], c.bounds[2], c.bounds[3], reads, me)
	e.node.Charge(machine.Cost{Calls: 2 + len(c.reads)})

	p := &plan{kind: BuildCompileTime}
	// Walk the exec rectangle's rows; iterations outside the execLocal
	// rectangle are nonlocal (some read leaves this node).
	localCols := sets.ExecCols.Intersect(sets.LocalCols).Intervals()
	edgeCols := sets.ExecCols.Minus(sets.LocalCols)
	sets.ExecRows.Each(func(i int) {
		cols := sets.ExecCols
		if sets.LocalRows.Contains(i) {
			for _, iv := range localCols {
				p.execLocal = append(p.execLocal, segment{i: i, lo: iv.Lo, hi: iv.Hi})
			}
			cols = edgeCols
		}
		cols.Each(func(j int) {
			p.execNonlocal = append(p.execNonlocal, iteration{i: i, j: j})
		})
	})
	p.slots = e.assembleSlots(c, sets.In, sets.Out)
	return p
}

// assembleSlots unions the per-read in/out element sets of each
// distinct array and lowers them onto comm records, one structural
// slot per distinct array (the executor re-binds arrays to slots in
// the same first-appearance order).
func (e *Engine) assembleSlots(c *loopCore, in, out []map[int]index.Set) []slot {
	me := e.node.ID()
	var slots []slot
	for _, arr := range distinctArrays(c) {
		inByQ := map[int]index.Set{}
		outByQ := map[int]index.Set{}
		for k, r := range c.reads {
			if r.Array != arr {
				continue
			}
			for q, set := range in[k] {
				inByQ[q] = inByQ[q].Union(set)
			}
			for q, set := range out[k] {
				outByQ[q] = outByQ[q].Union(set)
			}
		}
		slots = append(slots, slot{in: inSetFromSets(me, inByQ), out: outSetFromSets(me, outByQ)})
	}
	return slots
}

// inSetFromSets builds a receive schedule from per-sender index sets.
func inSetFromSets(me int, byQ map[int]index.Set) *comm.InSet {
	var ranges []comm.Range
	off := 0
	for _, q := range slices.Sorted(maps.Keys(byQ)) {
		for _, iv := range byQ[q].Intervals() {
			r := comm.Range{FromProc: q, ToProc: me, Low: iv.Lo, High: iv.Hi, Buf: off}
			off += r.Len()
			ranges = append(ranges, r)
		}
	}
	return comm.NewInSet(ranges, off)
}

// outSetFromSets builds a send schedule from per-receiver index sets.
func outSetFromSets(me int, byQ map[int]index.Set) *comm.OutSet {
	var recs []comm.Range
	for q, set := range byQ {
		for _, iv := range set.Intervals() {
			recs = append(recs, comm.Range{FromProc: me, ToProc: q, Low: iv.Lo, High: iv.Hi})
		}
	}
	return comm.BuildOut(me, recs)
}

// finish completes a plan whose iteration lists and slots are set:
// the interior's iteration count, and every communication partner and
// message size combined across slots (sendTo/recvFrom: one coalesced
// message per processor pair), so the replay hot path never walks maps
// or allocates peer lists.  It runs once per plan, when the plan is
// built or loaded from disk.
func (p *plan) finish() {
	p.nLocal = segIters(p.execLocal)
	sendAll := map[int]int{}
	recvAll := map[int]int{}
	for _, sl := range p.slots {
		for _, q := range sl.out.Receivers() {
			sendAll[q] += sl.out.CountTo(q)
		}
		for _, q := range sl.in.Senders() {
			recvAll[q] += sl.in.CountFrom(q)
		}
	}
	p.sendTo = peersOf(sendAll)
	p.recvFrom = peersOf(recvAll)
}

func peersOf(byQ map[int]int) []peerCount {
	out := make([]peerCount, 0, len(byQ))
	for q, n := range byQ {
		out = append(out, peerCount{q, n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].q < out[j].q })
	return out
}

// routedRecs is the crystal-router payload: the in-records of array
// slot k whose home is the destination node.
type routedRecs struct {
	slot int
	recs []comm.Range
}

// inspectIters appends this node's iterations in loop order to out,
// for the recording pass, charging the placement cost (closed-form for
// on clauses, a per-iteration scan for OnProc).
func (e *Engine) inspectIters(c *loopCore, out []iteration) []iteration {
	me := e.node.ID()
	if c.rank == 1 {
		lo, hi := c.bounds[0], c.bounds[1]
		if c.onProc != nil {
			// Run-time placement scan: evaluate the on expression for
			// every iteration in range.
			for i := lo; i <= hi; i++ {
				e.node.ChargeLoopIter()
				if c.onProc(i) == me {
					out = append(out, iteration{i: i})
				}
			}
			return out
		}
		set := analysis.Exec(c.on.Dist().Pattern(0), c.onF, lo, hi, me)
		// Symbolic evaluation cost: one call's worth.
		e.node.Charge(machine.Cost{Calls: 1})
		set.Each(func(i int) { out = append(out, iteration{i: i}) })
		return out
	}
	// Rank 2: the exec rectangle is the cross product of the
	// per-dimension on-clause preimages of the local sets, clipped to
	// the loop bounds (block/cyclic distributions are separable by
	// construction; the affine on-clause preimage of an interval is
	// still an interval).
	d := c.on.Dist()
	rows, cols := analysis.Exec2(d.Pattern(0), d.Pattern(1), c.onF2,
		c.bounds[0], c.bounds[1], c.bounds[2], c.bounds[3], me)
	e.node.Charge(machine.Cost{Calls: 1})
	rows.Each(func(i int) {
		cols.Each(func(j int) {
			out = append(out, iteration{i: i, j: j})
		})
	})
	return out
}

// recording is one inspector build's working memory: per slot the in
// set's builder and the reference stream in the making, the iteration
// lists, and the iteration the recording pass has open.  The plan keeps
// exact-size copies of what it needs, so all of it is dead once the
// plan exists, and builds take it from recordings and give it back
// warm: a build grows only what no earlier one grew.
type recording struct {
	p        *plan
	slots    []slotRecording
	exec     []iteration // the node's iterations, in loop order
	nonlocal []iteration // the plan's execNonlocal
	run      []iteration // what a Loop.Inspect body has yet to begin of its run
	iter     iteration   // the open iteration, if open
	open     bool
}

// slotRecording is what a recording keeps for one slot: the in set's
// builder, and the refStream, whose offsets hold insertion ids.
type slotRecording struct {
	b      comm.Builder
	refs   []remoteRef
	starts []int32
}

// recordings is the process-wide pool of recordings.  It holds about
// as many as there are builds in flight, and sync.Pool drops what lies
// unused through two collections.
var recordings = sync.Pool{New: func() any { return new(recording) }}

// reset readies r for building p on node me with n slots.
func (r *recording) reset(p *plan, me, n int) {
	r.p, r.open = p, false
	r.slots = slices.Grow(r.slots[:0], n)[:n] // keeps the slots past len
	for k := range r.slots {
		sr := &r.slots[k]
		sr.b.Reset(me)
		sr.refs, sr.starts = sr.refs[:0], append(sr.starts[:0], 0)
	}
	r.exec, r.nonlocal = r.exec[:0], r.nonlocal[:0]
}

// exact returns a copy of s in memory of its own and of its length
// (nil when s is empty).
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// buildInspector performs the paper's run-time analysis (Figure 6) for
// loops of either rank: a recording pass over the loop body classifies
// every iteration and collects the in sets; a Crystal-router exchange
// then delivers each record to its home processor, whose received
// records form its out set.  The pass also keeps, per slot, the
// insertion id of every remote read, which the finished in set turns
// into the buffer offsets the executor replays (refStream), or, under
// Enumerate, into the resolved reference lists.
func (e *Engine) buildInspector(c *loopCore) *plan {
	rec := recordings.Get().(*recording)
	p := e.inspect(c, rec)
	recordings.Put(rec)
	return p
}

// inspect is buildInspector in the working memory rec.
func (e *Engine) inspect(c *loopCore, rec *recording) *plan {
	me := e.node.ID()
	arrays := distinctArrays(c)
	p := &plan{kind: BuildInspector}
	rec.reset(p, me, len(arrays))
	rec.exec = e.inspectIters(c, rec.exec)
	env := &Env{mode: modeInspect, node: e.node, core: c, arrays: arrays, rec: rec}

	// Recording pass: run the body with an inspecting Env.  A read is
	// recorded only where it makes its iteration nonlocal, so a local
	// iteration leaves the streams as it found them.  A loop with an
	// Inspect body is offered its runs of consecutive iterations.
	byRuns := c.rank == 1 && c.l1.Inspect != nil && !c.enumerate
	for k := 0; k < len(rec.exec); {
		end := k + 1
		if byRuns {
			end = runEnd(rec.exec, k, c.rank)
		}
		if run := rec.exec[k:end]; !byRuns || !e.recordRun(c, run, env) {
			for _, it := range run {
				env.beginIter(it)
				c.run(it, env)
			}
		}
		k = end
	}
	env.endIter()
	p.execNonlocal = exact(rec.nonlocal)

	// Finalize in sets, resolve the recorded insertion ids to buffer
	// offsets, and ship each record to its home processor.  A parcel's
	// records alias the in set's, which no one writes again: the
	// receiver copies them out.
	var parcels []crystal.Parcel
	for k := range rec.slots {
		sr := &rec.slots[k]
		in, offs := sr.b.FinalizeOffsets()
		sl := slot{in: in}
		if c.enumerate {
			for _, refs := range p.enum {
				for r := range refs {
					if ref := &refs[r]; ref.Slot == k && ref.Buf != -1 {
						ref.Buf = int(offs[ref.Buf]) // Buf held the insertion id
					}
				}
			}
		} else {
			refs := make([]remoteRef, len(sr.refs))
			for i, r := range sr.refs {
				refs[i] = remoteRef{g: r.g, off: offs[r.off]} // off held the insertion id
			}
			sl.ref = refStream{refs: refs, starts: exact(sr.starts)}
		}
		p.slots = append(p.slots, sl)
		for _, q := range in.Senders() {
			recs := in.RangesFrom(q)
			parcels = append(parcels, crystal.Parcel{
				Dest:  q,
				Data:  routedRecs{slot: k, recs: recs},
				Bytes: recBytes * len(recs),
			})
		}
	}
	rec.p = nil // the pool must not keep the plan alive

	received := e.exchange(parcels)

	// Assemble out sets from the records that arrived for each slot.
	counts := make([]int, len(arrays))
	for _, pc := range received {
		rr := pc.Data.(routedRecs)
		if rr.slot < 0 || rr.slot >= len(arrays) {
			panic(fmt.Sprintf("forall %s: routed records for unknown slot %d", c.name, rr.slot))
		}
		counts[rr.slot] += len(rr.recs)
	}
	bySlot := make([][]comm.Range, len(arrays))
	for k, n := range counts {
		bySlot[k] = make([]comm.Range, 0, n)
	}
	for _, pc := range received {
		// Records arrive as the *receiver's* in-records: FromProc is us.
		rr := pc.Data.(routedRecs)
		bySlot[rr.slot] = append(bySlot[rr.slot], rr.recs...)
	}
	for k := range p.slots {
		p.slots[k].out = comm.BuildOut(me, bySlot[k])
	}
	return p
}

// exchange routes parcels to their destinations: via the Crystal
// router on power-of-two machines (the paper's method), or by a direct
// all-to-all on other sizes.  Every node must call exchange exactly
// once per schedule build.
func (e *Engine) exchange(parcels []crystal.Parcel) []crystal.Parcel {
	p := e.node.P()
	if p == 1 {
		return parcels
	}
	if p&(p-1) == 0 {
		return crystal.RouteSorted(e.node, parcels, func(a, b crystal.Parcel) bool {
			ra, rb := a.Data.(routedRecs), b.Data.(routedRecs)
			if ra.slot != rb.slot {
				return ra.slot < rb.slot
			}
			if len(ra.recs) == 0 || len(rb.recs) == 0 {
				return len(ra.recs) < len(rb.recs)
			}
			if ra.recs[0].ToProc != rb.recs[0].ToProc {
				return ra.recs[0].ToProc < rb.recs[0].ToProc
			}
			return ra.recs[0].Low < rb.recs[0].Low
		})
	}
	// Direct all-to-all fallback: one (possibly empty) message to every
	// peer, so receive counts are static.
	me := e.node.ID()
	byDest := make([][]crystal.Parcel, p)
	for _, pc := range parcels {
		if pc.Dest == me {
			byDest[me] = append(byDest[me], pc)
			continue
		}
		byDest[pc.Dest] = append(byDest[pc.Dest], pc)
	}
	var out []crystal.Parcel
	out = append(out, byDest[me]...)
	for q := 0; q < p; q++ {
		if q == me {
			continue
		}
		bytes := 8
		for _, pc := range byDest[q] {
			bytes += pc.Bytes
		}
		e.node.Send(q, machine.TagCrystal, byDest[q], bytes)
	}
	for q := 0; q < p; q++ {
		if q == me {
			continue
		}
		msg := e.node.Recv(q, machine.TagCrystal)
		if got, ok := msg.Payload.([]crystal.Parcel); ok {
			out = append(out, got...)
		}
	}
	return out
}

// runInterior runs the local iterations (Figure 3's local loop) of a
// loop whose Env is in modeExecLocal: each interior segment is offered
// whole to the loop's Segment body, and runs through Body per element
// when there is none or it declines.
func (e *Engine) runInterior(c *loopCore, s *Schedule, env *Env) {
	e.interiorIters += s.nLocal
	for _, sg := range s.execLocal {
		if c.runSegment(sg, env) {
			e.segmentIters += sg.hi - sg.lo + 1
		} else {
			e.runPerElement(c, sg, env)
		}
	}
}

// runPerElement runs one interior segment through Body, an iteration
// at a time.
func (e *Engine) runPerElement(c *loopCore, sg segment, env *Env) {
	if c.rank == 1 {
		for i := sg.lo; i <= sg.hi; i++ {
			e.node.ChargeLoopIter()
			c.l1.Body(i, env)
		}
		return
	}
	for j := sg.lo; j <= sg.hi; j++ {
		e.node.ChargeLoopIter()
		c.l2.Body(sg.i, j, env)
	}
}

// runBoundary runs the nonlocal iterations (Figure 3's nonlocal loop)
// after the loop's receives have drained.  The list is cut on the fly
// into maximal runs of consecutive iterations — consecutive columns of
// one row at rank 2 — and each run is offered whole to the loop's
// Segment body, with the Env in the nonlocal mode, where every read
// tests locality and finds a remote element in the receive buffer, and
// with the Env's stream cursors at the run's first read; a run it
// declines, and every run of a loop with no Segment body or an
// enumerated schedule, goes through Body an iteration at a time.
func (e *Engine) runBoundary(c *loopCore, s *Schedule, env *Env) {
	env.mode = modeExecNonlocal
	its := s.execNonlocal
	e.boundaryIters += len(its)
	if c.enumerate || !c.hasSegment() {
		e.runNonlocal(c, s, 0, len(its), env)
		return
	}
	for k := 0; k < len(its); {
		end := runEnd(its, k, c.rank)
		row, lo := its[k].rowCol(c.rank)
		env.seek(s, k)
		if c.runSegment(segment{i: row, lo: lo, hi: lo + end - k - 1}, env) {
			e.boundarySegIters += end - k
		} else {
			e.runNonlocal(c, s, k, end, env)
		}
		k = end
	}
}

// runEnd returns the end of the maximal run of consecutive iterations
// that starts at its[k]: consecutive columns of one row at rank 2.
func runEnd(its []iteration, k, rank int) int {
	row, lo := its[k].rowCol(rank)
	end := k + 1
	for ; end < len(its); end++ {
		if r, x := its[end].rowCol(rank); r != row || x != lo+end-k {
			break
		}
	}
	return end
}

// recordRun offers run, consecutive iterations of the recording pass,
// to the loop's Inspect body; false means it declined, before it began
// any of them.
func (e *Engine) recordRun(c *loopCore, run []iteration, env *Env) bool {
	env.rec.run = run
	ok := c.l1.Inspect(run[0].i, run[len(run)-1].i, env)
	if left := len(env.rec.run); ok && left != 0 || !ok && left != len(run) {
		panic(fmt.Sprintf("forall %s: Inspect body began %d of iterations %d..%d and returned %v",
			c.name, len(run)-left, run[0].i, run[len(run)-1].i, ok))
	}
	if ok {
		e.inspectSegIters += len(run)
	}
	return ok
}

// runNonlocal runs nonlocal iterations from..to-1 through Body, one at
// a time, each with the Env's stream cursors at its first read.
func (e *Engine) runNonlocal(c *loopCore, s *Schedule, from, to int, env *Env) {
	for k := from; k < to; k++ {
		e.node.ChargeLoopIter()
		if c.enumerate {
			env.enumList = s.enum[k]
			env.enumPos = 0
		}
		env.seek(s, k)
		c.run(s.execNonlocal[k], env)
	}
}

// packCombined gathers everything slot-bound arrays owe peer q into
// vals — per-Range bulk copies from local storage, all arrays' data for
// the one destination in a single combined message (the paper's
// message-combining) — and returns the element count.  The per-byte
// message charge (paid at both ends by the transport) covers the
// pack/unpack copies.
func packCombined(s *Schedule, arrays []*darray.Array, q int, vals []float64) int {
	off := 0
	for k, sl := range s.slots {
		arr := arrays[k]
		for _, r := range sl.out.RangesTo(q) {
			arr.CopyLinearRange(r.Low, r.High, vals[off:off+r.Len()])
			off += r.Len()
		}
	}
	return off
}

// unpackCombined scatters one combined message from peer q into every
// slot's receive buffer, one bulk copy per record; senders write
// disjoint buffer regions, so completion order cannot change results.
func unpackCombined(c *loopCore, s *Schedule, q int, vals []float64) {
	off := 0
	for k, sl := range s.slots {
		n := sl.in.CountFrom(q)
		if n == 0 {
			continue
		}
		sl.in.Unpack(q, vals[off:off+n], s.bufs[k])
		off += n
	}
	if off != len(vals) {
		panic(fmt.Sprintf("forall %s: combined message from %d has %d values, schedules expect %d",
			c.name, q, len(vals), off))
	}
}
