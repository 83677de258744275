package forall

import (
	"fmt"

	"kali/internal/comm"
	"kali/internal/darray"
	"kali/internal/machine"
)

// Env mode: the same body runs under three regimes.
const (
	// modeInspect: the recording pass.  Reads are classified and
	// logged, writes are suppressed, arithmetic is free (the paper's
	// inspector "only checks whether references ... are local").
	modeInspect = iota
	// modeExecLocal: executor local loop — every declared read is
	// known local, accesses go straight to local storage.
	modeExecLocal
	// modeExecNonlocal: executor nonlocal loop — every read tests
	// locality and finds a remote element in the communication buffer
	// (the paper's "locality test ... is necessary because even within
	// the same iteration the reference may be sometimes local and
	// sometimes nonlocal").
	modeExecNonlocal
)

// Env is the loop body's window onto the global name space.  The body
// must perform reads of potentially-nonlocal distributed elements
// through Read/ReadAt (declared in Loop.Reads), reads the compiler
// could prove local/aligned through the *Local and *Int accessors, and
// all writes through Write/WriteAt.
type Env struct {
	mode  int
	node  *machine.Node
	core  *loopCore
	sched *Schedule

	arrays []*darray.Array // distinct read arrays, schedule slot order
	rec    *recording      // inspect mode only
	// pos[k] is slot k's cursor into the plan's refStream in the
	// nonlocal loop, which seek places at each run and iteration.  An
	// Env over a plan without streams, and the reference executor's,
	// has none, and searches every read.
	pos []int32

	iterNonlocal bool
	writes       []write
	// spanRefused lists the arrays WriteSpan1/WriteSpan2 has refused a
	// span of during this execution.  Refusal is sticky: once some
	// stores to an array go to the write log, a later direct store to
	// the same element would be overwritten by the earlier, logged one
	// at commit.
	spanRefused []*darray.Array

	// Saltz-style enumeration (Loop.Enumerate / Loop2.Enumerate):
	// during inspection, enumRecord collects every reference of the
	// current iteration (Buf holds the owner, or -1 when local; rank-2
	// references are recorded by their row-major linearized index);
	// during execution, enumList/enumPos replay the resolved
	// references in order.
	enumRecord []enumRef
	enumList   []enumRef
	enumPos    int
}

// write is one entry of the write log: v, bound for offset off of a's
// local storage (darray's LocalValues), which Write and Write2 resolve
// through the node's locality window, or the checked offset past it.
type write struct {
	a   *darray.Array
	off int
	v   float64
}

// reset prepares the engine's pooled Env for one execution of loop c's
// local iterations, with arrays bound to the schedule's slots.  The
// writes slice keeps its backing storage so a cached replay allocates
// nothing; commit leaves it empty, a body that panicked may not have.
func (e *Env) reset(eng *Engine, c *loopCore, s *Schedule, arrays []*darray.Array) {
	e.mode = modeExecLocal
	e.node = eng.node
	e.core = c
	e.sched = s
	e.arrays = arrays
	e.rec = nil
	e.iterNonlocal = false
	e.writes = e.writes[:0]
	e.spanRefused = e.spanRefused[:0]
	e.enumRecord = e.enumRecord[:0]
	e.enumList = nil
	e.enumPos = 0
	// Only a plan with reference streams gets cursors, so on any other
	// seek and replayed do nothing.
	e.pos = e.pos[:0]
	if len(s.slots) > 0 && s.slots[0].ref.starts != nil {
		for range s.slots {
			e.pos = append(e.pos, 0)
		}
	}
}

// seek places every slot's stream cursor at the first remote read of
// nonlocal iteration it of s.
func (e *Env) seek(s *Schedule, it int) {
	for k := range e.pos {
		e.pos[k] = s.slots[k].ref.starts[it]
	}
}

// replayed reads element g of a, which is not in the node's locality
// window, from the receive buffer at the offset its slot's refStream
// holds at the cursor, when the entry there is g, and passes the entry;
// it charges what Read charges a remote element, the search and the
// memory reference.  ok false leaves the read, uncharged, to the
// search.
func (e *Env) replayed(a *darray.Array, g int) (v float64, ok bool) {
	for k, p := range e.pos {
		if e.arrays[k] != a {
			continue
		}
		refs := e.sched.slots[k].ref.refs
		if int(p) >= len(refs) || refs[p].g != g {
			return 0, false
		}
		e.pos[k] = p + 1
		e.node.ChargeSearch(e.sched.slots[k].in.NumRanges())
		e.node.ChargeMemRefs(1)
		return e.sched.bufs[k][refs[p].off], true
	}
	return 0, false
}

// BeginIter starts the next iteration of the run a Loop.Inspect body
// is recording, as the engine starts each iteration it records through
// Body: it files the previous one and charges the loop iteration.
func (e *Env) BeginIter() {
	r := e.rec
	if len(r.run) == 0 {
		panic(fmt.Sprintf("forall %s: Inspect body began more iterations than its run holds", e.core.name))
	}
	e.beginIter(r.run[0])
	r.run = r.run[1:]
}

// beginIter files the recording pass's open iteration and opens it.
func (e *Env) beginIter(it iteration) {
	e.endIter()
	e.node.ChargeLoopIter()
	e.iterNonlocal = false
	if e.core.enumerate {
		e.enumRecord = e.enumRecord[:0]
	}
	e.rec.iter, e.rec.open = it, true
}

// endIter files the recording pass's open iteration, if there is one:
// to the plan's interior if it read nothing remote, else to its
// nonlocal list, with where its reads begin in each stream or, under
// Enumerate, its full reference list.
func (e *Env) endIter() {
	r := e.rec
	if !r.open {
		return
	}
	r.open = false
	if !e.iterNonlocal {
		r.p.execLocal = appendIter(r.p.execLocal, e.core.rank, r.iter)
		return
	}
	r.nonlocal = append(r.nonlocal, r.iter)
	if e.core.enumerate {
		// Saltz-style: keep the full per-reference list for this
		// iteration; list construction costs one insert per
		// reference ("relatively high" preprocessing, §5).
		refs := make([]enumRef, len(e.enumRecord))
		copy(refs, e.enumRecord)
		r.p.enum = append(r.p.enum, refs)
		e.node.Charge(machine.Cost{ListInserts: len(refs)})
		return
	}
	for k := range r.slots {
		sr := &r.slots[k]
		sr.starts = append(sr.starts, int32(len(sr.refs)))
	}
}

// commit stores the buffered writes — the copy-out half of forall's
// copy-in/copy-out semantics — one store per entry, at the storage
// offset Write resolved.
func (e *Env) commit() {
	for _, w := range e.writes {
		w.a.LocalValues()[w.off] = w.v
	}
	e.writes = e.writes[:0]
}

func (e *Env) slotOf(a *darray.Array) int {
	for k, arr := range e.arrays {
		if arr == a {
			return k
		}
	}
	panic(fmt.Sprintf("forall %s: Read of array %q not declared in Loop.Reads", e.core.name, a.Name()))
}

// Read fetches element g (linearized global index; plain index for
// 1-D arrays) of a distributed array declared in Loop.Reads.  It is
// the potentially-nonlocal access path.
func (e *Env) Read(a *darray.Array, g int) float64 {
	switch e.mode {
	case modeInspect:
		e.node.ChargeRefCheck()
		v, local := a.LocalLinear(g)
		owner := -1
		if !local {
			if owner = a.OwnerLinear(g); owner == -1 || owner == e.node.ID() {
				v, local = a.GetLinear(g), true
			}
		}
		if local {
			if e.core.enumerate {
				e.enumRecord = append(e.enumRecord, enumRef{Slot: e.slotOf(a), G: g, Buf: -1})
			}
			return v
		}
		e.iterNonlocal = true
		k := e.slotOf(a)
		sr := &e.rec.slots[k]
		id, added := sr.b.Add(g, owner)
		if e.core.enumerate {
			e.enumRecord = append(e.enumRecord, enumRef{Slot: k, G: g, Buf: id})
		} else {
			sr.refs = append(sr.refs, remoteRef{g: g, off: int32(id)})
		}
		if added {
			e.node.ChargeListInsert()
		}
		return 0 // value unused by a well-formed inspector pass

	case modeExecLocal:
		e.node.ChargeMemRefs(1)
		if v, ok := a.LocalLinear(g); ok {
			return v
		}
		return a.GetLinear(g)

	default: // modeExecNonlocal
		if e.core.enumerate {
			// Saltz-style replay: no locality test, no search — one list
			// lookup plus the data access.
			if e.enumPos >= len(e.enumList) {
				panic(fmt.Sprintf("forall %s: body made more reads than enumerated", e.core.name))
			}
			ref := e.enumList[e.enumPos]
			e.enumPos++
			if e.arrays[ref.Slot] != a || ref.G != g {
				panic(fmt.Sprintf("forall %s: body reference sequence diverged from inspection (%s[%d] vs slot %d[%d])",
					e.core.name, a.Name(), g, ref.Slot, ref.G))
			}
			e.node.ChargeMemRefs(2)
			if ref.Buf == -1 {
				return a.GetLinear(g)
			}
			return e.sched.bufs[ref.Slot][ref.Buf]
		}
		e.node.ChargeLocTest()
		if v, ok := a.LocalLinear(g); ok {
			e.node.ChargeMemRefs(1)
			return v
		}
		if v, ok := e.replayed(a, g); ok {
			return v
		}
		owner := a.OwnerLinear(g)
		if owner == -1 || owner == e.node.ID() {
			e.node.ChargeMemRefs(1)
			return a.GetLinear(g)
		}
		k := e.slotOf(a)
		in := e.sched.slots[k].in
		e.node.ChargeSearch(in.NumRanges())
		slot, ok := in.Find(owner, g)
		if !ok {
			panic(e.unscheduled(a, g))
		}
		e.node.ChargeMemRefs(1)
		return e.sched.bufs[k][slot]
	}
}

// ReadAt is Read for multi-dimensional arrays, addressed by
// coordinates.
func (e *Env) ReadAt(a *darray.Array, coord ...int) float64 {
	return e.Read(a, a.Linear(coord...))
}

// Read2 is Read for rank-2 arrays, addressed by coordinates.  The
// charge sequence is identical to Read of the linearized index — same
// clocks, same stats — but the executor-mode paths test locality and
// compute the local offset directly from the coordinates, skipping the
// linearize/delinearize round trip.
func (e *Env) Read2(a *darray.Array, i, j int) float64 {
	switch e.mode {
	case modeExecLocal:
		e.node.ChargeMemRefs(1)
		return a.Get2(i, j)

	case modeExecNonlocal:
		if e.core.enumerate {
			return e.Read(a, a.Linear(i, j))
		}
		e.node.ChargeLocTest()
		if a.IsLocal2(i, j) {
			e.node.ChargeMemRefs(1)
			return a.Get2(i, j)
		}
		// IsLocal2 validated the coordinates, so Linear2 is safe.
		g := a.Linear2(i, j)
		if v, ok := e.replayed(a, g); ok {
			return v
		}
		k := e.slotOf(a)
		in := e.sched.slots[k].in
		e.node.ChargeSearch(in.NumRanges())
		slot, ok := in.Find(a.OwnerLinear(g), g)
		if !ok {
			panic(e.unscheduled(a, g))
		}
		e.node.ChargeMemRefs(1)
		return e.sched.bufs[k][slot]

	default: // modeInspect — cold path, charges handled by Read
		return e.Read(a, a.Linear(i, j))
	}
}

// ReadSpan1 is the load side of a Loop.Segment body for the reads it
// would make through Read: the values of a[lo..hi] (linearized global
// indices), element x at index x-lo, or nil when the run must be read
// element by element.  checks says what Read charges for each element
// ahead of its memory reference, for a caller that holds the clock
// (machine.Node.ClockCell): nothing (0), a locality test (1), or a
// locality test and then a range search, which costs search (2).
//
// In the executor's local loop the view is the local storage (darray's
// Span1), with no checks.  In the nonlocal loop every read tests
// locality first, and a view is one of two things: the local storage,
// when the whole run is in the node's locality window; or a run of the
// receive buffer, when the array's in set holds the whole run from one
// peer in consecutive buffer slots (comm.InSet.FindRun), and then the
// search follows the test.  A run that is partly local, comes from two
// peers or leaves the array is nil, as is every run under Enumerate or
// the recording pass.  The view aliases local storage or the receive
// buffer, neither of which changes before the commit.
func (e *Env) ReadSpan1(a *darray.Array, lo, hi int) (v []float64, checks int, search float64) {
	if v = a.Span1(lo, hi); e.mode == modeExecLocal {
		return v, 0, 0
	}
	return e.boundarySpan(a, v, lo, hi, 1 <= lo && lo <= hi && hi <= a.Size())
}

// ReadSpan2 is ReadSpan1 for the reads a Loop2.Segment body would make
// through Read2: row i, columns jLo..jHi, element j at index j-jLo.
func (e *Env) ReadSpan2(a *darray.Array, i, jLo, jHi int) (v []float64, checks int, search float64) {
	if v = a.Span2(i, jLo, jHi); e.mode == modeExecLocal {
		return v, 0, 0
	}
	inside := a.Rank() == 2 && 1 <= i && i <= a.Extent(0) && 1 <= jLo && jLo <= jHi && jHi <= a.Extent(1)
	g := 0
	if inside {
		g = a.Linear2(i, jLo)
	}
	return e.boundarySpan(a, v, g, g+jHi-jLo, inside)
}

// boundarySpan is ReadSpan1 and ReadSpan2 in the nonlocal loop, past
// their coordinates: local is the run's local storage, if the node's
// window holds all of it, and g0..g1 are its linear indices, inside the
// array if inside.
func (e *Env) boundarySpan(a *darray.Array, local []float64, g0, g1 int, inside bool) (v []float64, checks int, search float64) {
	switch {
	case e.mode != modeExecNonlocal || e.core.enumerate || !inside:
		return nil, 0, 0
	case local != nil:
		return local, 1, 0
	}
	for k, arr := range e.arrays {
		if arr != a {
			continue
		}
		in := e.sched.slots[k].in
		if off, ok := in.FindRun(g0, g1); ok {
			return e.sched.bufs[k][off : off+g1-g0+1], 2, e.node.SearchCost(in.NumRanges())
		}
	}
	return nil, 0, 0
}

// Nonlocal reports whether the body is running in the executor's
// nonlocal loop, where a Segment body is offered the boundary's runs.
func (e *Env) Nonlocal() bool { return e.mode == modeExecNonlocal }

// Gather is the load side of a Loop.Segment body for a rank-1 read
// whose subscripts are data — the paper's old_a[adj[i,j]] — where no
// run of the read is a span.  Env.Gather resolves the array's slot,
// receive buffer, reference stream and search price once; At then
// reads one element as Read would, and charges nothing, for a caller
// that holds the clock (machine.Node.ClockCell).  What Read charges
// ahead of the memory reference is the caller's to add: nothing in the
// executor's local loop; in the nonlocal loop a locality test
// (Tested), and after it Search when At reports the element remote.
type Gather struct {
	// Tested says every read tests locality first (the nonlocal loop).
	Tested bool
	// Search is the price of the in-set search a remote read adds after
	// its test (machine.Node.SearchCost).
	Search float64

	e   *Env
	a   *darray.Array
	in  *comm.InSet
	buf []float64
	// refs is the slot's refStream and pos the handle's cursor in it,
	// from the Env's at Env.Gather; an Env without cursors leaves refs
	// nil, and every remote read searches.
	refs []remoteRef
	pos  int
}

// Gather returns the handle on a for the executor's current loop, or ok
// false where a Segment body must leave the reads to Read: under the
// recording pass, and in the nonlocal loop for an array not declared in
// Loop.Reads.  (The nonlocal loop offers no runs under Enumerate.)
func (e *Env) Gather(a *darray.Array) (g Gather, ok bool) {
	switch e.mode {
	case modeExecLocal:
		return Gather{e: e, a: a}, true
	case modeInspect:
		return Gather{}, false
	}
	for k, arr := range e.arrays {
		if arr == a {
			sl := &e.sched.slots[k]
			g = Gather{Tested: true, Search: e.node.SearchCost(sl.in.NumRanges()), e: e, a: a, in: sl.in, buf: e.sched.bufs[k]}
			if k < len(e.pos) {
				g.refs, g.pos = sl.ref.refs, int(e.pos[k])
			}
			return g, true
		}
	}
	return Gather{}, false
}

// At returns element x (linearized global index) and whether it came
// from the receive buffer, panicking where Read would.  A remote
// element is read at the offset the reference stream's next entry
// gives, when that entry is x, and is searched for otherwise.
func (g *Gather) At(x int) (v float64, remote bool) {
	if v, ok := g.a.LocalLinear(x); ok {
		return v, false
	}
	if !g.Tested {
		return g.a.GetLinear(x), false
	}
	if p := g.pos; p < len(g.refs) && g.refs[p].g == x {
		g.pos = p + 1
		return g.buf[g.refs[p].off], true
	}
	owner := g.a.OwnerLinear(x)
	if owner == -1 || owner == g.e.node.ID() {
		return g.a.GetLinear(x), false
	}
	off, ok := g.in.Find(owner, x)
	if !ok {
		panic(g.e.unscheduled(g.a, x))
	}
	return g.buf[off], true
}

// unscheduled is the panic text for a remote element g of a that the
// loop's in set does not hold.
func (e *Env) unscheduled(a *darray.Array, g int) string {
	return fmt.Sprintf("forall %s: element %s[%d] not in communication schedule — body references changed since inspection (add the driving array to DependsOn)",
		e.core.name, a.Name(), g)
}

// ReadLocal fetches element i of a 1-D array through an access the
// compiler proved local (subscript aligned with the on clause, or
// replicated array).  It panics if the element is in fact nonlocal —
// that is a program bug, not a run-time condition.
func (e *Env) ReadLocal(a *darray.Array, i int) float64 {
	if e.mode != modeInspect {
		e.node.ChargeMemRefs(1)
	}
	return a.Get1(i)
}

// ReadLocal2 is ReadLocal for rank-2 arrays.
func (e *Env) ReadLocal2(a *darray.Array, i, j int) float64 {
	if e.mode != modeInspect {
		e.node.ChargeMemRefs(1)
	}
	return a.Get2(i, j)
}

// ReadInt fetches element i of a 1-D integer array (always
// local/aligned — subscript arrays travel with their loop).
func (e *Env) ReadInt(a *darray.IntArray, i int) int {
	if e.mode != modeInspect {
		e.node.ChargeMemRefs(1)
	}
	return a.Get1(i)
}

// ReadInt2 is ReadInt for rank-2 arrays.
func (e *Env) ReadInt2(a *darray.IntArray, i, j int) int {
	if e.mode != modeInspect {
		e.node.ChargeMemRefs(1)
	}
	return a.Get2(i, j)
}

// Write stores v into element g (linearized global index) of a
// distributed array.  The on clause guarantees writes are local
// (owner-computes); Write panics otherwise.  Writes are buffered and
// committed when the loop completes — forall's copy-in/copy-out
// semantics: every read in the loop sees pre-loop values.
//
// An element in the node's locality window is its own proof of
// ownership; any other goes through the checks, and their panics.
func (e *Env) Write(a *darray.Array, g int, v float64) {
	if e.mode == modeInspect {
		// The inspector suppresses side effects; it also verifies the
		// owner-computes property early.
		e.ownerWrite(a, g)
		return
	}
	e.node.ChargeMemRefs(1)
	off, ok := a.WindowLinear(g)
	if !ok {
		e.ownerWrite(a, g)
		off = a.OffsetLinear(g)
	}
	e.writes = append(e.writes, write{a: a, off: off, v: v})
}

// ownerWrite panics unless this node owns element g of a, which is not
// replicated.
func (e *Env) ownerWrite(a *darray.Array, g int) {
	if a.Replicated() {
		panic(fmt.Sprintf("forall %s: write to replicated array %q", e.core.name, a.Name()))
	}
	if a.OwnerLinear(g) != e.node.ID() {
		panic(fmt.Sprintf("forall %s: non-owner write to %s[%d] on node %d",
			e.core.name, a.Name(), g, e.node.ID()))
	}
}

// WriteAt is Write addressed by coordinates.
func (e *Env) WriteAt(a *darray.Array, v float64, coord ...int) {
	e.Write(a, a.Linear(coord...), v)
}

// Write2 is Write for rank-2 arrays, addressed by coordinates, with
// the same charges and owner-computes checks but no linear-index
// arithmetic on the hot path.
func (e *Env) Write2(a *darray.Array, i, j int, v float64) {
	if e.mode == modeInspect {
		e.ownerWrite2(a, i, j)
		return
	}
	e.node.ChargeMemRefs(1)
	off, ok := a.Window2(i, j)
	if !ok {
		e.ownerWrite2(a, i, j)
		// ownerWrite2 validated the coordinates, so Linear2 is safe.
		off = a.OffsetLinear(a.Linear2(i, j))
	}
	e.writes = append(e.writes, write{a: a, off: off, v: v})
}

// ownerWrite2 is ownerWrite for element (i, j).
func (e *Env) ownerWrite2(a *darray.Array, i, j int) {
	if a.Replicated() {
		panic(fmt.Sprintf("forall %s: write to replicated array %q", e.core.name, a.Name()))
	}
	if !a.IsLocal2(i, j) {
		panic(fmt.Sprintf("forall %s: non-owner write to %s[%d,%d] on node %d",
			e.core.name, a.Name(), i, j, e.node.ID()))
	}
}

// WriteSpan1 is the store side of a Loop.Segment body: the local
// storage of a[lo..hi] to store into directly, element x at index
// x-lo, or nil when the stores must go through Write one by one.  A
// direct store skips the write log, so it is legal only where
// copy-in/copy-out cannot be observed and Write could not panic: the
// array is not among the loop's declared Reads, is not replicated, and
// the whole span is inside this node's local window (owner-computes,
// checked once per span instead of once per element).  What the engine
// cannot see is the caller's to guarantee: the body never reads a
// through any accessor, and within one segment its stores to a are
// all direct or all logged — a segment that is refused one span of a
// logs every store to a.  Across segments the Env keeps the order
// safe itself: after one refusal it refuses a for the rest of the
// execution, so a logged store is never followed by a direct one it
// would overwrite at commit.  The caller charges one memory reference
// per element stored, as Write does.  If the body panics mid-segment,
// elements already stored stay stored — in an array the failed run is
// about to discard.
func (e *Env) WriteSpan1(a *darray.Array, lo, hi int) []float64 {
	if !e.directStore(a) {
		return nil
	}
	return e.spanOrRefuse(a, a.Span1(lo, hi))
}

// WriteSpan2 is WriteSpan1 for row i, columns jLo..jHi, of a rank-2
// array.
func (e *Env) WriteSpan2(a *darray.Array, i, jLo, jHi int) []float64 {
	if !e.directStore(a) {
		return nil
	}
	return e.spanOrRefuse(a, a.Span2(i, jLo, jHi))
}

// directStore reports whether a segment's stores to a may bypass the
// write log: only in the executor's two loops, never for a replicated
// array (Write's panic must stand), never for a declared read, never
// after a refused span.  The nonlocal loop runs after the local one and
// before the commit, so a direct store there is no more observable than
// one in the interior: the body reads nothing it stores directly, no
// loop sends from an array that is not among its declared reads, and
// the refusal, kept across both loops, stops a direct store from
// overtaking a logged one.
func (e *Env) directStore(a *darray.Array) bool {
	if e.mode == modeInspect || a.Replicated() {
		return false
	}
	for _, r := range e.core.reads {
		if r.Array == a {
			return false
		}
	}
	for _, r := range e.spanRefused {
		if r == a {
			return false
		}
	}
	return true
}

// spanOrRefuse passes a resolved span through and makes a failed one
// (not wholly inside the local window) sticky.
func (e *Env) spanOrRefuse(a *darray.Array, v []float64) []float64 {
	if v == nil {
		e.spanRefused = append(e.spanRefused, a)
	}
	return v
}

// Flops charges k floating-point operations of body arithmetic.  Free
// during inspection (the recording pass skips the computation).
func (e *Env) Flops(k int) {
	if e.mode != modeInspect {
		e.node.ChargeFlops(k)
	}
}

// FlopsUnit charges k flops as k separate single-flop charges —
// observably identical to calling Flops(1) k times, which is how the
// language interpreter's tree walker charges per-operator costs.  The
// bytecode VM replays coalesced charge runs through it so compiled
// and walked bodies produce bit-identical virtual clocks.
func (e *Env) FlopsUnit(k int) {
	if e.mode != modeInspect {
		e.node.ChargeFlopsUnit(k)
	}
}

// Inspecting reports whether the body is running under the recording
// pass; bodies whose control flow would diverge on unavailable remote
// values can consult it (the paper requires reference patterns not to
// depend on remote data).
func (e *Env) Inspecting() bool { return e.mode == modeInspect }
