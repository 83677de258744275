package forall

import (
	"fmt"
	"slices"

	"kali/internal/comm"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
)

// The production executor.  Every loop executes here, through
// runWindow: Run and Run2 as a sequence of one, RunSequence as the
// fusion windows it finds.
//
// Cross-loop message aggregation is the paper's §3.2 message-combining
// lifted across consecutive foralls.  Within one loop the executor
// already coalesces all arrays' data for one destination into a single
// message; RunSequence extends the same argument across a *sequence*
// of loops: consecutive foralls whose declared reads are untouched by
// the preceding loops' writes form a fusion window, and the window
// posts every member loop's per-pair message — now a *section* of one
// logical fused message — before the first loop's interior compute.
// Execution then pipelines as a wavefront: each loop's boundary pass
// starts as soon as its own sections drain (WaitAny completion order),
// with no inter-loop barrier and no re-posting.
//
// The wire format is deliberately conservative: section k's payload is
// bit-identical to the combined message loop k sends on its own, and
// it travels under its own tag (machine.FusedTag(k)), so the receive
// side matches sections unambiguously and unpacks them the same way.
// Only *when* traffic moves changes — contents, byte counts and
// per-section receive charges are identical — which is what makes
// fused simulated clocks provably no worse than per-loop ones (see
// machine.Node.ISend) and the per-loop reference executor
// (reference.go, Engine.Reference) an exact differential oracle.
//
// Legality: loop l joins the window only if none of its declared read
// arrays was written by an earlier window loop, because its sections
// are packed from array contents at window start.  Everything else —
// execution order, aligned ReadLocal accesses, per-loop copy-in/
// copy-out commits — stays in program order, so a loop reading *and*
// writing the same array (a smooth) fuses fine within its own slot;
// only a later loop reading that array breaks the window.  As with
// schedule caching, reference patterns driven by array *contents* must
// declare DependsOn; writing a pattern-driving array inside a window
// is outside the contract, exactly as replaying a stale cached
// schedule would be.

// SeqLoop is one element of a loop sequence: exactly one of L and L2
// must be set.  Writes declares every distributed array the loop's
// body writes; the fusion planner uses it to find window boundaries,
// so an omitted write array can fuse a loop with a stale reader.
type SeqLoop struct {
	L      *Loop
	L2     *Loop2
	Writes []*darray.Array
}

// fusedPlanCap bounds the per-engine store of multi-loop window plans.
// Plans are pure functions of their component schedules, so eviction
// is only a rebuild cost; the counter makes thrashing visible.
const fusedPlanCap = 32

// windowPlan is the precomputed drain/send layout of one window,
// flattened loop-major so warm replay walks slices and allocates
// nothing.  The plan of a single loop is built with its Schedule and
// lives on it; a multi-loop plan is keyed (and verified) by the
// component schedules in the engine's bounded store: a rebuilt or
// redistributed schedule has a new identity, so a stale plan can never
// replay.
type windowPlan struct {
	// fused marks a window of two or more loops, whose sections travel
	// under the fused tags and count in the Fused* stats; a single
	// loop's combined messages are plain TagData traffic.  scheds is
	// the store's verification tuple (fused plans only).
	fused  bool
	scheds []*Schedule

	// Receive side: one entry per (window loop k, sending peer),
	// loop-major; loop k's entries occupy [reqStart[k], reqStart[k+1]).
	// firsts marks each peer's first section — the only one counted as
	// a received message — and remain counts down each loop's
	// outstanding sections per window execution.
	reqs     []machine.Request
	done     []bool
	firsts   []bool
	loopOf   []int
	reqStart []int
	remain   []int

	// Send side: sendFirst parallels the loop-major (loop, sendTo peer)
	// posting order; a peer's first section pays the message startup,
	// continuations only extend the wire transfer.
	sendFirst []bool
}

// poolTotals counts the traffic of every machine's payload pool.
var poolTotals comm.BufPool

type poolKey struct{}

// poolOf returns m's payload pool, kept in the machine's Scratch: the
// sending node's engine takes a buffer and the receiving node's
// returns it, so one machine's engines share a pool and no other
// machine or tenant contends for it.
func poolOf(m *machine.Machine) *comm.BufPool {
	return m.Scratch(poolKey{}, func() any { return &comm.BufPool{Totals: &poolTotals} }).(*comm.BufPool)
}

// PayloadPoolStats returns the process-wide totals over every
// machine's payload pool, MachinePoolStats one machine's counters;
// both are safe mid-execution.
func PayloadPoolStats() comm.PoolStats                   { return poolTotals.Stats() }
func MachinePoolStats(m *machine.Machine) comm.PoolStats { return poolOf(m).Stats() }

// fusedKeyOf fingerprints the window's schedule tuple by the engine-
// assigned schedule ids.
func fusedKeyOf(scheds []*Schedule) uint64 {
	h := dist.FingerprintSeed
	h = mixInt(h, len(scheds))
	for _, s := range scheds {
		h = dist.MixFingerprint(h, s.sid)
	}
	return h
}

// buildWindowPlan lays out the window's sections.  A cold path, but
// one that runs with every schedule build, and a server tenant's whole
// run is a handful of builds (the tenants table gates allocs/run): the
// index slices are cut from one backing array and the flag slices from
// another, and a loop that communicates with nobody has no sections to
// allocate for.
func (e *Engine) buildWindowPlan(scheds []*Schedule) *windowPlan {
	n, nReq, nSend := len(scheds), 0, 0
	for _, s := range scheds {
		nReq += len(s.recvFrom)
		nSend += len(s.sendTo)
	}
	p := &windowPlan{fused: n > 1, reqs: make([]machine.Request, nReq)}
	ints := make([]int, 2*n+1+nReq)
	p.reqStart, p.remain, p.loopOf = ints[:n+1], ints[n+1:2*n+1], ints[2*n+1:]
	flags := make([]bool, 2*nReq+nSend)
	p.done, p.firsts, p.sendFirst = flags[:nReq], flags[nReq:2*nReq], flags[2*nReq:]
	if p.fused {
		p.scheds = append([]*Schedule(nil), scheds...)
	}
	// A peer's first section in the window is the only one that counts
	// as a message; in a window of one every section is.
	seenSend, seenRecv := map[int]bool{}, map[int]bool{}
	sizes := make([]int, 0, 16)
	ri, si := 0, 0
	for k, s := range scheds {
		tag := machine.TagData
		if p.fused {
			tag = machine.FusedTag(k)
		}
		p.reqStart[k] = ri
		for _, pc := range s.recvFrom {
			p.reqs[ri] = machine.Request{From: pc.q, Tag: tag}
			p.firsts[ri], p.loopOf[ri] = !seenRecv[pc.q], k
			seenRecv[pc.q] = true
			ri++
		}
		for _, pc := range s.sendTo {
			p.sendFirst[si] = !seenSend[pc.q]
			seenSend[pc.q] = true
			sizes = append(sizes, pc.n)
			si++
		}
	}
	p.reqStart[n] = ri
	e.pool.Reserve(e.node.ID(), sizes)
	return p
}

// planFor returns the window's plan: a single loop's from its schedule
// — a V-cycle replays more distinct single loops than the bounded store
// holds, and would thrash it — a multi-loop window's from the store,
// building on miss (or on a hash collision, which the pointer check
// downgrades to a miss).
func (e *Engine) planFor(scheds []*Schedule) *windowPlan {
	if len(scheds) == 1 {
		return scheds[0].window
	}
	key := fusedKeyOf(scheds)
	if p, ok := e.fusedPlans.Get(key); ok && slices.Equal(p.scheds, scheds) {
		return p
	}
	p := e.buildWindowPlan(scheds)
	e.fusedPlans.Put(key, p)
	return p
}

// RunSequence executes consecutive forall loops, aggregating messages
// across fusion windows.  It is semantically identical to calling
// Run/Run2 on each element in order.  Fusion windows are determined
// from declared reads and writes only, so every node partitions the
// sequence identically and schedule builds (which may involve
// collectives) stay aligned.
func (e *Engine) RunSequence(seq []SeqLoop) {
	if len(seq) == 0 {
		return
	}
	for i := range seq {
		if (seq[i].L == nil) == (seq[i].L2 == nil) {
			panic("forall: SeqLoop needs exactly one of L and L2")
		}
	}
	// The replay scratch (and the Env the bodies run against) exists
	// once per engine, so a loop body may not start another loop on it;
	// the language rejects nested foralls, and the library says so
	// rather than corrupt the running loop's state.
	if e.inRun {
		panic(fmt.Sprintf("forall %s: Run from inside a running forall body (nested foralls are not supported)", seq[0].name()))
	}
	e.inRun = true
	defer func() { e.inRun = false }() // the engine survives a panicking body
	if cap(e.seqCores) < len(seq) {
		e.seqCores = make([]loopCore, len(seq))
	}
	cores := e.seqCores[:len(seq)]
	for i := range seq {
		if l := seq[i].L; l != nil {
			e.validate(l)
			l.lower(&cores[i])
		} else {
			e.validate2(seq[i].L2)
			seq[i].L2.lower(&cores[i])
		}
	}
	for i := 0; i < len(seq); {
		j := e.windowEnd(seq, cores, i)
		e.runWindow(cores[i:j])
		i = j
	}
}

// name returns the element's loop name.
func (sl SeqLoop) name() string {
	if sl.L != nil {
		return sl.L.Name
	}
	return sl.L2.Name
}

// windowEnd returns the greedy fusion window starting at loop i: loops
// join until one's declared reads meet the accumulated writes of the
// window so far (its sections could not be packed at window start), or
// the fused-tag range would overflow.
func (e *Engine) windowEnd(seq []SeqLoop, cores []loopCore, i int) int {
	w := append(e.seqWrites[:0], seq[i].Writes...)
	j := i + 1
	for j < len(seq) && j-i < machine.MaxFusedLoops {
		if readsAnyOf(&cores[j], w) {
			break
		}
		w = append(w, seq[j].Writes...)
		j++
	}
	e.seqWrites = w
	return j
}

// readsAnyOf reports whether any of the core's declared read arrays is
// in w.
func readsAnyOf(c *loopCore, w []*darray.Array) bool {
	for _, r := range c.reads {
		for _, a := range w {
			if a == r.Array {
				return true
			}
		}
	}
	return false
}

// runWindow executes one window of n ≥ 1 loops: acquire every loop's
// schedule, post all loops' sections loop-major, then run the loops in
// program order, each draining only its own sections before its
// boundary pass.  The schedules are structural; each loop's own arrays
// are bound to its slots here, in the same first-appearance order
// assembleSlots used, so a schedule executes correctly against
// whichever loop of its name runs it.  Warm replay (all schedules
// cached, plan cached) allocates nothing: the Env, write log, peer
// lists, pending-receive slots, receive buffers and message payloads
// are all reused.
func (e *Engine) runWindow(cores []loopCore) {
	if e.Reference {
		for k := range cores {
			e.runReference(&cores[k])
		}
		return
	}
	scheds := e.seqScheds[:0]
	for k := range cores {
		scheds = append(scheds, e.schedule(&cores[k]))
	}
	e.seqScheds = scheds
	plan := e.planFor(scheds)
	if plan.fused {
		e.fusedWindows++
	}
	// Clear the drain state of the last execution (or of a window a
	// panicking body aborted).
	clear(plan.done)
	for k := range plan.remain {
		plan.remain[k] = plan.reqStart[k+1] - plan.reqStart[k]
	}

	slots := e.seqSlots
	for len(slots) < len(cores) {
		slots = append(slots, nil)
	}
	e.seqSlots = slots
	for k := range cores {
		slots[k] = appendDistinct(slots[k][:0], cores[k].reads)
	}

	// Post every loop's sections before the first loop's interior
	// compute, under its phase: the aggregated send of the window.  A
	// single loop is timed under one span — posting included, as Figure
	// 3 is one executor — and a fused window under a posting span plus
	// one span per loop; the two are not interchangeable, because phase
	// times are float sums and (t1-t0)+(t2-t1) need not equal t2-t0.
	ph0 := phaseOf(&cores[0])
	e.node.StartPhase(ph0)
	e.postSections(plan, scheds)
	if plan.fused {
		e.node.StopPhase(ph0)
	}

	env := &e.envBuf
	for k := range cores {
		c, s := &cores[k], scheds[k]
		ph := phaseOf(c)
		if plan.fused {
			e.node.StartPhase(ph)
		}
		env.reset(e, c, s, slots[k])
		e.runInterior(c, s, env) // posted sends are in flight
		e.drainSections(plan, cores, scheds, k)
		e.runBoundary(c, s, env)
		env.commit()
		e.node.StopPhase(ph)
	}
}

// postSections packs and posts every window loop's sections in loop-major
// order into pooled payloads, so the first loop's sections enter the
// network interface at exactly the clocks it would post them on its
// own, and later loops' sections follow immediately on the same
// timeline instead of waiting out the intervening compute.
func (e *Engine) postSections(p *windowPlan, scheds []*Schedule) {
	si := 0
	for k, s := range scheds {
		tag := machine.TagData
		if p.fused {
			tag = machine.FusedTag(k)
		}
		for _, pc := range s.sendTo {
			pb := e.pool.Get(pc.n)
			off := packCombined(s, e.seqSlots[k], pc.q, pb.Vals)
			e.node.ISend(pc.q, tag, pb, 8*off, p.sendFirst[si])
			si++
		}
	}
}

// drainSections completes loop k's sections before its boundary pass and
// returns their payloads to the pool.  Completion order is the
// transport's (slice order on the simulator, physical arrival order on
// wall-clock backends); a section of a later loop that completes first
// is unpacked into that loop's schedule at once.  Its buffers are read
// only by that loop's boundary pass, still to come, so loop k's buffers
// change only during its own drain — unless one loop runs twice in the
// window and so both hold one Schedule (TestFusedWindowRepeatsOneLoop).
// Then both sections carry the same values: both were packed at window
// start, and the window admits no loop whose reads an earlier loop
// writes.
func (e *Engine) drainSections(p *windowPlan, cores []loopCore, scheds []*Schedule, k int) {
	for p.remain[k] > 0 {
		i, msg := e.node.WaitAny(p.reqs, p.done, p.firsts)
		p.done[i] = true
		j := p.loopOf[i]
		p.remain[j]--
		e.unpackPooled(&cores[j], scheds[j], msg)
	}
}

// unpackPooled scatters one received section into the schedule's
// buffers and recycles its payload.
func (e *Engine) unpackPooled(c *loopCore, s *Schedule, msg machine.Message) {
	pb := msg.Payload.(*comm.Payload)
	unpackCombined(c, s, msg.From, pb.Vals)
	e.pool.Put(pb)
}
