package forall

import (
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
)

// Cross-loop message aggregation (the paper's §3.2 message-combining
// lifted across consecutive foralls).  Within one loop the executor
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
// bit-identical to the combined message loop k would send unfused, and
// it travels under its own tag (machine.FusedTag(k)), so the receive
// side matches sections unambiguously and unpacks with the same
// unpackCombined the unfused path uses.  Only *when* traffic moves
// changes — contents, byte counts and per-section receive charges are
// identical — which is what makes fused simulated clocks provably no
// worse than unfused ones (see machine.FusedSender) and the unfused
// executor an exact differential oracle behind Engine.NoFuse.
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

// fusedPlanCap bounds the per-engine fused-plan store.  Plans are pure
// functions of their component schedules, so eviction is only a
// rebuild cost; the counter makes thrashing visible.
const fusedPlanCap = 32

// fusedPlan is the precomputed drain/send layout of one fusion window,
// flattened loop-major so warm replay walks slices and allocates
// nothing.  It is keyed (and verified) by the component schedules: a
// rebuilt or redistributed schedule has a new identity, so a stale
// plan can never replay.
type fusedPlan struct {
	scheds []*Schedule

	// Receive side: one entry per (window loop k, sending peer),
	// loop-major; loop k's entries occupy [reqStart[k], reqStart[k+1]).
	// firsts marks each peer's first section — the only one counted as
	// a received message.  pending stashes sections that physically
	// complete before their loop's drain (wall-clock backends), and
	// remain counts down each loop's outstanding sections per window
	// execution.
	reqs       []machine.Request
	done       []bool
	firsts     []bool
	loopOf     []int
	reqStart   []int
	pending    []machine.Message
	remain     []int
	remainInit []int

	// Send side: sendFirst parallels the loop-major (loop, sendTo peer)
	// posting order; a peer's first section pays the message startup,
	// continuations only extend the wire transfer.
	sendFirst []bool
}

// matches verifies a cached plan against the window's schedules
// pointer-wise, guarding against sid-hash collisions.
func (p *fusedPlan) matches(scheds []*Schedule) bool {
	if len(p.scheds) != len(scheds) {
		return false
	}
	for i, s := range scheds {
		if p.scheds[i] != s {
			return false
		}
	}
	return true
}

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

// buildFusedPlan lays out the window's sections (cold path).
func buildFusedPlan(scheds []*Schedule) *fusedPlan {
	p := &fusedPlan{scheds: append([]*Schedule(nil), scheds...)}
	seenSend := map[int]bool{}
	seenRecv := map[int]bool{}
	p.reqStart = make([]int, len(scheds)+1)
	for k, s := range scheds {
		p.reqStart[k] = len(p.reqs)
		for _, pc := range s.recvFrom {
			p.reqs = append(p.reqs, machine.Request{From: pc.q, Tag: machine.FusedTag(k)})
			p.firsts = append(p.firsts, !seenRecv[pc.q])
			p.loopOf = append(p.loopOf, k)
			seenRecv[pc.q] = true
		}
		p.remainInit = append(p.remainInit, len(s.recvFrom))
		for _, pc := range s.sendTo {
			p.sendFirst = append(p.sendFirst, !seenSend[pc.q])
			seenSend[pc.q] = true
		}
	}
	p.reqStart[len(scheds)] = len(p.reqs)
	p.done = make([]bool, len(p.reqs))
	p.pending = make([]machine.Message, len(p.reqs))
	p.remain = make([]int, len(scheds))
	return p
}

// fusedPlanFor returns the window's plan from the engine's bounded
// store, building on miss (or on a hash collision, which the pointer
// check downgrades to a miss).
func (e *Engine) fusedPlanFor(scheds []*Schedule) *fusedPlan {
	key := fusedKeyOf(scheds)
	if p, ok := e.fusedPlans.Get(key); ok && p.matches(scheds) {
		return p
	}
	p := buildFusedPlan(scheds)
	e.fusedPlans.Put(key, p)
	return p
}

// RunSequence executes consecutive forall loops, aggregating messages
// across fusion windows.  It is semantically identical to calling
// Run/Run2 on each element in order — and degrades to exactly that
// under NoFuse, NoOverlap or NoCombine (the differential oracles), for
// single-loop sequences, and for nested calls from inside a loop body.
// Fusion windows are determined from declared reads and writes only,
// so every node partitions the sequence identically and schedule
// builds (which may involve collectives) stay aligned.
func (e *Engine) RunSequence(seq []SeqLoop) {
	for i := range seq {
		if (seq[i].L == nil) == (seq[i].L2 == nil) {
			panic("forall: SeqLoop needs exactly one of L and L2")
		}
	}
	if e.NoFuse || e.NoOverlap || e.NoCombine || e.inRun || len(seq) < 2 {
		for i := range seq {
			if l := seq[i].L; l != nil {
				e.Run(l)
			} else {
				e.Run2(seq[i].L2)
			}
		}
		return
	}
	e.inRun = true
	defer func() { e.inRun = false }()

	cores := e.seqCores
	if cap(cores) < len(seq) {
		cores = make([]loopCore, len(seq))
	} else {
		cores = cores[:len(seq)]
	}
	e.seqCores = cores
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
		if j-i < 2 {
			e.runCore(&cores[i], &e.envBuf)
			i++
			continue
		}
		e.runWindow(cores[i:j])
		i = j
	}
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

// runWindow executes one fusion window: acquire every loop's schedule,
// post all loops' sections loop-major, then run the loops in program
// order, each draining only its own sections before its boundary pass.
// Warm replay (all schedules cached, plan cached) allocates nothing.
func (e *Engine) runWindow(cores []loopCore) {
	n := len(cores)
	scheds := e.seqScheds[:0]
	for k := range cores {
		scheds = append(scheds, e.schedule(&cores[k]))
	}
	e.seqScheds = scheds

	plan := e.fusedPlanFor(scheds)
	e.fusedWindows++

	// Bind each loop's distinct read arrays to its schedule's slots
	// (appendDistinct order, as bindArrays does for single loops).
	slots := e.seqSlots
	for len(slots) < n {
		slots = append(slots, nil)
	}
	e.seqSlots = slots
	for k := range cores {
		slots[k] = appendDistinct(slots[k][:0], cores[k].reads)
	}

	for i := range plan.done {
		plan.done[i] = false
		plan.pending[i] = machine.Message{}
	}
	copy(plan.remain, plan.remainInit)

	// Post every loop's sections before the first loop's interior
	// compute, under its phase: the aggregated send of the window.
	ph0 := phaseOf(&cores[0])
	e.node.StartPhase(ph0)
	e.postFusedSends(plan)
	e.node.StopPhase(ph0)

	env := &e.envBuf
	for k := range cores {
		c := &cores[k]
		s := plan.scheds[k]
		ph := phaseOf(c)
		e.node.StartPhase(ph)
		env.reset(e, c, s, modeExecLocal)
		bindArrays(env, c)
		e.runInterior(c, s, env)
		e.drainFused(plan, cores, k)
		e.runBoundary(c, s, env)
		env.commit()
		e.node.StopPhase(ph)
	}
}

// postFusedSends packs and posts every window loop's sections in
// loop-major order, so the first loop's sections enter the network
// interface at exactly the clocks the unfused executor would post
// them, and later loops' sections follow immediately on the same
// timeline instead of waiting out the intervening compute.
func (e *Engine) postFusedSends(p *fusedPlan) {
	si := 0
	for k, s := range p.scheds {
		slots := e.seqSlots[k]
		for _, pc := range s.sendTo {
			pb := payloadPool.Get(pc.n)
			off := 0
			for sl, as := range s.arrays {
				arr := slots[sl]
				for _, r := range as.out.RangesTo(pc.q) {
					arr.CopyLinearRange(r.Low, r.High, pb.Vals[off:off+r.Len()])
					off += r.Len()
				}
			}
			e.node.ISendFused(pc.q, machine.FusedTag(k), pb, 8*off, p.sendFirst[si])
			si++
		}
	}
}

// drainFused completes loop k's sections before its boundary pass.
// Completion order is the transport's (slice order on the simulator,
// physical arrival order on wall-clock backends); a section that
// outruns its loop is stashed and unpacked only when its loop drains,
// because window loops may share one Schedule — and therefore one set
// of receive buffers — which an early unpack would overwrite before
// the earlier loop's boundary pass reads it.
func (e *Engine) drainFused(p *fusedPlan, cores []loopCore, k int) {
	for i := p.reqStart[k]; i < p.reqStart[k+1]; i++ {
		if p.pending[i].Payload != nil {
			e.unpackCombined(&cores[k], p.scheds[k], p.reqs[i].From, p.pending[i])
			p.pending[i] = machine.Message{}
		}
	}
	for p.remain[k] > 0 {
		i, msg := e.node.WaitAnyFused(p.reqs, p.done, p.firsts)
		p.done[i] = true
		j := p.loopOf[i]
		p.remain[j]--
		if j == k {
			e.unpackCombined(&cores[k], p.scheds[k], p.reqs[i].From, msg)
		} else {
			p.pending[i] = msg
		}
	}
}
