package forall

import (
	"kali/internal/comm"
	"kali/internal/machine"
)

// The reference executor: the paper's Figure 3 as printed, one loop at
// a time, selected by Engine.Reference.
//
//	send all messages        blocking; the wire time is the sender's
//	run the local iterations every one through Body
//	receive all messages     blocking, peers in ascending order
//	run the nonlocal iterations
//
// followed by the copy-out commit.  It is the oracle every equivalence
// matrix and fuzzer holds the production executor (fuse.go) against,
// so it shares with production only what is not under test — schedule
// acquisition, the per-range pack/unpack copies, the per-element
// nonlocal loop and the commit — and none of what is: no nonblocking
// sends or completion-order drain, no cross-loop windows or plans, no
// row kernels in either loop, no replay of the inspector's reference
// streams (its Env has no cursors, so every remote read searches the in
// set), no recycled Env, write log or message buffers.  A bug in any
// of those shows up as production ≠ reference.
//
// The traffic is the paper's: one combined message per communicating
// processor pair per loop (§3.2), bit-identical in content to the
// section production sends for the same loop.  Message and byte counts
// therefore equal a production run whose windows all hold one loop; a
// fused window moves the same bytes in fewer envelopes, and production
// clocks can only be earlier.

// runReference executes one lowered loop.
func (e *Engine) runReference(c *loopCore) {
	s := e.schedule(c)
	ph := phaseOf(c)
	e.node.StartPhase(ph)
	env := &Env{
		mode: modeExecLocal, node: e.node, core: c, sched: s,
		arrays: distinctArrays(c),
	}

	for _, pc := range s.sendTo {
		pb := &comm.Payload{Vals: make([]float64, pc.n)}
		n := packCombined(s, env.arrays, pc.q, pb.Vals)
		e.node.Send(pc.q, machine.TagData, pb, 8*n)
	}

	e.interiorIters += s.nLocal
	for _, sg := range s.execLocal {
		e.runPerElement(c, sg, env)
	}

	for _, pc := range s.recvFrom {
		msg := e.node.Recv(pc.q, machine.TagData)
		unpackCombined(c, s, pc.q, msg.Payload.(*comm.Payload).Vals)
	}

	env.mode = modeExecNonlocal
	e.boundaryIters += len(s.execNonlocal)
	e.runNonlocal(c, s, 0, len(s.execNonlocal), env)
	env.commit()
	e.node.StopPhase(ph)
}
