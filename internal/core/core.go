// Package core is the Kali runtime facade: it ties the simulated
// machine, processor grids, distributed arrays and the forall engine
// into a single programming context, and collects the per-phase timing
// report the paper's tables (§4, Figures 7–10) are built from.
//
// A Kali program is an SPMD function over a Context:
//
//	rep := core.Run(core.Config{P: 16, Params: machine.NCUBE7()},
//	    func(ctx *core.Context) {
//	        a := ctx.BlockArray("A", n)
//	        ctx.Forall(&forall.Loop{...})
//	    })
//
// Run executes the function on every simulated node and returns the
// aggregated Report.
package core

import (
	"fmt"

	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/machine/wallclock"
	"kali/internal/topology"
)

// Config describes the machine a program runs on.
type Config struct {
	// P is the number of processors.
	P int
	// Params is the machine cost model (machine.NCUBE7(), machine.IPSC2(),
	// machine.Ideal()).
	Params machine.Params
	// Backend selects the node runtime: "sim" (default — the
	// virtual-clock simulator, deterministic predicted times) or
	// "wall" (real threads and shared-memory queues, measured times).
	Backend string
	// Reference runs every forall through the reference executor
	// (forall.Engine.Reference: the paper's Figure 3 literally — per
	// loop, blocking sends, fixed-order drain, no fusion, no row
	// kernels, no pooled buffers) instead of the production wavefront;
	// `kalirun -ref` sets it.  The differential oracle: results, byte
	// and flop counts are identical either way; production sends
	// fewer-or-equal messages and its simulated clocks are no later.
	Reference bool
	// Machine, when non-nil, runs the program on this existing machine
	// (reset first) instead of building a fresh one — the schedule
	// server's pool-reuse path.  It is honored only when its processor
	// count equals P; otherwise a fresh machine is built from the rest
	// of the config (the language front end may elaborate to fewer
	// processors than a pooled machine has).
	Machine *machine.Machine
	// Store, when non-nil, is the content-addressed schedule store the
	// run's engines share (forall.Engine.Store): concurrently running
	// programs adopt each other's compile-time schedules, and persisted
	// schedule plans make warm starts skip building entirely.  Left
	// nil, each engine creates a private store of its own.
	Store *forall.SharedStore
}

// NewMachine builds the machine cfg describes, choosing the backend
// by name ("", "sim" → simulator; "wall", "wallclock" → real
// threads).
func NewMachine(cfg Config) (*machine.Machine, error) {
	switch cfg.Backend {
	case "", "sim":
		return sim.New(cfg.P, cfg.Params)
	case "wall", "wallclock":
		return wallclock.New(cfg.P, cfg.Params)
	default:
		return nil, fmt.Errorf("core: unknown backend %q (want sim or wall)", cfg.Backend)
	}
}

// Context is one node's view of a running Kali program.
type Context struct {
	Node *machine.Node
	Eng  *forall.Engine
	Grid *topology.Grid
}

// P returns the processor count.
func (c *Context) P() int { return c.Node.P() }

// ID returns this node's processor id.
func (c *Context) ID() int { return c.Node.ID() }

// BlockArray declares a 1-D block-distributed real array[1..n].
func (c *Context) BlockArray(name string, n int) *darray.Array {
	return darray.New(name, dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, c.Grid), c.Node)
}

// CyclicArray declares a 1-D cyclically distributed real array[1..n].
func (c *Context) CyclicArray(name string, n int) *darray.Array {
	return darray.New(name, dist.Must([]int{n}, []dist.DimSpec{dist.CyclicDim()}, c.Grid), c.Node)
}

// Array declares an array with an explicit shape and dist clause.
func (c *Context) Array(name string, shape []int, specs []dist.DimSpec) *darray.Array {
	return darray.New(name, dist.Must(shape, specs, c.Grid), c.Node)
}

// ReplicatedArray declares an array without a dist clause: one copy
// per node.
func (c *Context) ReplicatedArray(name string, shape ...int) *darray.Array {
	return darray.New(name, dist.NewReplicated(shape, c.Grid), c.Node)
}

// IntArray declares an integer array with an explicit dist clause.
func (c *Context) IntArray(name string, shape []int, specs []dist.DimSpec) *darray.IntArray {
	return darray.NewInt(name, dist.Must(shape, specs, c.Grid), c.Node)
}

// BlockIntArray declares a 1-D block-distributed integer array.
func (c *Context) BlockIntArray(name string, n int) *darray.IntArray {
	return darray.NewInt(name, dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, c.Grid), c.Node)
}

// Forall executes a rank-1 forall loop (Engine.Run: the cache →
// compile-time → inspector pipeline).
func (c *Context) Forall(l *forall.Loop) { c.Eng.Run(l) }

// Forall2 executes a two-dimensional forall loop (Engine.Run2).
func (c *Context) Forall2(l *forall.Loop2) { c.Eng.Run2(l) }

// ForallSeq executes a sequence of forall loops through the engine's
// cross-loop aggregation pipeline (Engine.RunSequence): consecutive
// loops whose reads are untouched by the preceding loops' writes merge
// their per-pair messages into one fused send posted up front, and
// execution pipelines without inter-loop barriers.  Semantically
// identical to running the loops one by one.
func (c *Context) ForallSeq(seq []forall.SeqLoop) { c.Eng.RunSequence(seq) }

// AllReduce combines one value from every node ("sum", "max", "min",
// "and") — Kali's convergence-test primitive.
func (c *Context) AllReduce(x float64, op string) float64 {
	return c.Node.AllReduce(x, op)
}

// Barrier synchronizes all nodes.
func (c *Context) Barrier() { c.Node.Barrier() }

// Report aggregates a program run: virtual times in seconds, maxima
// over all processors, as the paper reports them.  It is the
// sanctioned reader of machine.Stats and the engines' counters, plain
// ints that Run reads only after Machine.Run has returned.
type Report struct {
	P       int
	Machine string
	// Backend names the node runtime the numbers came from: "sim"
	// times are cost-model predictions, "wall" times are measured.
	Backend string

	// Total is exec+inspector, matching the paper's "total time"
	// column (its measured regions were exactly those two phases;
	// redistribution time is reported separately in Redist).
	Total float64
	// Inspector is the max accumulated inspector-phase time.
	Inspector float64
	// Executor is the max accumulated executor-phase time.
	Executor float64
	// Redist is the max accumulated redistribution-phase time
	// (darray.PhaseRedistribute): the cost of dynamic remappings.
	Redist float64
	// Elapsed is the full simulated wall time including setup,
	// reductions and barriers.
	Elapsed float64

	MsgsSent  int
	BytesSent int
	// RedistMsgs/RedistBytes are the subset of MsgsSent/BytesSent moved
	// by array redistribution (machine.TagRedist), attributed distinctly
	// from forall traffic.
	RedistMsgs  int
	RedistBytes int
	// FusedMsgs/FusedBytes are the subset moved as cross-loop aggregated
	// messages (machine.TagFused): each fused message replaces several
	// per-loop messages to the same peer.
	FusedMsgs  int
	FusedBytes int

	// SchedEvictions counts forall schedules dropped from the engines'
	// private stores (summed over nodes; 0 under cfg.Store, whose
	// evictions its Stats report, as Server.Stats().Store); PlanEvictions
	// counts redistribution plans dropped from the machine's bounded
	// plan store.  Nonzero values mean the working set exceeded the
	// cache bounds and some replays are paying rebuild cost.
	SchedEvictions int
	PlanEvictions  int

	// Builds counts forall schedules constructed from scratch (summed
	// over nodes); SharedHits counts schedules adopted from the
	// content-addressed store instead of built, whether another loop of
	// the program built the plan or, under cfg.Store, another tenant or
	// the store's disk directory supplied it.
	Builds     int
	SharedHits int

	// InteriorIters counts the interior (all-local) forall iterations
	// executed, summed over nodes; SegmentIters the subset a loop's
	// Segment body ran a row segment at a time (forall.Loop.Segment) —
	// the bytecode VM's kernel for .kali programs — rather than per
	// element through Body.
	InteriorIters int
	SegmentIters  int
	// BoundaryIters and BoundarySegmentIters are the same two counts of
	// the nonlocal (boundary) iterations, which a Segment body is offered
	// as runs of consecutive columns.
	BoundaryIters        int
	BoundarySegmentIters int
	// InspectSegmentIters counts the iterations of inspector recording
	// passes that a loop's Inspect body recorded a run at a time
	// (forall.Loop.Inspect) rather than Body per element.
	InspectSegmentIters int
}

// OverheadPct returns the paper's "inspector overhead" column:
// inspector time as a percentage of total time.
func (r Report) OverheadPct() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * r.Inspector / r.Total
}

func (r Report) String() string {
	return fmt.Sprintf("%s P=%d total=%.2fs exec=%.2fs insp=%.2fs (%.1f%%)",
		r.Machine, r.P, r.Total, r.Executor, r.Inspector, r.OverheadPct())
}

// Run executes prog as an SPMD program on a fresh P-node machine
// (cfg.Backend selects the runtime), or on cfg.Machine reset, and
// returns the timing report.
func Run(cfg Config, prog func(ctx *Context)) Report {
	m := cfg.Machine
	if m == nil || m.P() != cfg.P {
		var err error
		m, err = NewMachine(cfg)
		if err != nil {
			panic(err)
		}
	}
	m.Reset()
	grid := topology.MustGrid(m.P())
	engines := make([]*forall.Engine, m.P())
	reference, store := cfg.Reference, cfg.Store // copied so the closure does not move cfg to the heap
	m.Run(func(n *machine.Node) {
		eng := forall.NewEngine(n)
		eng.Reference = reference
		eng.Store = store
		ctx := &Context{
			Node: n,
			Eng:  eng,
			Grid: grid,
		}
		engines[n.ID()] = ctx.Eng
		prog(ctx)
	})
	rep := Report{
		P:         m.P(),
		Machine:   m.Params().Name,
		Backend:   m.Backend(),
		Inspector: m.MaxPhase(forall.PhaseInspector),
		Executor:  m.MaxPhase(forall.PhaseExecutor),
		Redist:    m.MaxPhase(darray.PhaseRedistribute),
		Elapsed:   m.MaxClock(),
	}
	rep.Total = rep.Inspector + rep.Executor
	for i := 0; i < m.P(); i++ {
		st := m.Node(i).Stats()
		rep.MsgsSent += st.MsgsSent
		rep.BytesSent += st.BytesSent
		rep.RedistMsgs += st.RedistMsgsSent
		rep.RedistBytes += st.RedistBytesSent
		rep.FusedMsgs += st.FusedMsgsSent
		rep.FusedBytes += st.FusedBytesSent
	}
	for _, e := range engines {
		if e != nil {
			rep.SchedEvictions += e.SharedEvictions()
			rep.Builds += e.Builds()
			rep.SharedHits += e.SharedHits()
			rep.InteriorIters += e.InteriorIters()
			rep.SegmentIters += e.SegmentIters()
			rep.BoundaryIters += e.BoundaryIters()
			rep.BoundarySegmentIters += e.BoundarySegmentIters()
			rep.InspectSegmentIters += e.InspectSegmentIters()
		}
	}
	rep.PlanEvictions = darray.PlanEvictions(m)
	return rep
}
