package machine

// Params is the machine cost model: the virtual-time price of each
// primitive operation, in seconds.  Two presets reproduce the paper's
// evaluation hardware; the calibration follows.
//
// The presets were fitted analytically to the paper's own tables.  The
// published numbers decompose almost exactly into four constants per
// machine: a per-point update cost in the executor's local loop, an
// extra cost per nonlocal reference (locality test + search call +
// O(log r) probes), a per-reference inspector check cost, and a
// per-stage cost of the inspector's global combine (the Crystal-router
// phase).  For example, on the NCUBE/7 the paper's Figure 9 speedup
// column implies a one-processor executor time of ~287 µs per mesh
// point (471 s for 128²×100 sweeps), Figure 7's executor column is then
// matched within ~3% by a ~350 µs nonlocal-reference surcharge, and
// Figure 7's inspector column fits ~230 µs per inspected point (four
// reference checks plus loop overhead) plus ~0.19 s per combine stage
// (giving the paper's U-shape with the minimum at 16 processors).  The
// iPSC/2 columns fit ~72 µs per point, ~71 µs per nonlocal reference,
// ~40 µs per inspected point and ~5 ms per stage
// (monotone decreasing inspector, <1% overhead), matching the paper's
// explanation: cheaper small messages and faster procedure calls.
type Params struct {
	// Name identifies the preset in reports.
	Name string

	// Computation primitives.
	Flop     float64 // one floating-point operation
	MemRef   float64 // one indexed memory reference
	LoopIter float64 // per-iteration loop overhead
	Call     float64 // procedure call overhead

	// Inspector/executor primitives.
	RefCheck    float64 // inspector: classify one array reference as local/nonlocal
	LocTest     float64 // executor: locality if-test in the nonlocal loop
	SearchBase  float64 // executor: fixed cost of one nonlocal-element search
	SearchProbe float64 // executor: per-probe cost of the binary search
	ListInsert  float64 // inspector: append one record to a communication list

	// Communication.
	MsgStartup   float64 // message startup (α)
	MsgPerByte   float64 // per-byte cost (β), charged at both ends
	PerHop       float64 // per-link latency on the hypercube
	RecvOverhead float64 // fixed receive cost

	// CombineStage is the software overhead of one Crystal-router
	// stage in the inspector's global list exchange (allocation,
	// sorting, concatenation) beyond the raw message costs.
	CombineStage float64
}

const us = 1e-6 // one microsecond in seconds

// NCUBE7 models the 128-node NCUBE/7 hypercube of the paper: a slow
// scalar CPU, expensive procedure calls, and a costly global-combine
// stage — the machine where inspector overhead reaches 12%.
func NCUBE7() Params {
	return Params{
		Name:     "NCUBE/7",
		Flop:     9.7 * us,
		MemRef:   12.6 * us,
		LoopIter: 39.1 * us,
		Call:     100 * us,

		RefCheck:    48 * us,
		LocTest:     15 * us,
		SearchBase:  87 * us,
		SearchProbe: 50 * us,
		ListInsert:  60 * us,

		MsgStartup:   350 * us,
		MsgPerByte:   2.6 * us,
		PerHop:       35 * us,
		RecvOverhead: 100 * us,

		CombineStage: 0.19,
	}
}

// IPSC2 models the 32-node Intel iPSC/2: a much faster CPU, cheap
// small messages and fast procedure calls — the machine where
// inspector overhead stays below 1%.
func IPSC2() Params {
	return Params{
		Name:     "iPSC/2",
		Flop:     2.05 * us,
		MemRef:   3.3 * us,
		LoopIter: 9.85 * us,
		Call:     15 * us,

		RefCheck:    7.7 * us,
		LocTest:     3.5 * us,
		SearchBase:  16 * us,
		SearchProbe: 10 * us,
		ListInsert:  12 * us,

		MsgStartup:   75 * us,
		MsgPerByte:   0.4 * us,
		PerHop:       10 * us,
		RecvOverhead: 30 * us,

		CombineStage: 0.005,
	}
}

// Ideal is a zero-cost machine for functional (correctness-only)
// testing: all virtual times are zero, so tests never depend on the
// cost model.
func Ideal() Params {
	return Params{Name: "ideal"}
}

// ByName returns a preset by its name ("ncube", "ipsc", "ideal").
func ByName(name string) (Params, bool) {
	switch name {
	case "ncube", "NCUBE/7", "ncube7":
		return NCUBE7(), true
	case "ipsc", "iPSC/2", "ipsc2":
		return IPSC2(), true
	case "ideal":
		return Ideal(), true
	}
	return Params{}, false
}
