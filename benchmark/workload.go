package main

import (
	"time"
)

// sizes are the input sizes and fixed op counts of the five
// workloads; -quick swaps in the small set.
type sizes struct {
	stencilN, stencilSweeps, stencilWarm int
	meshSide, meshCount, meshSweeps      int
	meshWarm                             int
	haloN, haloWindow, haloWarm          int
	transN, transWindow, transWarm       int
	tenantWarm                           int // warm-up requests per client
	// layerOps is the fixed sample count (ops, windows, or requests
	// per client) of the traced run's two passes, per workload.
	layerOps map[string]int
}

var fullSizes = sizes{
	stencilN: 128, stencilSweeps: 40, stencilWarm: 8,
	meshSide: 128, meshCount: 16, meshSweeps: 2, meshWarm: 8,
	haloN: 256, haloWindow: 5000, haloWarm: 20000,
	transN: 128, transWindow: 2000, transWarm: 8000,
	tenantWarm: 500,
	layerOps:   map[string]int{"stencil-vm": 10, "mesh-inspector": 48, "wall-halo": 6, "wall-transpose": 6, "tenants-http": 1200},
}

var quickSizes = sizes{
	stencilN: 32, stencilSweeps: 4, stencilWarm: 2,
	meshSide: 24, meshCount: 4, meshSweeps: 2, meshWarm: 2,
	haloN: 64, haloWindow: 200, haloWarm: 10,
	transN: 32, transWindow: 50, transWarm: 5,
	tenantWarm: 20,
	layerOps:   map[string]int{"stencil-vm": 2, "mesh-inspector": 4, "wall-halo": 2, "wall-transpose": 2, "tenants-http": 20},
}

// budget ends a measured pass: at the deadline, or after maxSamples
// samples, whichever is set and comes first.  A pass always takes at
// least one sample.
type budget struct {
	deadline   time.Time // zero: none
	maxSamples int       // zero: none
}

func budgetFor(seconds float64) budget {
	return budget{deadline: time.Now().Add(time.Duration(seconds * float64(time.Second)))}
}

func (b budget) more(taken int) bool {
	if taken == 0 {
		return true
	}
	if b.maxSamples > 0 && taken >= b.maxSamples {
		return false
	}
	return b.deadline.IsZero() || time.Now().Before(b.deadline)
}

// counters are the exact counts a pass collected from what the
// program under test already exports (Report, machine.Stats, engine
// and pool counters).
type counters struct {
	msgs, bytes        int64
	builds, sharedHits int64
	simTotal           float64 // summed Report.Total, simulated seconds
}

// samples is the outcome of one measured pass.
type samples struct {
	// us holds one host-time sample per op, or per window of ops
	// already divided by the window's op count.
	us     []float64
	ops    int     // ops attempted
	failed int     // ops that errored, were refused or differed from the reference
	wall   float64 // seconds the pass took, set by the driver
	counters
}

// merge adds another pass's (or client's) samples and counts.
func (s *samples) merge(o samples) {
	s.us = append(s.us, o.us...)
	s.ops += o.ops
	s.failed += o.failed
	s.msgs += o.msgs
	s.bytes += o.bytes
	s.builds += o.builds
	s.sharedHits += o.sharedHits
	s.simTotal += o.simTotal
}

// instance is one set-up workload: inputs generated, references
// computed, machines and servers built, warm-up done.
type instance interface {
	// measure runs ops until b ends, checking every result; tr is nil
	// on the untraced pass.
	measure(b budget, tr *tracer) samples
	// twin runs the workload's lower-layer transcription under spans;
	// workloads already written against the layer API have none.
	twin(b budget, tr *tracer)
	// probeShape names the sizes the layer probes should use so they
	// measure each layer at this workload's shapes.
	probeShape() probeShape
	close()
}
