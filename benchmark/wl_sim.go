package main

import (
	"fmt"
	"time"

	"kali/internal/core"
	"kali/internal/lang"
	"kali/internal/machine"
	"kali/internal/mesh"
	"kali/internal/relax"
)

// simP is the processor count the two simulator workloads are offered.
// The simulated nodes are goroutines of the program under test.
const simP = 8

// stencilVM is the `kalirun prog.kali` path: source in, checked
// arrays out.
type stencilVM struct {
	n, sweeps, salt int
	src             string
	want            []float64
}

func setupStencilVM(seed int64, sz sizes) (instance, error) {
	w := &stencilVM{n: sz.stencilN, sweeps: sz.stencilSweeps, salt: saltOf(seed)}
	w.src = jacobi2dSource(w.n, w.sweeps, w.salt)
	w.want = refJacobi2D(w.n, w.sweeps, w.salt)
	// The first few runs are faster than the steady state (the heap
	// has not grown enough for the collector to engage); warm past them.
	for k := 0; k < sz.stencilWarm; k++ {
		if _, _, ok := w.op(nil, k); !ok {
			return nil, fmt.Errorf("stencil-vm: warm-up run %d failed its reference check", k)
		}
	}
	return w, nil
}

// op compiles and runs the source once; the result check is outside
// the timed region.
func (w *stencilVM) op(tr *tracer, id int) (time.Duration, core.Report, bool) {
	t0 := time.Now()
	top := tr.begin("op", id, 0, -1)
	prog, err := compileUnderSpans(w.src, tr, id, 0, top)
	var res *lang.Result
	if err == nil {
		s := tr.begin("Program.Run", id, 0, top)
		res, err = prog.Run(core.Config{P: simP, Params: machine.NCUBE7(), Backend: "sim"})
		tr.end(s)
	}
	tr.end(top)
	dur := time.Since(t0)
	if err != nil {
		return dur, core.Report{}, false
	}
	return dur, res.Report, closeTo(res.Arrays["u"], w.want)
}

func (w *stencilVM) measure(b budget, tr *tracer) samples { return opLoop(b, tr, w.op) }

// compileUnderSpans is lang.Compile under a span; a traced pass first
// runs Compile's two halves, Parse and Check, once more under spans of
// their own, because Compile hides them.
func compileUnderSpans(src string, tr *tracer, op, tid, parent int) (*lang.Program, error) {
	if tr != nil {
		s := tr.begin("lang.Parse", op, tid, parent)
		f, err := lang.Parse(src)
		tr.end(s)
		if err == nil {
			s = tr.begin("lang.Check", op, tid, parent)
			_ = lang.Check(f) // Compile below reports the error
			tr.end(s)
		}
	}
	s := tr.begin("lang.Compile", op, tid, parent)
	prog, err := lang.Compile(src)
	tr.end(s)
	return prog, err
}

// opLoop runs a simulator workload's op until b ends.
func opLoop(b budget, tr *tracer, op func(tr *tracer, id int) (time.Duration, core.Report, bool)) samples {
	var s samples
	for b.more(s.ops) {
		s.add(op(tr, s.ops))
	}
	return s
}

// add records one op and the counters of its report.
func (s *samples) add(dur time.Duration, rep core.Report, ok bool) {
	s.us = append(s.us, float64(dur)/1e3)
	s.ops++
	if !ok {
		s.failed++
	}
	s.msgs += int64(rep.MsgsSent)
	s.bytes += int64(rep.BytesSent)
	s.builds += int64(rep.Builds)
	s.sharedHits += int64(rep.SharedHits)
	s.simTotal += rep.Total
}

func (w *stencilVM) twin(b budget, tr *tracer) {
	for k := 0; b.more(k); k++ {
		top := tr.begin("twin op", k, 0, -1)
		jacobi2dTwin(w.n, w.sweeps, w.salt, tr, k, top)
		tr.end(top)
	}
}

func (w *stencilVM) probeShape() probeShape {
	ps := defaultProbeShape(w.salt)
	ps.kaliN, ps.kaliSweeps = w.n, w.sweeps
	return ps
}

func (w *stencilVM) close() {}

// meshInspector is the paper's Figure 4/7 program in the adaptive-mesh
// regime: every run gets a fresh machine and engine, so every run pays
// the inspector.
type meshInspector struct {
	meshes []*mesh.Mesh
	want   [][]float64
	sweeps int
	salt   int
}

func setupMeshInspector(seed int64, sz sizes) (instance, error) {
	w := &meshInspector{meshes: genMeshes(seed, sz.meshCount, sz.meshSide), sweeps: sz.meshSweeps, salt: saltOf(seed)}
	for _, m := range w.meshes {
		w.want = append(w.want, mesh.SeqJacobi(m, mesh.InitValues(m), w.sweeps))
	}
	for k := 0; k < sz.meshWarm; k++ {
		if _, _, ok := w.op(nil, k); !ok {
			return nil, fmt.Errorf("mesh-inspector: warm-up run %d failed its reference check", k)
		}
	}
	return w, nil
}

func (w *meshInspector) op(tr *tracer, id int) (time.Duration, core.Report, bool) {
	k := id % len(w.meshes)
	t0 := time.Now()
	s := tr.begin("relax.Run", id, 0, -1)
	res := relax.Run(relax.Options{Mesh: w.meshes[k], Sweeps: w.sweeps, P: simP, Params: machine.NCUBE7(), Gather: true})
	tr.end(s)
	dur := time.Since(t0)
	return dur, res.Report, res.SweepsRun == w.sweeps && closeTo(res.Values, w.want[k])
}

func (w *meshInspector) measure(b budget, tr *tracer) samples { return opLoop(b, tr, w.op) }

func (w *meshInspector) twin(b budget, tr *tracer) {
	for k := 0; b.more(k); k++ {
		top := tr.begin("twin op", k, 0, -1)
		relaxTwin(w.meshes[k%len(w.meshes)], w.sweeps, simP, tr, k, top)
		tr.end(top)
	}
}

func (w *meshInspector) probeShape() probeShape {
	ps := defaultProbeShape(w.salt)
	ps.mesh = w.meshes[0]
	ps.meshSweeps = w.sweeps
	ps.irregular = true
	return ps
}

func (w *meshInspector) close() {}
