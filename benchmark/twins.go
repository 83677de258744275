package main

import (
	"time"

	"kali/internal/analysis"
	"kali/internal/core"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/machine"
	"kali/internal/mesh"
	"kali/internal/topology"
)

// Twin programs: the stencil-vm and mesh-inspector programs written
// one layer lower, against the Go API, so that the driver can put
// spans and clocks around the calls Program.Run and relax.Run hide
// (darray.New, the first Engine.Run that builds a schedule, the warm
// ones that replay it).  A twin is only evidence about the program it
// mirrors while both report the same messages, bytes, builds and
// simulated time; selfcheck.go holds them to that.

// twinTimes is what a twin run measured per node, in host time.
type twinTimes struct {
	firstUS []float64 // the schedule-building Engine.Run of the core loop
	warmUS  []float64 // median of that loop's later runs
	// schedBytes is the core loop's largest per-node Schedule.MemBytes.
	schedBytes int
}

// buildUS is the slowest node's (first run − warm run): what building
// the schedule cost on top of executing it.
func (t twinTimes) buildUS() float64 {
	worst := 0.0
	for i := range t.firstUS {
		if d := t.firstUS[i] - t.warmUS[i]; d > worst {
			worst = d
		}
	}
	return worst
}

// replayUS is the slowest node's warm run.
func (t twinTimes) replayUS() float64 {
	worst := 0.0
	for _, w := range t.warmUS {
		if w > worst {
			worst = w
		}
	}
	return worst
}

// timedRuns wraps one loop's executions on one node: it records a
// span per call and keeps the first and the later durations apart.
type timedRuns struct {
	tr              *tracer
	op, tid, parent int
	name            string
	first           float64
	warm            []float64
}

func (r *timedRuns) run(f func()) {
	label := r.name + " (warm)"
	if r.first == 0 {
		label = r.name + " (first)"
	}
	s := r.tr.begin(label, r.op, r.tid, r.parent)
	t0 := time.Now()
	f()
	us := float64(time.Since(t0)) / 1e3
	r.tr.end(s)
	if r.first == 0 {
		r.first = us
	} else {
		r.warm = append(r.warm, us)
	}
}

func (r *timedRuns) into(t *twinTimes, me int) {
	t.firstUS[me] = r.first
	t.warmUS[me] = median(r.warm)
}

// jacobi2dTwin is jacobi2dSource transcribed onto the Go API: the same
// arrays on the same 2×2 grid, the same two loops per sweep, and in
// the relaxation body the same Env calls and unit flop charges in the
// order the language's evaluator makes them (index arithmetic, read,
// multiply, add — left to right), so the simulated clock agrees bit
// for bit.  It returns the report, the gathered u and the per-node
// times of the relaxation loop.
func jacobi2dTwin(n, sweeps, salt int, tr *tracer, op, parent int) (core.Report, []float64, twinTimes) {
	const p = 4
	out := make([]float64, n*n)
	tt := twinTimes{firstUS: make([]float64, p), warmUS: make([]float64, p)}
	sched := make([]int, p)
	rep := core.Run(core.Config{P: p, Params: machine.NCUBE7()}, func(ctx *core.Context) {
		me := ctx.ID()
		s := tr.begin("darray.New", op, me, parent)
		d := dist.Must([]int{n, n}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, topology.MustGrid(2, 2))
		u := darray.New("u", d, ctx.Node)
		old := darray.New("old", d, ctx.Node)
		tr.end(s)
		u.EachLocal(func(g int) {
			r, c := (g-1)/n+1, (g-1)%n+1
			if r == 1 || r == n || c == 1 || c == n {
				u.SetLinear(g, 1.0+float64((g+salt)%7))
			}
		})
		copyLoop := &forall.Loop2{
			Name: "twin.copy", LoI: 1, HiI: n, LoJ: 1, HiJ: n, On: old,
			Body: func(i, j int, e *forall.Env) {
				e.Write2(old, i, j, e.ReadLocal2(u, i, j))
			},
		}
		relaxLoop := &forall.Loop2{
			Name: "twin.relax", LoI: 1, HiI: n - 2, LoJ: 1, HiJ: n - 2,
			On: u, OnF2: *analysis.Shift2(1, 1),
			Reads: []forall.ReadSpec{
				{Array: old, Affine2: analysis.Shift2(0, 1)}, {Array: old, Affine2: analysis.Shift2(1, 0)},
				{Array: old, Affine2: analysis.Shift2(1, 2)}, {Array: old, Affine2: analysis.Shift2(2, 1)},
			},
			Body: func(i, j int, e *forall.Env) {
				e.FlopsUnit(1) // c+1
				x := 0.25 * e.Read2(old, i, j+1)
				e.FlopsUnit(2) // *, r+1
				x += 0.25 * e.Read2(old, i+1, j)
				e.FlopsUnit(4) // *, +, r+1, c+2
				x += 0.25 * e.Read2(old, i+1, j+2)
				e.FlopsUnit(4) // *, +, r+2, c+1
				x += 0.25 * e.Read2(old, i+2, j+1)
				e.FlopsUnit(4) // *, +, and the target's r+1, c+1
				e.Write2(u, i+1, j+1, x)
			},
		}
		seq := []forall.SeqLoop{
			{L2: copyLoop, Writes: []*darray.Array{old}},
			{L2: relaxLoop, Writes: []*darray.Array{u}},
		}
		runs := timedRuns{tr: tr, op: op, tid: me, parent: parent, name: "Engine.RunSequence"}
		for k := 0; k < sweeps; k++ {
			runs.run(func() { ctx.ForallSeq(seq) })
		}
		runs.into(&tt, me)
		if sc := ctx.Eng.Schedule2("twin.relax"); sc != nil {
			sched[me] = sc.MemBytes()
		}
		u.EachLocal(func(g int) { out[g-1] = u.GetLinear(g) })
	})
	for _, b := range sched {
		tt.schedBytes = max(tt.schedBytes, b)
	}
	return rep, out, tt
}

// relaxTwin is relax.Run (the paper's Figure 4 program) transcribed
// with the same options the mesh-inspector workload uses — block
// distribution, gather on — and its loops run one Engine.Run at a
// time, so the inspector-paying first run of the core loop is a span
// of its own.
func relaxTwin(m *mesh.Mesh, sweeps, p int, tr *tracer, op, parent int) (core.Report, []float64, twinTimes) {
	values := make([]float64, m.N)
	tt := twinTimes{firstUS: make([]float64, p), warmUS: make([]float64, p)}
	sched := make([]int, p)
	init := mesh.InitValues(m)
	rep := core.Run(core.Config{P: p, Params: machine.NCUBE7()}, func(ctx *core.Context) {
		me := ctx.ID()
		n := m.N
		s := tr.begin("darray.New", op, me, parent)
		a := ctx.BlockArray("a", n)
		oldA := ctx.BlockArray("old_a", n)
		count := ctx.BlockIntArray("count", n)
		adj := ctx.IntArray("adj", []int{n, m.MaxDeg}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()})
		coef := ctx.Array("coef", []int{n, m.MaxDeg}, []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()})
		tr.end(s)
		local := a.Dist().Pattern(0).Local(me)
		local.Each(func(i int) {
			a.Set1(i, init[i-1])
			oldA.Set1(i, init[i-1])
			count.Set1(i, m.Count[i-1])
			for k := 0; k < m.MaxDeg; k++ {
				adj.Set2(i, k+1, m.Adj[(i-1)*m.MaxDeg+k])
				coef.Set2(i, k+1, m.Coef[(i-1)*m.MaxDeg+k])
			}
		})
		copyLoop := &forall.Loop{
			Name: "twin.copy", Lo: 1, Hi: n,
			On: oldA, OnF: analysis.Identity,
			Reads: []forall.ReadSpec{{Array: a, Affine: &analysis.Identity}},
			Phase: "copy",
			Body:  func(i int, e *forall.Env) { e.Write(oldA, i, e.Read(a, i)) },
		}
		coreLoop := &forall.Loop{
			Name: "twin.core", Lo: 1, Hi: n,
			On: a, OnF: analysis.Identity,
			Reads:     []forall.ReadSpec{{Array: oldA}},
			DependsOn: []forall.Dep{adj},
			Body: func(i int, e *forall.Env) {
				cnt := e.ReadInt(count, i)
				x := 0.0
				for j := 1; j <= cnt; j++ {
					cf := e.ReadLocal2(coef, i, j)
					x += cf * e.Read(oldA, e.ReadInt2(adj, i, j))
					e.Flops(2)
				}
				e.Flops(1)
				if cnt > 0 {
					e.Write(a, i, x)
				}
			},
		}
		runs := timedRuns{tr: tr, op: op, tid: me, parent: parent, name: "Engine.Run core"}
		for k := 0; k < sweeps; k++ {
			cs := tr.begin("Engine.Run copy", op, me, parent)
			ctx.Forall(copyLoop)
			tr.end(cs)
			runs.run(func() { ctx.Forall(coreLoop) })
		}
		runs.into(&tt, me)
		if sc := ctx.Eng.Schedule("twin.core"); sc != nil {
			sched[me] = sc.MemBytes()
		}
		local.Each(func(i int) { values[i-1] = a.Get1(i) })
	})
	for _, b := range sched {
		tt.schedBytes = max(tt.schedBytes, b)
	}
	return rep, values, tt
}
