package lang

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"kali/internal/analysis"
	"kali/internal/core"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/topology"
)

// Program is a parsed and checked Kali program ready to run.
type Program struct {
	file *File
	src  string
}

// Compile parses and checks Kali source.
func Compile(src string) (*Program, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Check(f); err != nil {
		return nil, err
	}
	return &Program{file: f, src: src}, nil
}

// Result is the outcome of running a program.
type Result struct {
	Report core.Report
	// ColumnIters counts the interior iterations the VM ran a column at
	// a time (vm.go), summed over nodes: the subset of
	// Report.SegmentIters, itself a subset of Report.InteriorIters, that
	// took the fastest of the three body paths.  BoundaryColumnIters is
	// the same subset of Report.BoundarySegmentIters.
	ColumnIters         int64
	BoundaryColumnIters int64
	// P is the processor count the "real estate agent" chose.
	P int
	// Arrays holds the final contents of every distributed and replicated
	// real array, or the ones named to Run, gathered to the host.
	Arrays map[string][]float64
	// IntArrays likewise for integer arrays: every one, or the ones named.
	IntArrays map[string][]int
	// Scalars holds final scalar values (node 0's copy).
	Scalars map[string]float64
}

// elaboration is the host-side product of Program.elaborate: fully
// evaluated constants, the chosen processor grid, and the compiled
// bytecode for the top level and every forall body.  It is immutable
// and shared read-only by every node goroutine.
type elaboration struct {
	constVals []value // by Symbol.Slot
	grid      *topology.Grid
	procP     int
	main      *compiledBody
	compiled  map[*Forall]*compiledBody
}

// elaborate evaluates the constants and the processors declaration,
// then lowers the program to bytecode.  Constants may reference P
// (e.g. perProc = n div P) and the processor bounds may reference
// constants, so evaluation is two-phase: the P-independent constants
// were already folded at Check time (ConstDecl.Folded), then the real
// estate agent chooses P, then the P-dependent constants evaluate —
// which is also why body compilation cannot happen before run time.
// Every declared array bound is validated here, on the host, so a bad
// one is a positioned *Error before any node starts.
func (p *Program) elaborate(availP int) (el *elaboration, err error) {
	defer func() {
		if r := recover(); r != nil {
			if le, ok := r.(*Error); ok {
				err = le
				return
			}
			err = fmt.Errorf("lang: elaboration error: %v", r)
		}
	}()

	ce := &constEval{consts: make([]value, p.file.nConsts)}
	for _, d := range p.file.Consts {
		if d.Folded {
			ce.consts[d.sym.Slot] = d.Val
		}
	}
	var grid *topology.Grid
	var procP int
	if p.file.Procs.Rank2() {
		// 2-D processor arrays have constant extents; the program needs
		// exactly p1×p2 processors.
		p1 := ce.intVal(p.file.Procs.Size)
		p2 := ce.intVal(p.file.Procs.Size2)
		var cerr error
		procP, cerr = topology.Choose(p1*p2, p1*p2, availP)
		if cerr != nil {
			return nil, cerr
		}
		grid = topology.MustGrid(p1, p2)
	} else {
		minP, maxP := 1, availP
		if p.file.Procs.MinP != nil {
			minP = ce.intVal(p.file.Procs.MinP)
			maxP = ce.intVal(p.file.Procs.MaxP)
		} else if p.file.Procs.Size != nil {
			minP = ce.intVal(p.file.Procs.Size)
			maxP = minP
		}
		var cerr error
		procP, cerr = topology.Choose(minP, maxP, availP)
		if cerr != nil {
			return nil, cerr
		}
		grid = topology.MustGrid(procP)
	}
	if s := p.file.Procs.sym; s != nil {
		ce.consts[s.Slot] = intVal(procP)
	}
	for _, d := range p.file.Consts {
		if !d.Folded {
			ce.consts[d.sym.Slot] = ce.val(d.X)
		}
	}
	for _, s := range p.file.syms {
		if !s.isArray() {
			continue
		}
		for _, dim := range s.decl.Dims {
			if lo := ce.intVal(dim.Lo); lo != 1 {
				return nil, errf(s.decl.Line, 1, "array %q: lower bound is %d, must be 1", s.Name, lo)
			}
			if hi := ce.intVal(dim.Hi); hi < 1 {
				return nil, errf(s.decl.Line, 1, "array %q: upper bound is %d, must be at least 1", s.Name, hi)
			}
		}
	}
	return &elaboration{
		constVals: ce.consts,
		grid:      grid,
		procP:     procP,
		main:      compileMain(p.file, ce.consts),
		compiled:  compileForalls(p.file, ce.consts),
	}, nil
}

// Run elaborates the program (choosing P within the declared bounds,
// building distributions, compiling it) and executes it SPMD on the
// simulated machine.  With names, only the arrays named are gathered to
// the host (unknown names are ignored); with none, every array is.
// Scalars are always all returned.
func (p *Program) Run(cfg core.Config, names ...string) (*Result, error) {
	return p.run(cfg, (*interp).exec, names)
}

// run is Run with the per-node statement runner passed in: the tests
// pass the walker oracle's (walker_test.go).
func (p *Program) run(cfg core.Config, exec func(*interp), names []string) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("lang: runtime error: %v", r)
		}
	}()

	el, err := p.elaborate(cfg.P)
	if err != nil {
		return nil, err
	}
	return p.execute(cfg, el, exec, nil, names), nil
}

// execute runs an elaborated program with exec as every node's
// statement runner and returns its final state.  The nodes leave it in
// per-slot buffers allocated host-side (shapes are elaborable without
// the machine), disjointly and with no lookup; Result's maps are filled
// host-side from the symbol list.  Only the arrays in names get a
// buffer, or every array when names is empty.  done, unless nil, runs
// on every node last.
func (p *Program) execute(cfg core.Config, el *elaboration, exec func(*interp), done func(*interp), names []string) *Result {
	res := &Result{
		P:         el.procP,
		Arrays:    map[string][]float64{},
		IntArrays: map[string][]int{},
		Scalars:   map[string]float64{},
	}
	reals, ints := make([][]float64, p.file.nReals), make([][]int, p.file.nInts)
	ce := &constEval{consts: el.constVals}
	for _, s := range p.file.syms {
		if !s.isArray() || len(names) > 0 && !slices.Contains(names, s.Name) {
			continue
		}
		size := 1
		for _, dim := range s.decl.Dims {
			size *= ce.intVal(dim.Hi)
		}
		if s.Kind == symIntArray {
			ints[s.Slot] = make([]int, size)
			res.IntArrays[s.Name] = ints[s.Slot]
		} else {
			reals[s.Slot] = make([]float64, size)
			res.Arrays[s.Name] = reals[s.Slot]
		}
	}
	var globals []value // node 0's
	cfg.P = el.procP
	res.Report = core.Run(cfg, func(ctx *core.Context) {
		in := newInterp(p.file, ctx, el)
		in.declareArrays()
		exec(in)
		in.gather(reals, ints, res)
		if ctx.ID() == 0 {
			globals = in.globals
		}
		if done != nil {
			done(in)
		}
	})
	for _, s := range p.file.syms {
		if s.Kind == symScalar {
			res.Scalars[s.Name] = globals[s.Slot].asReal()
		}
	}
	return res
}

// value is a runtime scalar.
type value struct {
	t BaseType
	i int
	f float64
	b bool
}

func intVal(i int) value      { return value{t: TInt, i: i} }
func realVal(f float64) value { return value{t: TReal, f: f} }
func boolVal(b bool) value    { return value{t: TBool, b: b} }

// asReal widens to float64.
func (v value) asReal() float64 {
	if v.t == TInt {
		return float64(v.i)
	}
	return v.f
}

// interp is the per-node interpreter state.  Every table a statement
// touches is indexed by the Symbol.Slot the checker bound.
type interp struct {
	file *File
	ctx  *core.Context
	el   *elaboration

	// globals holds the declared scalars and top-level implicit for
	// variables: the frame the compiled top level writes its registers
	// back to around escapes.
	globals  []value
	realArrs []*darray.Array
	intArrs  []*darray.IntArray

	// this node's VM states for the compiled top level and forall
	// bodies.
	top *vmState
	vms map[*Forall]*vmState

	// bounds holds the bounds of the foralls being launched
	// (execForalls), refilled per launch without allocating.
	bounds [][4]int

	// lowered forall loops, keyed by AST node.
	loops  map[*Forall]*forall.Loop
	loops2 map[*Forall]*forall.Loop2
	// lowered forall sequences, keyed by the first AST node of a
	// maximal run of adjacent foralls (a node starts at most one run,
	// and the run's extent is fixed by the statement list), feeding the
	// engine's cross-loop aggregation pipeline.
	seqs map[*Forall][]forall.SeqLoop
	// elaborated redistribute targets, keyed by AST node: the checker
	// proves every dist item constant, so the Dist is elaborated once
	// and replayed — repeated phase changes (ADI ping-pong) reuse one
	// fingerprint-stable object per statement instead of rebuilding
	// patterns (and re-evaluating map owner tables) every execution.
	redists map[*Redistribute]*dist.Dist
}

func newInterp(f *File, ctx *core.Context, el *elaboration) *interp {
	in := &interp{
		file:     f,
		ctx:      ctx,
		el:       el,
		globals:  make([]value, f.nGlobals),
		realArrs: make([]*darray.Array, f.nReals),
		intArrs:  make([]*darray.IntArray, f.nInts),
		vms:      map[*Forall]*vmState{},
		loops:    map[*Forall]*forall.Loop{},
		loops2:   map[*Forall]*forall.Loop2{},
		seqs:     map[*Forall][]forall.SeqLoop{},
		redists:  map[*Redistribute]*dist.Dist{},
	}
	in.top = newVMState(el.main, in)
	return in
}

// arith applies a binary arithmetic operator.
func arith(op Kind, l, r value) value {
	bothInt := l.t == TInt && r.t == TInt
	switch op {
	case PLUS:
		if bothInt {
			return intVal(l.i + r.i)
		}
		return realVal(l.asReal() + r.asReal())
	case MINUS:
		if bothInt {
			return intVal(l.i - r.i)
		}
		return realVal(l.asReal() - r.asReal())
	case STAR:
		if bothInt {
			return intVal(l.i * r.i)
		}
		return realVal(l.asReal() * r.asReal())
	case SLASH:
		return realVal(l.asReal() / r.asReal())
	case KWDiv:
		return intVal(l.i / r.i)
	case KWMod:
		return intVal(l.i % r.i)
	case LT:
		return boolVal(l.asReal() < r.asReal())
	case LE:
		return boolVal(l.asReal() <= r.asReal())
	case GT:
		return boolVal(l.asReal() > r.asReal())
	case GE:
		return boolVal(l.asReal() >= r.asReal())
	case EQ:
		if l.t == TBool {
			return boolVal(l.b == r.b)
		}
		return boolVal(l.asReal() == r.asReal())
	case NE:
		if l.t == TBool {
			return boolVal(l.b != r.b)
		}
		return boolVal(l.asReal() != r.asReal())
	case KWAnd:
		return boolVal(l.b && r.b)
	case KWOr:
		return boolVal(l.b || r.b)
	default:
		panic(fmt.Sprintf("bad operator %s", op))
	}
}

// declareArrays elaborates the var section on this node.
func (in *interp) declareArrays() {
	ce := &constEval{consts: in.el.constVals}
	for _, s := range in.file.syms {
		if s.Kind == symScalar {
			in.globals[s.Slot] = value{t: s.Type}
		}
		if !s.isArray() {
			continue
		}
		d := s.decl
		shape := make([]int, len(d.Dims))
		for k, dim := range d.Dims {
			shape[k] = ce.intVal(dim.Hi) // 1..hi, validated by elaborate
		}
		var dd *dist.Dist
		if d.Dist == nil {
			dd = dist.NewReplicated(shape, in.el.grid)
		} else {
			dd = in.elabDist(s.Name, shape, d.Dist)
		}
		if s.Kind == symIntArray {
			in.intArrs[s.Slot] = darray.NewInt(s.Name, dd, in.ctx.Node)
		} else {
			in.realArrs[s.Slot] = darray.New(s.Name, dd, in.ctx.Node)
		}
	}
}

// elabDist elaborates a dist-clause item list into a Dist over the
// program's grid — shared by array declarations and redistribute
// statements (the two places a distribution can be named).  Map owner
// expressions are evaluated per index; dist compresses the table into
// owner runs.
func (in *interp) elabDist(name string, shape []int, items []DistItem) *dist.Dist {
	ce := &constEval{consts: in.el.constVals}
	specs := make([]dist.DimSpec, len(items))
	for k, item := range items {
		switch item.Kind {
		case KWBlock:
			specs[k] = dist.BlockDim()
		case KWCyclic:
			specs[k] = dist.CyclicDim()
		case KWBlockCyclic:
			specs[k] = dist.BlockCyclicDim(ce.intVal(item.Block))
		case KWMap:
			owners := make([]int, shape[k])
			for i := 1; i <= shape[k]; i++ {
				ce.index = i
				owners[i-1] = ce.intVal(item.MapExpr)
			}
			specs[k] = dist.MapDim(owners)
		case STAR:
			specs[k] = dist.CollapsedDim()
		}
	}
	dd, err := dist.New(shape, specs, in.el.grid)
	if err != nil {
		panic(fmt.Sprintf("array %q: %v", name, err))
	}
	return dd
}

// exec runs the program's statements on this node: the compiled top
// level.
func (in *interp) exec() {
	in.top.run(0, 0, 0, nil, false)
	in.top.flush()
}

// forallRun returns the end of the maximal run of adjacent foralls
// that starts at ss[k] (k itself if ss[k] is none).  The compiler and
// the walker oracle (walker_test.go) batch the same runs.
func forallRun(ss []Stmt, k int) int {
	for k < len(ss) {
		if _, ok := ss[k].(*Forall); !ok {
			break
		}
		k++
	}
	return k
}

// execForalls runs a maximal run of adjacent top-level foralls,
// launched with bounds[k] (Lo, Hi, Lo2, Hi2): a lone loop on its own,
// two or more through Context.ForallSeq, so that independent loops
// aggregate their messages (§3.2 across loops).  The lowered sequence
// (loops plus their declared write sets) is cached by the run's first
// AST node.
func (in *interp) execForalls(run []Stmt, bounds [][4]int) {
	if len(run) == 1 {
		in.execForall(run[0].(*Forall), bounds[0])
		return
	}
	first := run[0].(*Forall)
	seq, ok := in.seqs[first]
	if !ok {
		seq = make([]forall.SeqLoop, len(run))
		for k, s := range run {
			fa := s.(*Forall)
			sl := forall.SeqLoop{Writes: in.writeArrays(fa)}
			if fa.Var2 != "" {
				sl.L2 = in.loop2For(fa)
			} else {
				sl.L = in.loopFor(fa)
			}
			seq[k] = sl
		}
		in.seqs[first] = seq
	}
	for k, s := range run {
		in.launch(s.(*Forall), seq[k].L, seq[k].L2, bounds[k])
	}
	in.ctx.ForallSeq(seq)
}

// launch readies a lowered loop for one execution: the bounds are set,
// and the VM's global-scalar input registers refreshed — globals are
// immutable within one forall execution (checker-enforced), so one
// binding per launch suffices.
func (in *interp) launch(fa *Forall, l *forall.Loop, l2 *forall.Loop2, b [4]int) {
	if st := in.vms[fa]; st != nil {
		st.bindScalars()
	}
	if l2 != nil {
		l2.LoI, l2.HiI, l2.LoJ, l2.HiJ = b[0], b[1], b[2], b[3]
		return
	}
	l.Lo, l.Hi = b[0], b[1]
}

// writeArrays collects the distinct distributed real arrays a forall
// body assigns to — the write set the fusion planner breaks windows
// on.  Indexed assigns inside nested control flow count; scalar and
// body-local assigns do not touch distributed state.
func (in *interp) writeArrays(fa *Forall) []*darray.Array {
	var out []*darray.Array
	var walk func(ss []Stmt)
	walk = func(ss []Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *Assign:
				if s.sym.Kind == symRealArray && !slices.Contains(out, in.realArrs[s.sym.Slot]) {
					out = append(out, in.realArrs[s.sym.Slot])
				}
			case *ForLoop:
				walk(s.Body)
			case *If:
				walk(s.Then)
				walk(s.Else)
			}
		}
	}
	walk(fa.Body)
	return out
}

// execForall lowers the loop onto the forall engine (cached per AST
// node so the engine's schedule cache applies across executions) and
// runs it with bounds b.
func (in *interp) execForall(fa *Forall, b [4]int) {
	if fa.Var2 != "" {
		loop := in.loop2For(fa)
		in.launch(fa, nil, loop, b)
		in.ctx.Eng.Run2(loop)
		return
	}
	loop := in.loopFor(fa)
	in.launch(fa, loop, nil, b)
	in.ctx.Forall(loop)
}

// loopFor returns the lowered rank-1 loop for fa, building it once.
func (in *interp) loopFor(fa *Forall) *forall.Loop {
	loop, ok := in.loops[fa]
	if !ok {
		loop = in.buildLoop(fa)
		in.loops[fa] = loop
	}
	return loop
}

// loop2For returns the lowered rank-2 loop for fa, building it once.
func (in *interp) loop2For(fa *Forall) *forall.Loop2 {
	loop, ok := in.loops2[fa]
	if !ok {
		loop = in.buildLoop2(fa)
		in.loops2[fa] = loop
	}
	return loop
}

// affine2Of elaborates a rank-2 subscript pair's coefficients.
func (ri *readInfo) affine2Of(ce *constEval) analysis.Affine2 {
	return analysis.Affine2{
		I: analysis.Affine{A: ce.coeff(ri.aIExpr), C: ce.coeff(ri.cIExpr)},
		J: analysis.Affine{A: ce.coeff(ri.aJExpr), C: ce.coeff(ri.cJExpr)},
	}
}

// deps are the integer arrays whose contents drive fa's reference
// pattern.
func (in *interp) deps(fa *Forall) []forall.Dep {
	var deps []forall.Dep
	for _, d := range fa.deps {
		deps = append(deps, in.intArrs[d.Slot])
	}
	return deps
}

// buildLoop2 translates a two-index Forall into a forall.Loop2.
func (in *interp) buildLoop2(fa *Forall) *forall.Loop2 {
	ce := &constEval{consts: in.el.constVals}
	onF2 := fa.on.affine2Of(ce)
	// A constant coefficient expression can evaluate to zero (only
	// elaboration knows the const values); diagnose it with the source
	// line instead of letting the engine panic.
	if onF2.I.A == 0 || onF2.J.A == 0 {
		panic(fmt.Sprintf("line %d: on clause subscript coefficient evaluates to zero (not affine in the index variable)", fa.Line))
	}
	var reads []forall.ReadSpec
	for _, ri := range fa.reads {
		spec := forall.ReadSpec{Array: in.realArrs[ri.array.Slot]}
		if ri.affine2 {
			aff := ri.affine2Of(ce)
			spec.Affine2 = &aff
		}
		reads = append(reads, spec)
	}
	loop := &forall.Loop2{
		Name:      fmt.Sprintf("forall2@%d", fa.Line),
		On:        in.realArrs[fa.on.array.Slot],
		OnF2:      onF2,
		Reads:     reads,
		DependsOn: in.deps(fa),
	}
	st := newVMState(in.el.compiled[fa], in)
	in.vms[fa] = st
	loop.Body = st.body2
	if st.hasSegment() {
		loop.Segment = st.segment2
	}
	return loop
}

// buildLoop translates an annotated Forall into a forall.Loop.
func (in *interp) buildLoop(fa *Forall) *forall.Loop {
	ce := &constEval{consts: in.el.constVals}
	onF := analysis.Affine{A: ce.coeff(fa.on.aExpr), C: ce.coeff(fa.on.cExpr)}
	if onF.A == 0 {
		panic(fmt.Sprintf("line %d: on clause subscript coefficient evaluates to zero (not affine in the index variable)", fa.Line))
	}
	var reads []forall.ReadSpec
	for _, ri := range fa.reads {
		spec := forall.ReadSpec{Array: in.realArrs[ri.array.Slot]}
		if ri.affine {
			spec.Affine = &analysis.Affine{A: ce.coeff(ri.aExpr), C: ce.coeff(ri.cExpr)}
			spec.Dim = ri.dim
		}
		reads = append(reads, spec)
	}
	loop := &forall.Loop{
		Name:      fmt.Sprintf("forall@%d", fa.Line),
		On:        in.realArrs[fa.on.array.Slot],
		OnF:       onF,
		Reads:     reads,
		DependsOn: in.deps(fa),
	}
	st := newVMState(in.el.compiled[fa], in)
	in.vms[fa] = st
	loop.Body = st.body1
	if st.hasSegment() {
		loop.Segment = st.segment1
	}
	return loop
}

// redistribute implements the redistribute statement, its target Dist
// elaborated at the statement's first execution.
func (in *interp) redistribute(s *Redistribute) {
	a := in.realArrs[s.sym.Slot]
	nd, ok := in.redists[s]
	if !ok {
		nd = in.elabDist(s.Name, a.Shape(), s.Items)
		in.redists[s] = nd
	}
	darray.Redistribute(a, nd)
}

// execReduce implements the reduce statement: local fold over owned
// elements, then a machine AllReduce.
func (in *interp) execReduce(s *Reduce) {
	r, a := s.red, in.realArrs[s.args[0].Slot]
	var b *darray.Array // maxdiff's second array
	if len(s.args) == 2 {
		b = in.realArrs[s.args[1].Slot]
	}
	local := r.identity
	a.EachLocal(func(g int) {
		v := a.GetLinear(g)
		if b != nil {
			v = math.Abs(v - b.GetLinear(g))
		}
		local = r.combine(local, v)
	})
	in.globals[s.into.Slot].f = in.ctx.AllReduce(local, r.allReduce)
}

// gather collects the final array contents into the pre-allocated
// buffers, by slot: distributed arrays are filled disjointly by their
// owners, replicated ones by node 0, a run of local storage at a time.
// An array with no buffer was not asked for and is skipped.  Every node
// adds its column-wise iteration counts to res.
func (in *interp) gather(reals [][]float64, ints [][]int, res *Result) {
	me := in.ctx.ID()
	for _, st := range in.vms {
		atomic.AddInt64(&res.ColumnIters, int64(st.colIters))
		atomic.AddInt64(&res.BoundaryColumnIters, int64(st.bndColIters))
	}
	for k, a := range in.realArrs {
		if reals[k] != nil && (me == 0 || !a.Replicated()) {
			gatherRuns(reals[k], a.LocalValues(), a.EachLocalRun)
		}
	}
	for k, ia := range in.intArrs {
		if ints[k] != nil && (me == 0 || !ia.Replicated()) {
			gatherRuns(ints[k], ia.LocalValues(), ia.EachLocalRun)
		}
	}
}

// gatherRuns copies a node's local storage into buf, which is indexed
// by linear global index, run by run.
func gatherRuns[T float64 | int](buf, local []T, eachRun func(func(g, off, n int))) {
	eachRun(func(g, off, n int) { copy(buf[g-1:g-1+n], local[off:off+n]) })
}
