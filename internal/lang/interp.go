package lang

import (
	"fmt"
	"math"

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

	// NoVM disables the bytecode VM for forall bodies and runs them
	// through the retained tree-walking interpreter instead (kalirun
	// -novm).  The two paths are observably identical — the walker is
	// kept as the differential-test oracle and as an escape hatch.
	NoVM bool
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
	// P is the processor count the "real estate agent" chose.
	P int
	// Arrays holds the final contents of every distributed and
	// replicated real array, gathered to the host.
	Arrays map[string][]float64
	// IntArrays likewise for integer arrays.
	IntArrays map[string][]int
	// Scalars holds final scalar values (node 0's copy).
	Scalars map[string]float64
}

// elaboration is the host-side product of Program.elaborate: fully
// evaluated constants, the chosen processor grid, and (unless NoVM)
// the compiled bytecode for every forall body.  It is immutable and
// shared read-only by every node goroutine.
type elaboration struct {
	consts   map[string]value
	grid     *topology.Grid
	procP    int
	compiled map[*Forall]*compiledBody
}

// elaborate evaluates the constants and the processors declaration,
// then lowers forall bodies to bytecode.  Constants may reference P
// (e.g. perProc = n div P) and the processor bounds may reference
// constants, so evaluation is two-phase: the P-independent constants
// were already folded at Check time (ConstDecl.Folded), then the real
// estate agent chooses P, then the P-dependent constants evaluate —
// which is also why body compilation cannot happen before run time.
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

	consts := map[string]value{}
	ce := &constEval{consts: consts}
	for _, d := range p.file.Consts {
		if d.Folded {
			consts[d.Name] = d.Val
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
	if p.file.Procs.SizeVar != "" {
		consts[p.file.Procs.SizeVar] = intVal(procP)
	}
	for _, d := range p.file.Consts {
		if !d.Folded && d.Name != p.file.Procs.SizeVar {
			consts[d.Name] = ce.val(d.X)
		}
	}
	el = &elaboration{consts: consts, grid: grid, procP: procP}
	if !p.NoVM {
		el.compiled = compileForalls(p.file, consts)
	}
	return el, nil
}

// Run elaborates the program (choosing P within the declared bounds,
// building distributions, compiling forall bodies) and executes it
// SPMD on the simulated machine.
func (p *Program) Run(cfg core.Config) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("lang: runtime error: %v", r)
		}
	}()

	el, err := p.elaborate(cfg.P)
	if err != nil {
		return nil, err
	}
	res = p.newResult(el)
	cfg.P = el.procP

	rep := core.Run(cfg, func(ctx *core.Context) {
		in := newInterp(p.file, ctx, el)
		in.declareArrays()
		in.execStmts(p.file.Main, nil, nil)
		in.gather(res)
	})
	res.Report = rep
	return res, nil
}

// newResult pre-allocates the gather buffers host-side (shapes are
// elaborable without the machine), so nodes fill disjoint slots with
// no synchronization.
func (p *Program) newResult(el *elaboration) *Result {
	res := &Result{
		P:         el.procP,
		Arrays:    map[string][]float64{},
		IntArrays: map[string][]int{},
		Scalars:   map[string]float64{},
	}
	ce := &constEval{consts: el.consts}
	for _, d := range p.file.Vars {
		if len(d.Dims) == 0 {
			continue
		}
		size := 1
		for _, dim := range d.Dims {
			size *= ce.intVal(dim.Hi)
		}
		for _, name := range d.Names {
			if d.Elem == TInt {
				res.IntArrays[name] = make([]int, size)
			} else {
				res.Arrays[name] = make([]float64, size)
			}
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

// interp is the per-node interpreter state.
type interp struct {
	file   *File
	ctx    *core.Context
	grid   *topology.Grid // the program's processor array (may be 2-D)
	consts map[string]value

	scalars map[string]*value
	arrays  map[string]*darray.Array
	ints    map[string]*darray.IntArray

	// compiled forall bodies (shared, host-compiled) and this node's
	// VM states for them; nil/empty under NoVM.
	compiled map[*Forall]*compiledBody
	vms      map[*Forall]*vmState

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
	return &interp{
		file:     f,
		ctx:      ctx,
		grid:     el.grid,
		consts:   el.consts,
		compiled: el.compiled,
		vms:      map[*Forall]*vmState{},
		scalars:  map[string]*value{},
		arrays:   map[string]*darray.Array{},
		ints:     map[string]*darray.IntArray{},
		loops:    map[*Forall]*forall.Loop{},
		loops2:   map[*Forall]*forall.Loop2{},
		seqs:     map[*Forall][]forall.SeqLoop{},
		redists:  map[*Redistribute]*dist.Dist{},
	}
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
	ce := &constEval{consts: in.consts}
	for _, d := range in.file.Vars {
		for _, name := range d.Names {
			if len(d.Dims) == 0 {
				v := value{t: d.Elem}
				in.scalars[name] = &v
				continue
			}
			shape := make([]int, len(d.Dims))
			for k, dim := range d.Dims {
				lo := ce.intVal(dim.Lo)
				hi := ce.intVal(dim.Hi)
				if lo != 1 {
					panic(fmt.Sprintf("array %q: lower bound must be 1", name))
				}
				if hi < 1 {
					panic(fmt.Sprintf("array %q: empty dimension", name))
				}
				shape[k] = hi
			}
			var dd *dist.Dist
			if d.Dist == nil {
				dd = dist.NewReplicated(shape, in.grid)
			} else {
				dd = in.elabDist(name, shape, d.Dist)
			}
			if d.Elem == TInt {
				in.ints[name] = darray.NewInt(name, dd, in.ctx.Node)
			} else {
				in.arrays[name] = darray.New(name, dd, in.ctx.Node)
			}
		}
	}
}

// elabDist elaborates a dist-clause item list into a Dist over the
// program's grid — shared by array declarations and redistribute
// statements (the two places a distribution can be named).  Map owner
// expressions are evaluated per index; dist compresses the table into
// owner runs.
func (in *interp) elabDist(name string, shape []int, items []DistItem) *dist.Dist {
	ce := &constEval{consts: in.consts}
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
			mce := &constEval{consts: map[string]value{}}
			for cn, cv := range in.consts {
				mce.consts[cn] = cv
			}
			for i := 1; i <= shape[k]; i++ {
				mce.consts[item.MapVar] = intVal(i)
				owners[i-1] = mce.intVal(item.MapExpr)
			}
			specs[k] = dist.MapDim(owners)
		case STAR:
			specs[k] = dist.CollapsedDim()
		}
	}
	dd, err := dist.New(shape, specs, in.grid)
	if err != nil {
		panic(fmt.Sprintf("array %q: %v", name, err))
	}
	return dd
}

// scope is the forall-body local variable scope.
type scope map[string]*value

// execStmts interprets a statement list.  env is non-nil inside a
// forall body.  At the top level (env == nil), maximal runs of
// adjacent foralls are batched through the engine's sequence API so
// independent loops aggregate their messages (§3.2 across loops); a
// lone forall takes the ordinary path.
func (in *interp) execStmts(ss []Stmt, sc scope, env *forall.Env) {
	for k := 0; k < len(ss); k++ {
		if env == nil {
			if _, ok := ss[k].(*Forall); ok {
				j := k + 1
				for j < len(ss) {
					if _, ok := ss[j].(*Forall); !ok {
						break
					}
					j++
				}
				if j-k >= 2 {
					in.execForallSeq(ss[k:j])
					k = j - 1
					continue
				}
			}
		}
		in.execStmt(ss[k], sc, env)
	}
}

// execForallSeq runs a maximal run of adjacent foralls through
// Context.ForallSeq.  The lowered sequence (loops plus their declared
// write sets) is cached by the run's first AST node; bounds and VM
// scalar registers are refreshed per launch like execForall does.
func (in *interp) execForallSeq(run []Stmt) {
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
		fa := s.(*Forall)
		if st := in.vms[fa]; st != nil {
			st.bindScalars(in)
		}
		if fa.Var2 != "" {
			l := seq[k].L2
			l.LoI = in.evalExpr(fa.Lo, nil, nil).i
			l.HiI = in.evalExpr(fa.Hi, nil, nil).i
			l.LoJ = in.evalExpr(fa.Lo2, nil, nil).i
			l.HiJ = in.evalExpr(fa.Hi2, nil, nil).i
		} else {
			l := seq[k].L
			l.Lo = in.evalExpr(fa.Lo, nil, nil).i
			l.Hi = in.evalExpr(fa.Hi, nil, nil).i
		}
	}
	in.ctx.ForallSeq(seq)
}

// writeArrays collects the distinct distributed real arrays a forall
// body assigns to — the write set the fusion planner breaks windows
// on.  Indexed assigns inside nested control flow count; scalar and
// body-local assigns do not touch distributed state.
func (in *interp) writeArrays(fa *Forall) []*darray.Array {
	var out []*darray.Array
	seen := map[string]bool{}
	var walk func(ss []Stmt)
	walk = func(ss []Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *Assign:
				if len(s.Indexes) > 0 && !seen[s.Name] {
					if a, ok := in.arrays[s.Name]; ok {
						seen[s.Name] = true
						out = append(out, a)
					}
				}
			case *ForLoop:
				walk(s.Body)
			case *While:
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

func (in *interp) execStmt(s Stmt, sc scope, env *forall.Env) {
	switch s := s.(type) {
	case *Assign:
		in.execAssign(s, sc, env)
	case *Forall:
		in.execForall(s)
	case *ForLoop:
		lo := in.evalExpr(s.Lo, sc, env).i
		hi := in.evalExpr(s.Hi, sc, env).i
		var slot *value
		if sc != nil {
			if v, ok := sc[s.Var]; ok {
				slot = v
			} else {
				v := intVal(lo)
				sc[s.Var] = &v
				slot = &v
				defer delete(sc, s.Var)
			}
		} else if v, ok := in.scalars[s.Var]; ok {
			slot = v
		} else {
			v := intVal(lo)
			in.scalars[s.Var] = &v
			slot = &v
			defer delete(in.scalars, s.Var)
		}
		for x := lo; x <= hi; x++ {
			*slot = intVal(x)
			in.execStmts(s.Body, sc, env)
		}
	case *While:
		for in.evalExpr(s.Cond, sc, env).b {
			in.execStmts(s.Body, sc, env)
		}
	case *If:
		if in.evalExpr(s.Cond, sc, env).b {
			in.execStmts(s.Then, sc, env)
		} else {
			in.execStmts(s.Else, sc, env)
		}
	case *Reduce:
		in.execReduce(s)
	case *Redistribute:
		a := in.arrays[s.Name]
		if a == nil {
			panic(fmt.Sprintf("redistribute target %q is not a real array", s.Name))
		}
		nd, ok := in.redists[s]
		if !ok {
			nd = in.elabDist(s.Name, a.Shape(), s.Items)
			in.redists[s] = nd
		}
		darray.Redistribute(a, nd)
	default:
		panic(fmt.Sprintf("unknown statement %T", s))
	}
}

// execAssign handles scalar, local, and array writes.
func (in *interp) execAssign(s *Assign, sc scope, env *forall.Env) {
	val := in.evalExpr(s.X, sc, env)
	if sc != nil {
		if slot, ok := sc[s.Name]; ok {
			*slot = coerce(val, slot.t)
			return
		}
	}
	if slot, ok := in.scalars[s.Name]; ok && len(s.Indexes) == 0 {
		*slot = coerce(val, slot.t)
		return
	}
	// Array element write.
	idx := make([]int, len(s.Indexes))
	for k, ix := range s.Indexes {
		idx[k] = in.evalExpr(ix, sc, env).i
	}
	if a, ok := in.arrays[s.Name]; ok {
		if env != nil {
			// Inside a forall: owner-computes write through the engine.
			env.WriteAt(a, val.asReal(), idx...)
			return
		}
		// Top level: the owner stores, everyone else skips (all nodes
		// execute the same statement).
		if a.IsLocal(idx...) {
			a.Set(val.asReal(), idx...)
		}
		return
	}
	if ia, ok := in.ints[s.Name]; ok {
		if env != nil {
			panic(fmt.Sprintf("write to integer array %q inside forall", s.Name))
		}
		if ia.IsLocal(idx...) {
			ia.Set(val.i, idx...)
			ia.Bump() // pattern-driving contents changed
		}
		return
	}
	panic(fmt.Sprintf("unknown assignment target %q", s.Name))
}

func coerce(v value, t BaseType) value {
	if v.t == t {
		return v
	}
	if t == TReal && v.t == TInt {
		return realVal(float64(v.i))
	}
	panic(fmt.Sprintf("cannot coerce %s to %s", v.t, t))
}

// execForall lowers the loop onto the forall engine (cached per AST
// node so the engine's schedule cache applies across executions).
func (in *interp) execForall(fa *Forall) {
	if fa.Var2 != "" {
		loop := in.loop2For(fa)
		if st := in.vms[fa]; st != nil {
			st.bindScalars(in)
		}
		loop.LoI = in.evalExpr(fa.Lo, nil, nil).i
		loop.HiI = in.evalExpr(fa.Hi, nil, nil).i
		loop.LoJ = in.evalExpr(fa.Lo2, nil, nil).i
		loop.HiJ = in.evalExpr(fa.Hi2, nil, nil).i
		in.ctx.Eng.Run2(loop)
		return
	}
	loop := in.loopFor(fa)
	// Refresh the VM's global-scalar input registers: globals are
	// immutable within one forall execution (checker-enforced), so one
	// binding per launch suffices.
	if st := in.vms[fa]; st != nil {
		st.bindScalars(in)
	}
	loop.Lo = in.evalExpr(fa.Lo, nil, nil).i
	loop.Hi = in.evalExpr(fa.Hi, nil, nil).i
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

// buildLoop2 translates a two-index Forall into a forall.Loop2.
func (in *interp) buildLoop2(fa *Forall) *forall.Loop2 {
	ce := &constEval{consts: in.consts}
	onArr := in.arrays[fa.OnArray]
	if onArr == nil {
		panic(fmt.Sprintf("on-clause array %q is not a real array", fa.OnArray))
	}
	// Elaborate the per-dimension affine on-clause subscripts.
	ck := &checker{syms: in.checkerSyms()}
	aIE, cIE, okI := ck.affineOf(fa.OnIndex, fa.Var)
	aJE, cJE, okJ := ck.affineOf(fa.OnIndex2, fa.Var2)
	if !okI || !okJ {
		panic("2-D on clause subscripts not affine (checker should have caught this)")
	}
	onF2 := analysis.Affine2{
		I: analysis.Affine{A: ce.coeff(aIE), C: ce.coeff(cIE)},
		J: analysis.Affine{A: ce.coeff(aJE), C: ce.coeff(cJE)},
	}
	// A constant coefficient expression can evaluate to zero (only
	// elaboration knows the const values); diagnose it with the source
	// line instead of letting the engine panic.
	if onF2.I.A == 0 || onF2.J.A == 0 {
		panic(fmt.Sprintf("line %d: on clause subscript coefficient evaluates to zero (not affine in the index variable)", fa.Line))
	}
	var reads []forall.ReadSpec
	for _, ri := range fa.reads {
		arr := in.arrays[ri.array]
		if ri.affine2 {
			aff := &analysis.Affine2{
				I: analysis.Affine{A: ce.coeff(ri.aIExpr), C: ce.coeff(ri.cIExpr)},
				J: analysis.Affine{A: ce.coeff(ri.aJExpr), C: ce.coeff(ri.cJExpr)},
			}
			reads = append(reads, forall.ReadSpec{Array: arr, Affine2: aff})
			continue
		}
		reads = append(reads, forall.ReadSpec{Array: arr})
	}
	var deps []forall.Dep
	for _, d := range fa.deps {
		deps = append(deps, in.ints[d])
	}
	loop := &forall.Loop2{
		Name:      fmt.Sprintf("forall2@%d", fa.Line),
		On:        onArr,
		OnF2:      onF2,
		Reads:     reads,
		DependsOn: deps,
	}
	if cb := in.compiled[fa]; cb != nil {
		st := newVMState(cb, in)
		in.vms[fa] = st
		loop.Body = st.body2
		if st.hasSegment() {
			loop.Segment = st.segment2
		}
	} else {
		loop.Body = func(i, j int, env *forall.Env) {
			sc := scope{
				fa.Var:  &value{t: TInt, i: i},
				fa.Var2: &value{t: TInt, i: j},
			}
			for _, d := range fa.Decls {
				v := value{t: d.Type}
				sc[d.Name] = &v
			}
			in.execStmts(fa.Body, sc, env)
		}
	}
	return loop
}

// buildLoop translates an annotated Forall into a forall.Loop.
func (in *interp) buildLoop(fa *Forall) *forall.Loop {
	ce := &constEval{consts: in.consts}
	onArr := in.arrays[fa.OnArray]
	if onArr == nil {
		panic(fmt.Sprintf("on-clause array %q is not a real array", fa.OnArray))
	}
	// Elaborate the on-clause affine subscript.
	aE, cE, ok := (&checker{syms: in.checkerSyms()}).affineOf(fa.OnIndex, fa.Var)
	if !ok {
		panic("on clause subscript not affine (checker should have caught this)")
	}
	onF := analysis.Affine{A: ce.coeff(aE), C: ce.coeff(cE)}
	if onF.A == 0 {
		panic(fmt.Sprintf("line %d: on clause subscript coefficient evaluates to zero (not affine in the index variable)", fa.Line))
	}

	var reads []forall.ReadSpec
	for _, ri := range fa.reads {
		arr := in.arrays[ri.array]
		if ri.affine {
			aff := &analysis.Affine{A: ce.coeff(ri.aExpr), C: ce.coeff(ri.cExpr)}
			reads = append(reads, forall.ReadSpec{Array: arr, Affine: aff})
		} else {
			reads = append(reads, forall.ReadSpec{Array: arr})
		}
	}
	var deps []forall.Dep
	for _, d := range fa.deps {
		deps = append(deps, in.ints[d])
	}

	loop := &forall.Loop{
		Name:      fmt.Sprintf("forall@%d", fa.Line),
		On:        onArr,
		OnF:       onF,
		Reads:     reads,
		DependsOn: deps,
	}
	if cb := in.compiled[fa]; cb != nil {
		st := newVMState(cb, in)
		in.vms[fa] = st
		loop.Body = st.body1
		if st.hasSegment() {
			loop.Segment = st.segment1
		}
	} else {
		loop.Body = func(i int, env *forall.Env) {
			sc := scope{fa.Var: &value{t: TInt, i: i}}
			for _, d := range fa.Decls {
				v := value{t: d.Type}
				sc[d.Name] = &v
			}
			in.execStmts(fa.Body, sc, env)
		}
	}
	return loop
}

// checkerSyms rebuilds a checker symbol table for affine re-analysis
// during elaboration.
func (in *interp) checkerSyms() map[string]*symbol {
	syms := map[string]*symbol{}
	if in.file.Procs.SizeVar != "" {
		syms[in.file.Procs.SizeVar] = &symbol{kind: symProcSize, typ: TInt}
	}
	for _, d := range in.file.Consts {
		syms[d.Name] = &symbol{kind: symConst, typ: TInt}
	}
	for _, d := range in.file.Vars {
		for _, name := range d.Names {
			if len(d.Dims) == 0 {
				syms[name] = &symbol{kind: symScalar, typ: d.Elem}
			} else {
				syms[name] = &symbol{kind: symArray, typ: d.Elem, decl: d}
			}
		}
	}
	return syms
}

// execReduce implements the reduce statement: local fold over owned
// elements, then a machine AllReduce.
func (in *interp) execReduce(s *Reduce) {
	a := in.arrays[s.Args[0]]
	local := 0.0
	switch s.Op {
	case "maxdiff":
		b := in.arrays[s.Args[1]]
		a.EachLocal(func(g int) {
			d := math.Abs(a.GetLinear(g) - b.GetLinear(g))
			if d > local {
				local = d
			}
		})
		local = in.ctx.AllReduce(local, "max")
	case "sum":
		a.EachLocal(func(g int) { local += a.GetLinear(g) })
		local = in.ctx.AllReduce(local, "sum")
	case "max":
		first := true
		a.EachLocal(func(g int) {
			if first || a.GetLinear(g) > local {
				local = a.GetLinear(g)
				first = false
			}
		})
		local = in.ctx.AllReduce(local, "max")
	case "min":
		first := true
		a.EachLocal(func(g int) {
			if first || a.GetLinear(g) < local {
				local = a.GetLinear(g)
				first = false
			}
		})
		local = in.ctx.AllReduce(local, "min")
	}
	in.scalars[s.Into].f = local
}

// evalExpr evaluates an expression; env is non-nil inside foralls.
func (in *interp) evalExpr(e Expr, sc scope, env *forall.Env) value {
	switch e := e.(type) {
	case *IntLit:
		return intVal(e.V)
	case *RealLit:
		return realVal(e.V)
	case *BoolLit:
		return boolVal(e.V)
	case *Ident:
		if sc != nil {
			if v, ok := sc[e.Name]; ok {
				return *v
			}
		}
		if v, ok := in.consts[e.Name]; ok {
			return v
		}
		if v, ok := in.scalars[e.Name]; ok {
			return *v
		}
		panic(fmt.Sprintf("unknown name %q", e.Name))
	case *ArrayRef:
		return in.evalArrayRef(e, sc, env)
	case *Unary:
		v := in.evalExpr(e.X, sc, env)
		if e.Op == KWNot {
			return boolVal(!v.b)
		}
		if env != nil {
			env.Flops(1)
		}
		if v.t == TInt {
			return intVal(-v.i)
		}
		return realVal(-v.f)
	case *Binary:
		l := in.evalExpr(e.L, sc, env)
		r := in.evalExpr(e.R, sc, env)
		if env != nil {
			env.Flops(1)
		}
		return arith(e.Op, l, r)
	case *Call:
		args := make([]value, len(e.Args))
		for k, a := range e.Args {
			args[k] = in.evalExpr(a, sc, env)
		}
		if env != nil {
			env.Flops(1)
		}
		switch e.Name {
		case "abs":
			return realVal(math.Abs(args[0].asReal()))
		case "sqrt":
			return realVal(math.Sqrt(args[0].asReal()))
		case "min":
			return realVal(math.Min(args[0].asReal(), args[1].asReal()))
		case "max":
			return realVal(math.Max(args[0].asReal(), args[1].asReal()))
		case "float":
			return realVal(args[0].asReal())
		case "trunc":
			return intVal(int(args[0].asReal()))
		}
		panic(fmt.Sprintf("unknown function %q", e.Name))
	default:
		panic(fmt.Sprintf("unknown expression %T", e))
	}
}

// evalArrayRef dispatches on the checker's access classification.
func (in *interp) evalArrayRef(e *ArrayRef, sc scope, env *forall.Env) value {
	idx := make([]int, len(e.Indexes))
	for k, ix := range e.Indexes {
		idx[k] = in.evalExpr(ix, sc, env).i
	}
	if ia, ok := in.ints[e.Name]; ok {
		if env != nil {
			switch len(idx) {
			case 1:
				return intVal(env.ReadInt(ia, idx[0]))
			case 2:
				return intVal(env.ReadInt2(ia, idx[0], idx[1]))
			}
		}
		return intVal(ia.Get(idx...))
	}
	a := in.arrays[e.Name]
	if a == nil {
		panic(fmt.Sprintf("unknown array %q", e.Name))
	}
	if env == nil {
		// Top level: checker restricts this to replicated arrays.
		return realVal(a.Get(idx...))
	}
	switch e.access {
	case accReplicated, accAligned:
		switch len(idx) {
		case 1:
			return realVal(env.ReadLocal(a, idx[0]))
		case 2:
			return realVal(env.ReadLocal2(a, idx[0], idx[1]))
		}
		panic("rank > 2")
	default: // accAffine, accIndirect
		if len(idx) == 1 {
			return realVal(env.Read(a, idx[0]))
		}
		return realVal(env.ReadAt(a, idx...))
	}
}

// gather collects final array and scalar state into the pre-allocated
// host Result.  Distributed arrays are filled disjointly by their
// owners; node 0 reports scalars and replicated arrays.
func (in *interp) gather(res *Result) {
	me := in.ctx.ID()
	for name, a := range in.arrays {
		buf := res.Arrays[name]
		if a.Replicated() {
			if me == 0 {
				for g := 1; g <= a.Size(); g++ {
					buf[g-1] = a.GetLinear(g)
				}
			}
			continue
		}
		a.EachLocal(func(g int) { buf[g-1] = a.GetLinear(g) })
	}
	for name, ia := range in.ints {
		buf := res.IntArrays[name]
		if ia.Dist().Replicated() {
			if me == 0 {
				copy(buf, ia.LocalValues())
			}
			continue
		}
		ia.EachLocal(func(g int) {
			buf[g-1] = ia.Get(delinearizeShape(ia.Shape(), g)...)
		})
	}
	if me == 0 {
		for name, v := range in.scalars {
			res.Scalars[name] = v.asReal()
		}
	}
}

func delinearizeShape(shape []int, g int) []int {
	g--
	out := make([]int, len(shape))
	for d := len(shape) - 1; d >= 0; d-- {
		out[d] = g%shape[d] + 1
		g /= shape[d]
	}
	return out
}
