package lang

import (
	"fmt"
	"math"
	"slices"

	"kali/internal/darray"
	"kali/internal/forall"
	"kali/internal/machine"
)

// This file is the execution half of the bytecode pipeline (compile.go
// is the lowering half), for forall bodies and for the top level alike.
// A compiled body is a flat instruction array over two typed register
// files — float64 registers for real values and int registers for
// integers and booleans (0/1) — with the node's array headers bound to
// numbered slots and all scope resolution done at compile time.
// Executing one iteration walks the instruction array with no
// allocation, no map lookups, and no interface boxing; all
// distributed-memory semantics stay behind the same forall.Env calls —
// at the top level the same darray accessors, the statement code the
// same interp methods — the tree-walking interpreter uses, so the two
// paths are observably identical (same values, same machine.Stats,
// same schedules) — the VM only removes host-side interpretive
// overhead.  The top level is the one iteration of a body without index
// variables (compileMain), run once per node.
//
// Cost-model parity, which the differential tests hold against the
// tree-walking oracle in walker_test.go: the walker charges
// Env.Flops(1) per binary operator, unary minus, and builtin call as it
// evaluates, interleaved with its reads' memory-reference charges.
// The compiler emits
// opFlops at those same AST positions — including for nodes it
// constant-folds or strength-reduces away — and the VM replays each
// opFlops k as k unit charges, reproducing the walker's exact charge
// sequence.  Simulated times and FlopCount match the walker
// bit-for-bit while the host does less work.
//
// Three tiers, in both of Figure 3's loops.  The paper's executor
// separates local from nonlocal iterations so that the local ones need
// no locality test, no buffer search and no per-reference bookkeeping
// (§3.1); the VM takes that literally for a schedule's interior, and
// for the boundary it takes the nonlocal iterations' per-reference work
// down to what must stay per element, the charges.  Which tier runs is
// decided by what the code observes — the body's shape at compile time,
// the views that resolved for this run, and its length, at run time —
// never by a flag:
//
//   - Env path (body1/body2 → run, one element): the inspector's
//     recording pass, declined runs, and the boundaries of loops whose
//     schedule enumerates references.  Every access and every charge
//     goes through the Env.
//   - Per-element segment mode (segment1/segment2 → run over a span).
//     forall hands over whole runs of consecutive iterations
//     (Loop.Segment): the interior's row segments, and the boundary cut
//     into runs of consecutive columns of one row.  Per run, resolve
//     turns every hoistable load and store (compile.go: subscripts of
//     the row form (f(i), j+c)) into a view — the locality and
//     owner-computes checks made once for the whole span.  In the
//     interior a view is a slice of the node's local row.  In the
//     boundary a read the Env path makes through Read2 resolves
//     (Env.ReadSpan2) to the local row or, when the in set holds the
//     whole run from one peer, to a run of the receive buffer, with
//     the charges Read2 makes for each element ahead of its memory
//     reference: a locality test, then for the buffer the range search.
//     run then executes the iterations against the views, with the
//     virtual clock in a local variable, replaying the same float
//     additions in the same order the per-element path makes (LoopIter,
//     then the reads' charges and MemRefs and the unit Flop charges
//     where the walker makes them).  Whatever does not resolve — other
//     subscript forms, integer arrays, a span that leaves the local
//     window or is partly local, runs from two peers, stores that must
//     be logged — takes the same Env call as before, with the clock
//     written back around it; a run in which nothing resolves is
//     declined and runs per element.  These two tiers share the one
//     interpreter loop.
//   - Column-wise (segment1/segment2 → column): a straight-line body
//     (compile.go, columnKernel: no jump, every real-array access
//     hoisted, no integer-array load, no integer div or mod, one
//     subscript form per stored array) whose every view resolved, over
//     a run of at least two elements.  Each live instruction runs once
//     across the run on per-register vectors instead of the whole body
//     once per element, and the clock moves once, through
//     machine.ClockStep: within one binade of the clock each charge adds
//     a fixed whole number of ulps, so m elements are one integer
//     multiply-add on the clock's bit pattern, guarded (no charge an
//     exact tie at that ulp, none negative or non-finite, the mantissa
//     not carrying, the clock positive and normal) and falling back to
//     the literal additions — bit-identical either way.  Every element
//     of a boundary run makes the same charges too, fixed by how each
//     read resolved; the stepper of each such classification is made
//     once and kept.  A fully resolved run of one element runs the same
//     live code on scalars (point), and a boundary run that resolves but
//     for its first or last element — the corner of a halo row — runs
//     as a column and that element (peel).
//
// The store-order rule of the column-wise tier: element by element,
// A[i] := x; A[i+1] := y leaves A[k+1] = x[k+1], store by store it
// would leave y[k]; a body that stores one array through two subscript
// forms therefore keeps the per-element segment mode.  With one form,
// stores of different elements never meet, and a stored array is loaded
// nowhere (or its stores would not be hoisted).

// opcode enumerates VM instructions.  Operand conventions: a is the
// destination register (or sole operand), b and c are sources, d is an
// extra source.  f[·] is the float file, n[·] the int file; booleans
// live in n as 0/1.
type opcode uint8

const (
	opRet      opcode = iota // return from the body
	opFlops                  // a × env.Flops(1): positioned cost-model charges
	opJmp                    // pc = a
	opJmpIfNot               // if n[b] == 0 → pc = a
	opJmpGtI                 // if n[b] > n[c] → pc = a (for-loop entry)
	opLoopI                  // n[b]++; if n[b] <= n[c] → pc = a (for-loop back edge)

	opMovF   // f[a] = f[b]
	opMovI   // n[a] = n[b]
	opIntToF // f[a] = float64(n[b])
	opTruncI // n[a] = int(f[b])

	opNegF // f[a] = -f[b]
	opNegI // n[a] = -n[b]
	opAddF // f[a] = f[b] + f[c]
	opSubF
	opMulF
	opDivF
	opAddI // n[a] = n[b] + n[c]
	opSubI
	opMulI
	opDivI
	opModI
	opLinI // n[a] = n[b]*constI[c] + constI[d] (strength-reduced affine subscript)

	opLtF // n[a] = b2i(f[b] < f[c]) — ints widen first, matching the walker's float compares
	opLeF
	opGtF
	opGeF
	opEqF
	opNeF
	opLtI // n[a] = b2i(n[b] < n[c]) — the walker's float compare where one side is a small constant
	opLeI
	opGtI
	opGeI
	opEqI
	opNeI
	opEqB  // n[a] = b2i(n[b] == n[c])
	opNeB  // n[a] = b2i(n[b] != n[c])
	opAndB // n[a] = n[b] & n[c] (operands are 0/1; both sides always evaluated, like the walker)
	opOrB  // n[a] = n[b] | n[c]
	opNotB // n[a] = 1 - n[b]

	opAbsF  // f[a] = math.Abs(f[b])
	opSqrtF // f[a] = math.Sqrt(f[b])
	opMinF  // f[a] = math.Min(f[b], f[c])
	opMaxF  // f[a] = math.Max(f[b], f[c])

	opLdLoc1 // f[a] = env.ReadLocal(reals[b], n[c]) — compiler-proven local / replicated
	opLdLoc2 // f[a] = env.ReadLocal2(reals[b], n[c], n[d])
	opLd1    // f[a] = env.Read(reals[b], n[c]) — affine/indirect schedule path
	opLd2    // f[a] = env.Read2(reals[b], n[c], n[d])
	opLdInt1 // n[a] = env.ReadInt(ints[b], n[c])
	opLdInt2 // n[a] = env.ReadInt2(ints[b], n[c], n[d])
	opSt1    // env.Write(reals[b], n[c], f[a]) — owner-computes, bounds-checked
	opSt2    // env.Write2(reals[b], n[c], n[d], f[a])

	// The top level's own instructions.  An array access comes in a
	// rank-1, a rank-2 and a rank-N form (compile.go, comp.subs); rank
	// N > 2 passes the d registers from n[c] on as the coordinates.
	opEscape  // statement-level code: cb.escapes[a] (vmState.escape)
	opGet1    // f[a] = reals[b].Get1(n[c]) — replicated arrays only
	opGet2    // f[a] = reals[b].Get2(n[c], n[d])
	opGetN    // f[a] = reals[b].Get(n[c:c+d]...)
	opGetInt1 // n[a] = ints[b].Get1(n[c])
	opGetInt2
	opGetIntN
	opOwn1 // if !reals[b].IsLocal1(n[c]) → pc = a: an indexed store's owner test
	opOwn2
	opOwnN
	opOwnInt1 // if !ints[b].IsLocal1(n[c]) → pc = a
	opOwnInt2
	opOwnIntN
	opPut1 // reals[b].Set1(n[c], f[a])
	opPut2
	opPutN
	opPutInt1 // ints[b].Set1(n[c], n[a])
	opPutInt2
	opPutIntN
	opBump // ints[b].Bump(): the contents of an integer array changed
)

// pure reports whether op only moves values between registers: it
// makes no cost-model charge, no Env call and no jump, so a flop charge
// may be reordered across it (comp.charge).  The opcode block keeps
// these contiguous, between the control-flow and the array opcodes.
func (op opcode) pure() bool { return op >= opMovF && op <= opMaxF }

// instr is one VM instruction.  h, on real-array loads and stores,
// is the instruction's entry in the body's hoist table plus one; zero
// means the access always takes the Env path.
type instr struct {
	op         opcode
	a, b, c, d int32
	h          int32
}

// hoist describes one load or store the segment kernel may run against
// a raw row: over a segment lo..hi of the innermost index variable
// (outer index i; zero in rank-1 bodies) it touches, in order, elements
// lo+colK..hi+colK of the array in slot — of its row rowA*i+rowK when
// the array has rank 2.  A tested load is one the Env path makes
// through Read or Read2 (an affine or indirect read, opLd1/opLd2): in
// the boundary it tests locality and may search the receive buffer.
type hoist struct {
	slot             int32
	store, tested    bool
	rank             int
	rowA, rowK, colK int
}

// readCharges are the charges a tested load makes per element ahead of
// its memory reference (forall.Env.ReadSpan1): none, a locality test,
// or a locality test and a range search that costs search.
type readCharges struct {
	checks int
	search float64
}

// fInit / iInit preset a pinned register at vmState creation (constant
// pools live in registers, loaded once per node instead of once per
// element).
type fInit struct {
	reg int32
	v   float64
}
type iInit struct {
	reg int32
	v   int
}

// scalarInput binds a global scalar to a register.  In a forall body
// the scalar is immutable within one execution — the checker forbids
// assigning globals inside bodies — and launch refreshes the register;
// at the top level the register is the scalar's home, and escape writes
// it back to the global frame and reads it again.
type scalarInput struct {
	slot int // in the interpreter's global frame
	t    BaseType
	reg  int32
}

// escape is an opEscape's statement-level code: a reduce, a
// redistribute, or a run of adjacent foralls with each one's bound
// registers (Lo, Hi, Lo2, Hi2; the last two unused at rank 1).
type escape struct {
	stmts  []Stmt
	bounds [][4]int32
}

// compiledBody is the immutable output of compileBody, shared by every
// node's vmState.
type compiledBody struct {
	name string
	rank int // 1 or 2 index variables
	code []instr

	nF, nI     int32 // register file sizes
	iReg, jReg int32 // index-variable registers

	initF  []fInit
	initI  []iInit
	constI []int // pool for opLinI coefficients

	scalars []scalarInput
	escapes []escape // the top level's

	hoists []hoist

	// col is the body's column-wise form (compile.go, columnKernel);
	// nil for a body that runs an element at a time.
	col *colKernel
}

// vmState is one node's execution state for one compiled body: the
// register files and the node's array tables, which array operands
// index by Symbol.Slot.  Created once per forall (and once for the top
// level) per node; reused across sweeps with zero allocation.
type vmState struct {
	cb *compiledBody
	f  []float64
	n  []int
	ra []*darray.Array
	ia []*darray.IntArray
	in *interp

	// Segment-kernel state.  views[h] is the row slice instruction
	// hoist h resolved to for the current segment (nil: take the Env
	// path), pre[h] what its read charges per element ahead of the
	// memory reference; entry 0 stays nil for instructions without a
	// hoist.  noViews is the views table, all nil, for per-element
	// execution.  cell and units are the node's clock cell and unit
	// prices (machine.Node.ClockCell); idle stands in for the cell when
	// the engine, not the VM, owns the clock.
	node    *machine.Node
	views   [][]float64
	pre     []readCharges
	noViews [][]float64
	cell    *float64
	units   machine.UnitCosts
	idle    float64

	// Column-wise state (cb.col != nil).  fv and nv are the vector
	// files: one vector per register the live code touches, width
	// elements each, cut from one slab per file; the slabs are sized by
	// the longest segment seen, up to colStrip, and only ever grow.  The
	// float vectors past col.nF belong to loads and are pointed at the
	// row views strip by strip; fs and ns hold one scalar per vector for
	// a run of one (point).  step advances the clock by whole
	// elements of the interior, where no read charges ahead of its
	// memory reference; steps holds one stepper for each classification
	// of the reads a boundary run has shown, made when first seen.
	// colIters and bndColIters count the iterations of the interior and
	// of the boundary run this way.
	fv          [][]float64
	nv          [][]int
	fs          []float64
	ns          []int
	width       int
	step        *machine.ClockStep
	steps       []classStep
	colIters    int
	bndColIters int
}

// classStep is the clock stepper of one classification of a body's
// reads: the read charges of every hoist, as resolve left them.
type classStep struct {
	pre  []readCharges
	step *machine.ClockStep
}

// colStrip is the most elements the column-wise kernel runs through one
// instruction before moving to the next: a dozen vectors of this length
// stay inside a 32 KiB L1 data cache, and a longer strip buys nothing
// once the dispatch is amortised over a few hundred elements.
const colStrip = 256

func newVMState(cb *compiledBody, in *interp) *vmState {
	st := &vmState{
		cb:   cb,
		f:    make([]float64, cb.nF),
		n:    make([]int, cb.nI),
		ra:   in.realArrs,
		ia:   in.intArrs,
		in:   in,
		node: in.ctx.Node,
	}
	if cb.rank > 0 {
		st.views = make([][]float64, len(cb.hoists)+1)
		st.pre = make([]readCharges, len(cb.hoists)+1)
		st.noViews = make([][]float64, len(cb.hoists)+1)
	}
	if len(cb.hoists) > 0 {
		st.cell, st.units = st.node.ClockCell()
	}
	if col := cb.col; col != nil && st.cell != nil {
		st.step = machine.NewClockStep(st.charges())
		st.fv = make([][]float64, col.nF+col.nLoad)
		st.nv = make([][]int, col.nI)
		st.fs = make([]float64, col.nF+col.nLoad)
		st.ns = make([]int, col.nI)
	}
	for _, c := range cb.initF {
		st.f[c.reg] = c.v
	}
	for _, c := range cb.initI {
		st.n[c.reg] = c.v
	}
	return st
}

// bindScalars refreshes the global-scalar registers from the node's
// global frame: a body's once per launch (the values cannot change
// mid-loop), the top level's after every escape.
func (st *vmState) bindScalars() {
	for _, s := range st.cb.scalars {
		v := &st.in.globals[s.slot]
		switch s.t {
		case TReal:
			st.f[s.reg] = v.f
		case TInt:
			st.n[s.reg] = v.i
		default:
			st.n[s.reg] = b2i(v.b)
		}
	}
}

// flush writes the top level's global-scalar registers back to the
// node's global frame: before every escape, whose launches and reduce
// read the frame, and at the end, for Result.Scalars.
func (st *vmState) flush() {
	for _, s := range st.cb.scalars {
		v := &st.in.globals[s.slot]
		switch s.t {
		case TReal:
			*v = realVal(st.f[s.reg])
		case TInt:
			*v = intVal(st.n[s.reg])
		default:
			*v = boolVal(st.n[s.reg] != 0)
		}
	}
}

// escape runs an opEscape's statement-level code — a run of foralls,
// launched with the bounds their registers hold, a reduce or a
// redistribute — between a flush and a bindScalars, so that it sees
// the globals and the next instruction sees what a reduce wrote.
func (st *vmState) escape(e *escape) {
	in := st.in
	st.flush()
	switch s := e.stmts[0].(type) {
	case *Forall:
		in.bounds = in.bounds[:0]
		for _, r := range e.bounds {
			in.bounds = append(in.bounds, [4]int{st.n[r[0]], st.n[r[1]], st.n[r[2]], st.n[r[3]]})
		}
		in.execForalls(e.stmts, in.bounds)
	case *Reduce:
		in.execReduce(s)
	default:
		in.redistribute(s.(*Redistribute))
	}
	st.bindScalars()
}

// body1 / body2 are the forall.Loop body entry points (method values,
// bound once when the loop is built): one iteration, every access
// through Env, charges made by the engine and the Env.
func (st *vmState) body1(i int, env *forall.Env) { st.run(0, i, i, env, false) }

func (st *vmState) body2(i, j int, env *forall.Env) { st.run(i, j, j, env, false) }

// segment1 / segment2 are the forall.Loop Segment entry points, for a
// run of the interior or of the boundary: the whole run against
// resolved views — column-wise when the body has that form and every
// view resolved, else element by element in run's segment mode — or
// false, when nothing resolved, to have the engine run it per element.
func (st *vmState) segment1(lo, hi int, env *forall.Env) bool {
	return st.segment2(0, lo, hi, env)
}

func (st *vmState) segment2(i, jLo, jHi int, env *forall.Env) bool {
	n, tested := st.resolve(i, jLo, jHi, env)
	if n == 0 {
		return false
	}
	if n < len(st.cb.hoists) && jHi-jLo >= 2 && st.step != nil && env.Nonlocal() {
		if st.peel(i, jLo, jHi, env) {
			return true
		}
		n, tested = st.resolve(i, jLo, jHi, env)
	}
	st.exec(i, jLo, jHi, env, n, tested)
	return true
}

// exec runs lo..hi against the views resolve has just made, n of them,
// with reads that test locality if tested: in run's segment mode unless
// every view resolved and the body has a column-wise form, else as a
// column, or for one element as a point.  A run of one element is no
// column: dispatching the live instructions once each on vectors of one
// costs more than running them on registers (BenchmarkVMSegmentLength:
// about 140 against 120 ns at length 1, 68 against 88 ns at length 2),
// and running them on scalars costs less again (a halo column,
// BenchmarkBoundaryRun/column: about 180 against 225 ns an element).
func (st *vmState) exec(i, lo, hi int, env *forall.Env, n int, tested bool) {
	switch {
	case n < len(st.cb.hoists) || st.step == nil:
		st.run(i, lo, hi, env, true)
	case hi > lo:
		st.column(i, lo, hi, st.stepFor(tested), env.Nonlocal())
	default:
		st.point(i, lo, st.stepFor(tested))
	}
}

// peel runs a boundary run whose views did not all resolve as a column
// of all but its last element and then that element, or its first
// element and then a column of the rest, if that column resolves: the
// first or last element of a halo row is often the one read across the
// corner of the node's block, into another node's part of the array.
// It runs nothing and reports false when neither column resolves.
func (st *vmState) peel(i, lo, hi int, env *forall.Env) bool {
	all := len(st.cb.hoists)
	if n, tested := st.resolve(i, lo, hi-1, env); n == all {
		st.exec(i, lo, hi-1, env, n, tested)
		n, tested = st.resolve(i, hi, hi, env)
		st.exec(i, hi, hi, env, n, tested)
		return true
	}
	if n, _ := st.resolve(i, lo+1, hi, env); n != all {
		return false
	}
	n, tested := st.resolve(i, lo, lo, env)
	st.exec(i, lo, lo, env, n, tested)
	n, tested = st.resolve(i, lo+1, hi, env)
	st.exec(i, lo+1, hi, env, n, tested)
	return true
}

// hasSegment reports whether the body can run segments at all: it has
// hoistable accesses and the node's clock can be held in a register.
// Loops get the segment entry points only then.
func (st *vmState) hasSegment() bool { return st.cell != nil }

// resolve fills views and pre for the run lo..hi (outer index i): a
// tested load resolves through Env.ReadSpan*, to the array's row span in
// the interior and in the boundary to the row span or a run of the
// receive buffer, with the charges its reads make there; any other load
// resolves to the row span when all of it is in the local window;
// stores additionally need the engine's leave to bypass the write log
// (Env.WriteSpan*).  If one store to an array does not resolve, none to
// that array may: direct and logged stores to one array must not mix
// within a loop execution.  It returns the number of views resolved,
// and whether a resolved read charges ahead of its memory reference.
func (st *vmState) resolve(i, lo, hi int, env *forall.Env) (resolved int, tested bool) {
	hoists := st.cb.hoists
	refused := false
	for k := range hoists {
		h := &hoists[k]
		a := st.ra[h.slot]
		row, cLo, cHi := h.rowA*i+h.rowK, lo+h.colK, hi+h.colK
		p := &st.pre[k+1]
		*p = readCharges{}
		var v []float64
		switch {
		case h.store && h.rank == 2:
			v = env.WriteSpan2(a, row, cLo, cHi)
		case h.store:
			v = env.WriteSpan1(a, cLo, cHi)
		case h.tested && h.rank == 2:
			v, p.checks, p.search = env.ReadSpan2(a, row, cLo, cHi)
		case h.tested:
			v, p.checks, p.search = env.ReadSpan1(a, cLo, cHi)
		case h.rank == 2:
			v = a.Span2(row, cLo, cHi)
		default:
			v = a.Span1(cLo, cHi)
		}
		st.views[k+1] = v
		if v != nil {
			resolved++
		}
		refused = refused || (h.store && v == nil)
		tested = tested || p.checks > 0
	}
	for k := range hoists {
		if !refused {
			break
		}
		if hoists[k].store && st.views[k+1] == nil {
			for k2 := range hoists {
				if hoists[k2].store && hoists[k2].slot == hoists[k].slot && st.views[k2+1] != nil {
					st.views[k2+1] = nil
					resolved--
				}
			}
		}
	}
	return resolved, tested
}

// charges is the charge sequence of one element of the column-wise body
// under the read charges resolve left in pre: its LoopIter, then in
// instruction order each access's read charges and memory reference and
// each opFlops's unit flops.
func (st *vmState) charges() []float64 {
	u := st.units
	out := []float64{u.LoopIter}
	for _, k := range st.cb.col.charges {
		if k < 0 {
			p := &st.pre[-k]
			if p.checks > 0 {
				out = append(out, u.LocTest)
			}
			if p.checks > 1 {
				out = append(out, p.search)
			}
			out = append(out, u.MemRef)
		}
		for ; k > 0; k-- {
			out = append(out, u.Flop)
		}
	}
	return out
}

// stepFor returns the clock stepper of the column-wise body under the
// read charges in pre: the interior's when no read charges ahead of its
// memory reference, else the one of that classification, made the
// first time it is seen.
func (st *vmState) stepFor(tested bool) *machine.ClockStep {
	if !tested {
		return st.step
	}
	for k := range st.steps {
		if slices.Equal(st.steps[k].pre, st.pre) {
			return st.steps[k].step
		}
	}
	c := classStep{pre: slices.Clone(st.pre), step: machine.NewClockStep(st.charges())}
	st.steps = append(st.steps, c)
	return c.step
}

// column runs the segment lo..hi (outer index i) a column at a time:
// each live instruction of the body once across the segment, on
// vectors, instead of the whole body once per element.  The caller has
// resolved every view, so nothing here can fail or reach the Env.
// Loads alias the row view, a store is one copy, and the rest are
// loops the compiler keeps free of bounds checks; segments longer than
// colStrip go strip by strip, so the vectors stay in cache.  The clock
// then moves once, by step — to the same bits as run's per-element
// additions.  The run is the boundary's if nonlocal.
func (st *vmState) column(i, lo, hi int, step *machine.ClockStep, nonlocal bool) {
	cb, col := st.cb, st.cb.col
	m := hi - lo + 1
	if w := min(m, colStrip); w > st.width {
		st.growVectors(w)
	}
	fv, nv := st.fv, st.nv
	// A broadcast vector is uniformly its input's value or stale: the
	// first element tells.  Constants fill once per slab, global scalars
	// when a launch rebinds them, the outer index variable per segment.
	if cb.rank == 2 {
		st.n[cb.iReg] = i
	}
	for _, in := range col.inF {
		if v, x := fv[in.vec], st.f[in.reg]; math.Float64bits(v[0]) != math.Float64bits(x) {
			for k := range v {
				v[k] = x
			}
		}
	}
	for _, in := range col.inI {
		if v, x := nv[in.vec], st.n[in.reg]; v[0] != x {
			for k := range v {
				v[k] = x
			}
		}
	}
	for off := 0; off < m; off += colStrip {
		n := min(colStrip, m-off)
		if col.iota >= 0 {
			x := nv[col.iota][:n]
			for k := range x {
				x[k] = lo + off + k
			}
		}
		for pc := range col.code {
			ins := &col.code[pc]
			switch ins.op {
			case opLdLoc1, opLdLoc2, opLd1, opLd2:
				fv[ins.a] = st.views[ins.h][off : off+n]
			case opSt1, opSt2:
				copy(st.views[ins.h][off:off+n], fv[ins.a])
			case opMovF:
				copy(fv[ins.a][:n], fv[ins.b])
			case opMovI:
				copy(nv[ins.a][:n], nv[ins.b])

			case opNegF, opAbsF, opSqrtF:
				a, b := fv[ins.a][:n], fv[ins.b][:n]
				switch ins.op {
				case opNegF:
					for k := range a {
						a[k] = -b[k]
					}
				case opAbsF:
					for k := range a {
						a[k] = math.Abs(b[k])
					}
				default:
					for k := range a {
						a[k] = math.Sqrt(b[k])
					}
				}
			case opAddF, opSubF, opMulF, opDivF, opMinF, opMaxF:
				a, b, c := fv[ins.a][:n], fv[ins.b][:n], fv[ins.c][:n]
				switch ins.op {
				case opAddF:
					for k := range a {
						a[k] = b[k] + c[k]
					}
				case opSubF:
					for k := range a {
						a[k] = b[k] - c[k]
					}
				case opMulF:
					for k := range a {
						a[k] = b[k] * c[k]
					}
				case opDivF:
					for k := range a {
						a[k] = b[k] / c[k]
					}
				case opMinF:
					for k := range a {
						a[k] = math.Min(b[k], c[k])
					}
				default:
					for k := range a {
						a[k] = math.Max(b[k], c[k])
					}
				}
			case opIntToF:
				a, b := fv[ins.a][:n], nv[ins.b][:n]
				for k := range a {
					a[k] = float64(b[k])
				}
			case opTruncI:
				a, b := nv[ins.a][:n], fv[ins.b][:n]
				for k := range a {
					a[k] = int(b[k])
				}

			case opNegI:
				a, b := nv[ins.a][:n], nv[ins.b][:n]
				for k := range a {
					a[k] = -b[k]
				}
			case opAddI, opSubI, opMulI:
				a, b, c := nv[ins.a][:n], nv[ins.b][:n], nv[ins.c][:n]
				switch ins.op {
				case opAddI:
					for k := range a {
						a[k] = b[k] + c[k]
					}
				case opSubI:
					for k := range a {
						a[k] = b[k] - c[k]
					}
				default:
					for k := range a {
						a[k] = b[k] * c[k]
					}
				}

			default:
				panic(fmt.Sprintf("lang: vm: opcode %d in column-wise code", ins.op))
			}
		}
	}
	st.advance(m, step)
	if nonlocal {
		st.bndColIters += m
	} else {
		st.colIters += m
	}
}

// advance accounts for m elements of the column-wise code: the clock
// stepped by step, and the flops.
func (st *vmState) advance(m int, step *machine.ClockStep) {
	*st.cell = step.Advance(*st.cell, m)
	if col := st.cb.col; col.flops != 0 {
		st.node.AddFlopCount(col.flops * int64(m))
	}
}

// point runs the one element j (outer index i) of a run whose every
// view resolved through the column-wise code with a scalar in place of
// each vector: the live instructions once each, the charges by one
// step.  It is not counted as column-wise.
func (st *vmState) point(i, j int, step *machine.ClockStep) {
	cb, col := st.cb, st.cb.col
	f, n := st.fs, st.ns
	st.n[cb.iReg] = i
	for _, in := range col.inF {
		f[in.vec] = st.f[in.reg]
	}
	for _, in := range col.inI {
		n[in.vec] = st.n[in.reg]
	}
	if col.iota >= 0 {
		n[col.iota] = j
	}
	for pc := range col.code {
		switch ins := &col.code[pc]; ins.op {
		case opLdLoc1, opLdLoc2, opLd1, opLd2:
			f[ins.a] = st.views[ins.h][0]
		case opSt1, opSt2:
			st.views[ins.h][0] = f[ins.a]
		case opMovF:
			f[ins.a] = f[ins.b]
		case opMovI:
			n[ins.a] = n[ins.b]
		case opNegF:
			f[ins.a] = -f[ins.b]
		case opAbsF:
			f[ins.a] = math.Abs(f[ins.b])
		case opSqrtF:
			f[ins.a] = math.Sqrt(f[ins.b])
		case opAddF:
			f[ins.a] = f[ins.b] + f[ins.c]
		case opSubF:
			f[ins.a] = f[ins.b] - f[ins.c]
		case opMulF:
			f[ins.a] = f[ins.b] * f[ins.c]
		case opDivF:
			f[ins.a] = f[ins.b] / f[ins.c]
		case opMinF:
			f[ins.a] = math.Min(f[ins.b], f[ins.c])
		case opMaxF:
			f[ins.a] = math.Max(f[ins.b], f[ins.c])
		case opIntToF:
			f[ins.a] = float64(n[ins.b])
		case opTruncI:
			n[ins.a] = int(f[ins.b])
		case opNegI:
			n[ins.a] = -n[ins.b]
		case opAddI:
			n[ins.a] = n[ins.b] + n[ins.c]
		case opSubI:
			n[ins.a] = n[ins.b] - n[ins.c]
		case opMulI:
			n[ins.a] = n[ins.b] * n[ins.c]
		default:
			panic(fmt.Sprintf("lang: vm: opcode %d in column-wise code", ins.op))
		}
	}
	st.advance(1, step)
}

// growVectors re-cuts the vector files at w elements a vector, from one
// fresh slab per file: the broadcast vectors come back zero and refill
// on their next use.
func (st *vmState) growVectors(w int) {
	col := st.cb.col
	st.width = w
	fslab, nslab := make([]float64, int(col.nF)*w), make([]int, int(col.nI)*w)
	for v := 0; v < int(col.nF); v++ {
		st.fv[v] = fslab[v*w : (v+1)*w]
	}
	for v := range st.nv {
		st.nv[v] = nslab[v*w : (v+1)*w]
	}
}

// run executes the compiled body for iterations lo..hi of the
// innermost index variable (outer index i, unused in rank-1 bodies).
//
// With seg false it is the per-element path: the engine has charged
// the iteration, every access and every flop charge goes through env,
// in any Env mode.  With seg true (executor interior only) the VM owns
// the clock for the whole segment: t is the node's virtual clock held
// in a local, every charge is the float addition the per-element path
// would make at that point, hoisted accesses index their row view by
// the iteration's offset in the segment, and t is written back around
// each remaining Env call and at the end.
func (st *vmState) run(i, lo, hi int, env *forall.Env, seg bool) {
	cb := st.cb
	f, n := st.f, st.n
	code, constI := cb.code, cb.constI
	segReg := cb.iReg
	if cb.rank == 2 {
		n[cb.iReg] = i
		segReg = cb.jReg
	}
	// Per element the cell is a dummy and the prices zero, so the
	// clock arithmetic below is dead but needs no branches.
	views, pre, cell := st.noViews, st.pre, &st.idle
	var u machine.UnitCosts
	if seg {
		views, cell, u = st.views, st.cell, st.units
	}
	t := *cell
	flops := int64(0)
	for x := lo; x <= hi; x++ {
		n[segReg] = x
		k := x - lo
		t += u.LoopIter
	body:
		for pc := 0; ; {
			ins := &code[pc]
			pc++
			switch ins.op {
			case opRet:
				break body
			case opFlops:
				// Replayed as unit charges: the walker calls Flops(1) per
				// operator, and the simulated clock is a float accumulator,
				// so both the unit size and the order of charges are
				// observable.  One opFlops k == k adjacent walker charges;
				// FlopsUnit performs exactly those k unit advances, and so
				// does the loop on the held clock.
				if seg {
					for c := ins.a; c > 0; c-- {
						t += u.Flop
					}
					flops += int64(ins.a)
				} else {
					env.FlopsUnit(int(ins.a))
				}
			case opJmp:
				pc = int(ins.a)
			case opJmpIfNot:
				if n[ins.b] == 0 {
					pc = int(ins.a)
				}
			case opJmpGtI:
				if n[ins.b] > n[ins.c] {
					pc = int(ins.a)
				}
			case opLoopI:
				if n[ins.b]++; n[ins.b] <= n[ins.c] {
					pc = int(ins.a)
				}

			case opMovF:
				f[ins.a] = f[ins.b]
			case opMovI:
				n[ins.a] = n[ins.b]
			case opIntToF:
				f[ins.a] = float64(n[ins.b])
			case opTruncI:
				n[ins.a] = int(f[ins.b])

			case opNegF:
				f[ins.a] = -f[ins.b]
			case opNegI:
				n[ins.a] = -n[ins.b]
			case opAddF:
				f[ins.a] = f[ins.b] + f[ins.c]
			case opSubF:
				f[ins.a] = f[ins.b] - f[ins.c]
			case opMulF:
				f[ins.a] = f[ins.b] * f[ins.c]
			case opDivF:
				f[ins.a] = f[ins.b] / f[ins.c]
			case opAddI:
				n[ins.a] = n[ins.b] + n[ins.c]
			case opSubI:
				n[ins.a] = n[ins.b] - n[ins.c]
			case opMulI:
				n[ins.a] = n[ins.b] * n[ins.c]
			case opDivI:
				n[ins.a] = n[ins.b] / n[ins.c]
			case opModI:
				n[ins.a] = n[ins.b] % n[ins.c]
			case opLinI:
				n[ins.a] = n[ins.b]*constI[ins.c] + constI[ins.d]

			case opLtF:
				n[ins.a] = b2i(f[ins.b] < f[ins.c])
			case opLeF:
				n[ins.a] = b2i(f[ins.b] <= f[ins.c])
			case opGtF:
				n[ins.a] = b2i(f[ins.b] > f[ins.c])
			case opGeF:
				n[ins.a] = b2i(f[ins.b] >= f[ins.c])
			case opEqF:
				n[ins.a] = b2i(f[ins.b] == f[ins.c])
			case opNeF:
				n[ins.a] = b2i(f[ins.b] != f[ins.c])
			case opLtI:
				n[ins.a] = b2i(n[ins.b] < n[ins.c])
			case opLeI:
				n[ins.a] = b2i(n[ins.b] <= n[ins.c])
			case opGtI:
				n[ins.a] = b2i(n[ins.b] > n[ins.c])
			case opGeI:
				n[ins.a] = b2i(n[ins.b] >= n[ins.c])
			case opEqI:
				n[ins.a] = b2i(n[ins.b] == n[ins.c])
			case opNeI:
				n[ins.a] = b2i(n[ins.b] != n[ins.c])
			case opEqB:
				n[ins.a] = b2i(n[ins.b] == n[ins.c])
			case opNeB:
				n[ins.a] = b2i(n[ins.b] != n[ins.c])
			case opAndB:
				n[ins.a] = n[ins.b] & n[ins.c]
			case opOrB:
				n[ins.a] = n[ins.b] | n[ins.c]
			case opNotB:
				n[ins.a] = 1 - n[ins.b]

			case opAbsF:
				f[ins.a] = math.Abs(f[ins.b])
			case opSqrtF:
				f[ins.a] = math.Sqrt(f[ins.b])
			case opMinF:
				f[ins.a] = math.Min(f[ins.b], f[ins.c])
			case opMaxF:
				f[ins.a] = math.Max(f[ins.b], f[ins.c])

			// Real-array loads: through the view when this run resolved
			// one — the read's charges and an indexed load, what the Env
			// call amounts to — else through Env.
			case opLdLoc1, opLdLoc2, opLd1, opLd2:
				if v := views[ins.h]; v != nil {
					if p := &pre[ins.h]; p.checks > 0 {
						t += u.LocTest
						if p.checks > 1 {
							t += p.search
						}
					}
					t += u.MemRef
					f[ins.a] = v[k]
					continue
				}
				*cell = t
				a, i, j := st.ra[ins.b], n[ins.c], n[ins.d]
				switch ins.op {
				case opLdLoc1:
					f[ins.a] = env.ReadLocal(a, i)
				case opLdLoc2:
					f[ins.a] = env.ReadLocal2(a, i, j)
				case opLd1:
					f[ins.a] = env.Read(a, i)
				default:
					f[ins.a] = env.Read2(a, i, j)
				}
				t = *cell
			case opLdInt1:
				*cell = t
				n[ins.a] = env.ReadInt(st.ia[ins.b], n[ins.c])
				t = *cell
			case opLdInt2:
				*cell = t
				n[ins.a] = env.ReadInt2(st.ia[ins.b], n[ins.c], n[ins.d])
				t = *cell
			case opSt1, opSt2:
				if v := views[ins.h]; v != nil {
					t += u.MemRef
					v[k] = f[ins.a]
					continue
				}
				*cell = t
				if ins.op == opSt1 {
					env.Write(st.ra[ins.b], st.lin1(ins.b, n[ins.c]), f[ins.a])
				} else {
					env.Write2(st.ra[ins.b], n[ins.c], n[ins.d], f[ins.a])
				}
				t = *cell

			// The top level: uncharged, no Env.
			case opEscape:
				st.escape(&cb.escapes[ins.a])
			case opGet1:
				f[ins.a] = st.ra[ins.b].Get1(n[ins.c])
			case opGet2:
				f[ins.a] = st.ra[ins.b].Get2(n[ins.c], n[ins.d])
			case opGetN:
				f[ins.a] = st.ra[ins.b].Get(n[ins.c : ins.c+ins.d]...)
			case opGetInt1:
				n[ins.a] = st.ia[ins.b].Get1(n[ins.c])
			case opGetInt2:
				n[ins.a] = st.ia[ins.b].Get2(n[ins.c], n[ins.d])
			case opGetIntN:
				n[ins.a] = st.ia[ins.b].Get(n[ins.c : ins.c+ins.d]...)
			case opOwn1:
				if !st.ra[ins.b].IsLocal1(n[ins.c]) {
					pc = int(ins.a)
				}
			case opOwn2:
				if !st.ra[ins.b].IsLocal2(n[ins.c], n[ins.d]) {
					pc = int(ins.a)
				}
			case opOwnN:
				if !st.ra[ins.b].IsLocal(n[ins.c : ins.c+ins.d]...) {
					pc = int(ins.a)
				}
			case opOwnInt1:
				if !st.ia[ins.b].IsLocal1(n[ins.c]) {
					pc = int(ins.a)
				}
			case opOwnInt2:
				if !st.ia[ins.b].IsLocal2(n[ins.c], n[ins.d]) {
					pc = int(ins.a)
				}
			case opOwnIntN:
				if !st.ia[ins.b].IsLocal(n[ins.c : ins.c+ins.d]...) {
					pc = int(ins.a)
				}
			case opPut1:
				st.ra[ins.b].Set1(n[ins.c], f[ins.a])
			case opPut2:
				st.ra[ins.b].Set2(n[ins.c], n[ins.d], f[ins.a])
			case opPutN:
				st.ra[ins.b].Set(f[ins.a], n[ins.c:ins.c+ins.d]...)
			case opPutInt1:
				st.ia[ins.b].Set1(n[ins.c], n[ins.a])
			case opPutInt2:
				st.ia[ins.b].Set2(n[ins.c], n[ins.d], n[ins.a])
			case opPutIntN:
				st.ia[ins.b].Set(n[ins.a], n[ins.c:ins.c+ins.d]...)
			case opBump:
				st.ia[ins.b].Bump()

			default:
				panic(fmt.Sprintf("lang: vm: bad opcode %d", ins.op))
			}
		}
	}
	*cell = t
	if flops != 0 {
		st.node.AddFlopCount(flops)
	}
}

// lin1 bounds-checks a rank-1 store coordinate (matching
// darray.linearize, which the walker reaches through Array.Linear).
func (st *vmState) lin1(slot int32, i int) int {
	if n := st.ra[slot].Size(); i < 1 || i > n {
		panic(fmt.Sprintf("darray: coordinate %d out of [1..%d] in dim 0", i, n))
	}
	return i
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
