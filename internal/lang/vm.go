package lang

import (
	"fmt"
	"math"

	"kali/internal/darray"
	"kali/internal/forall"
	"kali/internal/machine"
)

// This file is the execution half of the forall-body bytecode pipeline
// (compile.go is the lowering half).  A compiled body is a flat
// instruction array over two typed register files — float64 registers
// for real values and int registers for integers and booleans (0/1) —
// with the node's array headers bound to numbered slots and all scope
// resolution done at compile time.  Executing one iteration walks the
// instruction array with no allocation, no map lookups, and no
// interface boxing; all distributed-memory semantics stay behind the
// same forall.Env calls the tree-walking interpreter uses, so the two
// paths are observably identical (same values, same machine.Stats,
// same schedules) — the VM only removes host-side interpretive
// overhead.
//
// Cost-model parity: the tree walker charges Env.Flops(1) per binary
// operator, unary minus, and builtin call as it evaluates, interleaved
// with its reads' memory-reference charges.  The compiler emits
// opFlops at those same AST positions — including for nodes it
// constant-folds or strength-reduces away — and the VM replays each
// opFlops k as k unit charges, reproducing the walker's exact charge
// sequence.  Simulated times and FlopCount match the walker
// bit-for-bit while the host does less work.
//
// Three tiers.  The paper's Figure 3 executor separates local from
// nonlocal iterations so that the local ones need no locality test, no
// buffer search and no per-reference bookkeeping (§3.1); the VM takes
// that literally for a schedule's interior.  Which tier runs is decided
// by what the code observes — the body's shape at compile time, the
// views that resolved for this segment at run time — never by a flag:
//
//   - Env path (body1/body2 → run, one element): boundary iterations,
//     the inspector's recording pass, declined segments.  Every access
//     and every charge goes through the Env.
//   - Per-element segment mode (segment1/segment2 → run over a span).
//     forall hands over whole row segments (Loop.Segment); per segment,
//     resolve turns every hoistable load and store (compile.go:
//     subscripts of the row form (f(i), j+c)) into a slice of the
//     node's local row — the locality and owner-computes checks made
//     once for the whole span — and run then executes the iterations of
//     the segment against those slices, with the virtual clock in a
//     local variable, replaying the same float additions in the same
//     order the per-element path makes (LoopIter, then MemRef and unit
//     Flop charges where the walker makes them).  Whatever does not
//     resolve — other subscript forms, integer arrays, a span that
//     leaves the local window, stores that must be logged — takes the
//     same Env call as before, with the clock written back around it; a
//     segment in which nothing resolves is declined and runs per
//     element.  These two tiers share the one interpreter loop.
//   - Column-wise (segment1/segment2 → column): a straight-line body
//     (compile.go, columnKernel: no jump, every real-array access
//     hoisted, no integer-array load, no integer div or mod, one
//     subscript form per stored array) whose every view resolved, over
//     a segment of at least two elements.  Each live instruction runs
//     once across the segment on per-register vectors instead of the
//     whole body once per element, and the clock moves once, through
//     machine.ClockStep: within one binade of the clock each charge
//     adds a fixed whole number of ulps, so m elements are one integer
//     multiply-add on the clock's bit pattern, guarded (no charge an
//     exact tie at that ulp, none negative or non-finite, the mantissa
//     not carrying, the clock positive and normal) and falling back to
//     the literal additions — bit-identical either way.
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
	opJmpGtI                 // if n[b] > n[c] → pc = a (for-loop exit)

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
	opIncI // n[a]++
	opLinI // n[a] = n[b]*constI[c] + constI[d] (strength-reduced affine subscript)

	opLtF // n[a] = b2i(f[b] < f[c]) — ints widen first, matching the walker's float compares
	opLeF
	opGtF
	opGeF
	opEqF
	opNeF
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
// a raw local row: over a segment lo..hi of the innermost index
// variable (outer index i; zero in rank-1 bodies) it touches, in
// order, elements lo+colK..hi+colK of the array in slot — of its row
// rowA*i+rowK when the array has rank 2.
type hoist struct {
	slot             int32
	store            bool
	rank             int
	rowA, rowK, colK int
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

// scalarInput binds a global scalar (immutable within one forall
// execution — the checker forbids assigning globals inside bodies) to
// a pinned register; execForall refreshes the values at each launch.
type scalarInput struct {
	slot int // in the interpreter's global frame
	t    BaseType
	reg  int32
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

	hoists []hoist

	// col is the body's column-wise form (compile.go, columnKernel);
	// nil for a body that runs an element at a time.
	col *colKernel
}

// vmState is one node's execution state for one compiled body: the
// register files and the node's array tables, which array operands
// index by Symbol.Slot.  Created once per forall per node; reused
// across sweeps with zero allocation.
type vmState struct {
	cb *compiledBody
	f  []float64
	n  []int
	ra []*darray.Array
	ia []*darray.IntArray

	// Segment-kernel state.  views[h] is the row slice instruction
	// hoist h resolved to for the current segment (nil: take the Env
	// path); entry 0 stays nil for instructions without a hoist.
	// noViews is the same table, all nil, for per-element execution.
	// cell and units are the node's clock cell and unit prices
	// (machine.Node.ClockCell); idle stands in for the cell when the
	// engine, not the VM, owns the clock.
	node    *machine.Node
	views   [][]float64
	noViews [][]float64
	cell    *float64
	units   machine.UnitCosts
	idle    float64

	// Column-wise state (cb.col != nil).  fv and nv are the vector
	// files: one vector per register the live code touches, width
	// elements each, cut from one slab per file; the slabs are sized by
	// the longest segment seen, up to colStrip, and only ever grow.  The
	// float vectors past col.nF belong to loads and are pointed at the
	// row views strip by strip.  step advances the clock by whole
	// elements; colIters counts the iterations run this way.
	fv       [][]float64
	nv       [][]int
	width    int
	step     *machine.ClockStep
	colIters int
}

// colStrip is the most elements the column-wise kernel runs through one
// instruction before moving to the next: a dozen vectors of this length
// stay inside a 32 KiB L1 data cache, and a longer strip buys nothing
// once the dispatch is amortised over a few hundred elements.
const colStrip = 256

func newVMState(cb *compiledBody, in *interp) *vmState {
	st := &vmState{
		cb:      cb,
		f:       make([]float64, cb.nF),
		n:       make([]int, cb.nI),
		ra:      in.realArrs,
		ia:      in.intArrs,
		node:    in.ctx.Node,
		views:   make([][]float64, len(cb.hoists)+1),
		noViews: make([][]float64, len(cb.hoists)+1),
	}
	if len(cb.hoists) > 0 {
		// A virtual clock without an address leaves cell nil: no
		// segment kernel, every segment runs per element.
		st.cell, st.units, _ = st.node.ClockCell()
	}
	if col := cb.col; col != nil && st.cell != nil {
		charges := []float64{st.units.LoopIter}
		for _, k := range col.charges {
			if k == 0 {
				charges = append(charges, st.units.MemRef)
			}
			for ; k > 0; k-- {
				charges = append(charges, st.units.Flop)
			}
		}
		st.step = machine.NewClockStep(charges)
		st.fv = make([][]float64, col.nF+col.nLoad)
		st.nv = make([][]int, col.nI)
	}
	for _, c := range cb.initF {
		st.f[c.reg] = c.v
	}
	for _, c := range cb.initI {
		st.n[c.reg] = c.v
	}
	return st
}

// bindScalars refreshes the global-scalar input registers from the
// interpreter's current values.  Called once per forall launch (the
// values cannot change mid-loop).
func (st *vmState) bindScalars(in *interp) {
	for _, s := range st.cb.scalars {
		v := &in.globals[s.slot]
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

// body1 / body2 are the forall.Loop body entry points (method values,
// bound once when the loop is built): one iteration, every access
// through Env, charges made by the engine and the Env.
func (st *vmState) body1(i int, env *forall.Env) { st.run(0, i, i, env, false) }

func (st *vmState) body2(i, j int, env *forall.Env) { st.run(i, j, j, env, false) }

// segment1 / segment2 are the forall.Loop Segment entry points: a
// whole interior segment against resolved row views — column-wise when
// the body has that form and every view resolved, else element by
// element in run's segment mode — or false to have the engine run it
// per element.
func (st *vmState) segment1(lo, hi int, env *forall.Env) bool {
	return st.segment2(0, lo, hi, env)
}

func (st *vmState) segment2(i, jLo, jHi int, env *forall.Env) bool {
	switch st.resolve(i, jLo, jHi, env) {
	case 0:
		return false
	case len(st.cb.hoists):
		// A segment of one element is no column: dispatching the live
		// instructions once each on vectors of one costs more than running
		// them on registers (BenchmarkVMSegmentLength: about 140 against
		// 120 ns at length 1, 68 against 88 ns at length 2).
		if st.step != nil && jHi > jLo {
			st.column(i, jLo, jHi)
			return true
		}
	}
	st.run(i, jLo, jHi, env, true)
	return true
}

// hasSegment reports whether the body can run segments at all: it has
// hoistable accesses and the node's clock can be held in a register.
// Loops get the segment entry points only then.
func (st *vmState) hasSegment() bool { return st.cell != nil }

// resolve fills views for the segment lo..hi (outer index i): loads
// resolve to the array's row span when all of it is in the local
// window, stores additionally need the engine's leave to bypass the
// write log (Env.WriteSpan*).  If one store to an array does not
// resolve, none to that array may: direct and logged stores to one
// array must not mix within a loop execution.  It returns the number
// of views resolved.
func (st *vmState) resolve(i, lo, hi int, env *forall.Env) int {
	hoists := st.cb.hoists
	resolved, refused := 0, false
	for k := range hoists {
		h := &hoists[k]
		a := st.ra[h.slot]
		cLo, cHi := lo+h.colK, hi+h.colK
		var v []float64
		switch {
		case h.store && h.rank == 2:
			v = env.WriteSpan2(a, h.rowA*i+h.rowK, cLo, cHi)
		case h.store:
			v = env.WriteSpan1(a, cLo, cHi)
		case h.rank == 2:
			v = a.Span2(h.rowA*i+h.rowK, cLo, cHi)
		default:
			v = a.Span1(cLo, cHi)
		}
		st.views[k+1] = v
		if v != nil {
			resolved++
		}
		refused = refused || (h.store && v == nil)
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
	return resolved
}

// column runs the segment lo..hi (outer index i) a column at a time:
// each live instruction of the body once across the segment, on
// vectors, instead of the whole body once per element.  The caller has
// resolved every view, so nothing here can fail or reach the Env.
// Loads alias the row view, a store is one copy, and the rest are
// loops the compiler keeps free of bounds checks; segments longer than
// colStrip go strip by strip, so the vectors stay in cache.  The clock
// then moves once, by st.step — to the same bits as run's per-element
// additions.
func (st *vmState) column(i, lo, hi int) {
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
	*st.cell = st.step.Advance(*st.cell, m)
	if col.flops != 0 {
		st.node.AddFlopCount(col.flops * int64(m))
	}
	st.colIters += m
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
	views, cell := st.noViews, &st.idle
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
			case opIncI:
				n[ins.a]++
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

			// Real-array accesses: through the row view when this
			// segment resolved one (a memory-reference charge and an
			// indexed load or store — what the Env call amounts to in
			// the executor's local loop), else through Env.
			case opLdLoc1:
				if v := views[ins.h]; v != nil {
					t += u.MemRef
					f[ins.a] = v[k]
					continue
				}
				*cell = t
				f[ins.a] = env.ReadLocal(st.ra[ins.b], n[ins.c])
				t = *cell
			case opLdLoc2:
				if v := views[ins.h]; v != nil {
					t += u.MemRef
					f[ins.a] = v[k]
					continue
				}
				*cell = t
				f[ins.a] = env.ReadLocal2(st.ra[ins.b], n[ins.c], n[ins.d])
				t = *cell
			case opLd1:
				if v := views[ins.h]; v != nil {
					t += u.MemRef
					f[ins.a] = v[k]
					continue
				}
				*cell = t
				f[ins.a] = env.Read(st.ra[ins.b], n[ins.c])
				t = *cell
			case opLd2:
				if v := views[ins.h]; v != nil {
					t += u.MemRef
					f[ins.a] = v[k]
					continue
				}
				*cell = t
				f[ins.a] = env.Read2(st.ra[ins.b], n[ins.c], n[ins.d])
				t = *cell
			case opLdInt1:
				*cell = t
				n[ins.a] = env.ReadInt(st.ia[ins.b], n[ins.c])
				t = *cell
			case opLdInt2:
				*cell = t
				n[ins.a] = env.ReadInt2(st.ia[ins.b], n[ins.c], n[ins.d])
				t = *cell
			case opSt1:
				if v := views[ins.h]; v != nil {
					t += u.MemRef
					v[k] = f[ins.a]
					continue
				}
				*cell = t
				env.Write(st.ra[ins.b], st.lin1(ins.b, n[ins.c]), f[ins.a])
				t = *cell
			case opSt2:
				if v := views[ins.h]; v != nil {
					t += u.MemRef
					v[k] = f[ins.a]
					continue
				}
				*cell = t
				env.Write2(st.ra[ins.b], n[ins.c], n[ins.d], f[ins.a])
				t = *cell

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
