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
// Segment kernel: the paper's Figure 3 executor separates local from
// nonlocal iterations so that the local ones need no locality test, no
// buffer search and no per-reference bookkeeping (§3.1).  The VM takes
// that literally for a schedule's interior.  forall hands it whole row
// segments (Loop.Segment); per segment, resolve turns every hoistable
// load and store (compile.go: subscripts of the row form (f(i), j+c))
// into a slice of the node's local row — the locality and
// owner-computes checks made once for the whole span — and run then
// executes the iterations of the segment against those slices, with
// the virtual clock in a local variable, replaying the same float
// additions in the same order the per-element path makes (LoopIter,
// then MemRef and unit Flop charges where the walker makes them).
// Whatever does not resolve — other subscript forms, integer arrays, a
// span that leaves the local window, stores that must be logged —
// takes the same Env call as before, with the clock written back
// around it; a segment in which nothing resolves is declined and runs
// per element.  Both entry points share the one interpreter loop.

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
}

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
// whole interior segment against resolved row views, or false to have
// the engine run it per element.
func (st *vmState) segment1(lo, hi int, env *forall.Env) bool {
	if !st.resolve(0, lo, hi, env) {
		return false
	}
	st.run(0, lo, hi, env, true)
	return true
}

func (st *vmState) segment2(i, jLo, jHi int, env *forall.Env) bool {
	if !st.resolve(i, jLo, jHi, env) {
		return false
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
// array must not mix within a loop execution.  It reports whether
// anything resolved.
func (st *vmState) resolve(i, lo, hi int, env *forall.Env) bool {
	hoists := st.cb.hoists
	resolved, refused := false, false
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
		resolved = resolved || v != nil
		refused = refused || (h.store && v == nil)
	}
	for k := range hoists {
		if !refused {
			break
		}
		if hoists[k].store && st.views[k+1] == nil {
			for k2 := range hoists {
				if hoists[k2].store && hoists[k2].slot == hoists[k].slot {
					st.views[k2+1] = nil
				}
			}
		}
	}
	return resolved
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
