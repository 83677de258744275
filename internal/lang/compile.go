package lang

import (
	"fmt"
	"math"
)

// This file lowers a checked program to the register bytecode of vm.go:
// every forall body, and the top level.  Lowering happens host-side,
// once per Program.Run, after the real estate agent has chosen P and
// every constant is elaborated (constants may depend on P, so
// compilation cannot happen earlier); the resulting compiledBody values
// are immutable and shared by all node goroutines, each of which wraps
// them in vmStates of its own.
//
// One compiler, two address spaces.  In a forall body a local (index
// variable, declared local, implicit for variable) is a slot of the
// forall's frame and a global scalar a pinned input register, refreshed
// at every launch; at the top level (comp.fa nil) a global scalar's
// register is its home.  The top level is uncharged, so no opFlops is
// emitted there, and its statements are the SPMD code every node runs:
// an indexed store is owner-first (comp.put), and what runs below the
// language — a run of foralls, a reduce, a redistribute — is one
// opEscape into interp.go's statement code, with the globals written
// back around it (vmState.escape).
//
// The tree walker in walker_test.go interprets the same checked AST
// and is the oracle the differential tests hold the compiled program
// to.  What the compiler does that the walker does not:
//   - storage resolution at compile time: the forall's frame slots
//     (index variables, local decls, sequential loop variables) and the
//     top level's global scalars become fixed registers, and a body's
//     global scalars pinned input registers refreshed once per launch;
//   - constant folding: subexpressions over literals and consts
//     collapse into pinned constant registers loaded once per node
//     (their would-be flops still charged, see below);
//   - strength reduction: affine subscripts a*v + c become a single
//     opLinI instruction, and identity subscripts disappear entirely;
//   - typed arithmetic: int and real operations are distinct opcodes
//     over unboxed register files;
//   - row-form classification: a load or store whose last subscript is
//     the innermost index variable plus a constant, and whose row
//     subscript depends on nothing the body changes, is marked
//     hoistable — the VM's segment entry points (vm.go) resolve it once
//     per interior segment or boundary run to a slice of the node's
//     local row or, for a boundary read, of the receive buffer;
//   - the column-wise form: for a straight-line body with nothing but
//     hoisted accesses, columnKernel (end of this file) derives from the
//     same code the instructions whose results reach a store —
//     backward liveness, which drops the subscript arithmetic the views
//     make dead — and the element's charge sequence, its accesses by
//     hoist, so the VM can run a fully resolved run an instruction at a
//     time on vectors and step the clock once.
//
// What it scrupulously preserves: evaluation order, the walker's float
// compares (ints widen first; an int constant widens at compile time),
// non-short-circuit and/or, Go wrapping integer arithmetic and its
// division traps, and the walker's exact flop-charge sequence.
// The walker charges Env.Flops(1) per operator, interleaved with the
// memory-reference charges its reads make; because the simulated clock
// is a float accumulator, both the unit size and the order of those
// charges are observable.  The compiler therefore emits opFlops at the
// AST position of each charge (folded and strength-reduced subtrees
// charge their would-be flops at the point the walker would have
// evaluated them — always a contiguous run, since foldable subtrees
// contain no reads), and the VM replays an opFlops k as k unit
// charges.  Simulated times and machine.Stats come out bit-identical
// between the two paths.
//
// The register allocator is deliberately monotone: every textual value
// gets a fresh register and nothing is ever reused, so constants,
// inputs, locals and temporaries coexist without liveness analysis.
// Bodies are small (tens of expressions), so the files stay tiny; the
// payoff is that instruction operands are stable and the emitted code
// cannot clobber a live value.

// compileForalls lowers every forall body in the program.
func compileForalls(f *File, consts []value) map[*Forall]*compiledBody {
	out := make(map[*Forall]*compiledBody, len(f.foralls))
	for _, fa := range f.foralls {
		out[fa] = compileBody(fa, consts)
	}
	return out
}

// comp is the per-body compiler state.
type comp struct {
	fa     *Forall // nil at the top level
	consts []value // by Symbol.Slot

	// regs maps the forall's frame slots (index variables, forall
	// locals, sequential loop variables) to registers; -1 until the
	// declaration is compiled.
	regs []int32

	code         []instr
	nextF, nextI int32

	cfIndex map[uint64]int32 // float constant (by bits) -> pinned register
	ciIndex map[int]int32    // int/bool constant -> pinned register
	initF   []fInit
	initI   []iInit

	pool      []int // opLinI coefficient pool
	poolIndex map[int]int32

	scalars []scalarInput
	escapes []escape

	// rowForms records, by instruction index, every load and store
	// emitted with row-form subscripts; assigned marks the int registers
	// the body itself writes (assignments to, and inner loops over,
	// scope variables).  finishHoists turns them into the body's hoist
	// table.
	rowForms   map[int]hoist
	assigned   map[int32]bool
	iReg, jReg int32 // the forall's index-variable registers

	// barrier marks the last jump-target boundary; charge() may fold a
	// new flop charge into a preceding opFlops only when no label was
	// bound in between (a jump landing between them would skip or double
	// charges).
	barrier int
}

func newComp(fa *Forall, consts []value, frame int) *comp {
	c := &comp{
		fa:        fa,
		consts:    consts,
		regs:      make([]int32, frame),
		code:      make([]instr, 0, 64),
		cfIndex:   map[uint64]int32{},
		ciIndex:   map[int]int32{},
		poolIndex: map[int]int32{},
		rowForms:  map[int]hoist{},
		assigned:  map[int32]bool{},
	}
	for k := range c.regs {
		c.regs[k] = -1
	}
	return c
}

// compileMain lowers the program's top level.  It runs as the one
// iteration of a body without index variables; iReg is the register
// run stores that iteration's number in.
func compileMain(f *File, consts []value) *compiledBody {
	c := newComp(nil, consts, 0)
	cb := &compiledBody{name: "main"}
	cb.iReg = c.tmpI()
	c.stmts(f.Main)
	c.add(opRet, 0, 0, 0, 0)
	c.finish(cb)
	return cb
}

// finish hands the finished code and its tables to cb.
func (c *comp) finish(cb *compiledBody) {
	cb.code = c.code
	cb.nF, cb.nI = c.nextF, c.nextI
	cb.initF, cb.initI = c.initF, c.initI
	cb.constI = c.pool
	cb.scalars = c.scalars
	cb.escapes = c.escapes
}

// compileBody lowers one checked forall body.
func compileBody(fa *Forall, consts []value) *compiledBody {
	c := newComp(fa, consts, fa.frame)
	cb := &compiledBody{name: fmt.Sprintf("forall@%d", fa.Line), rank: fa.rank()}
	cb.iReg = c.tmpI()
	c.regs[0] = cb.iReg
	if cb.rank == 2 {
		cb.jReg = c.tmpI()
		c.regs[1] = cb.jReg
	}
	c.iReg, c.jReg = cb.iReg, cb.jReg
	// Forall locals reset to zero every iteration (the walker does the
	// same to its frame); the emitted body re-zeroes them at entry.
	for k, d := range fa.Decls {
		if d.Type == TReal {
			c.regs[cb.rank+k] = c.tmpF()
			c.add(opMovF, c.regs[cb.rank+k], c.constF(0), 0, 0)
		} else {
			c.regs[cb.rank+k] = c.tmpI()
			c.add(opMovI, c.regs[cb.rank+k], c.constI(0), 0, 0)
		}
	}
	c.stmts(fa.Body)
	c.add(opRet, 0, 0, 0, 0)
	c.finishHoists(cb)
	c.finish(cb)
	cb.col = columnKernel(cb)
	return cb
}

// ---- registers, constants, inputs ------------------------------------

func (c *comp) tmpF() int32 { r := c.nextF; c.nextF++; return r }
func (c *comp) tmpI() int32 { r := c.nextI; c.nextI++; return r }

func (c *comp) add(op opcode, a, b, cc, d int32) int {
	c.code = append(c.code, instr{op: op, a: a, b: b, c: cc, d: d})
	return len(c.code) - 1
}

// charge emits k unit flop charges at the current code position,
// coalescing with the preceding opFlops of the same basic block when
// only register arithmetic lies between them.  What is observable is
// the order of additions to the clock, so a charge may move back across
// instructions that neither charge nor branch; charges that end up
// adjacent replay as adjacent unit charges either way, so coalescing is
// pure instruction-count savings — for a stencil body, one opFlops per
// array access instead of one per operator.  The top level is
// uncharged.
func (c *comp) charge(k int) {
	if k == 0 || c.fa == nil {
		return
	}
	for pc := len(c.code) - 1; pc >= c.barrier; pc-- {
		op := c.code[pc].op
		if op == opFlops {
			c.code[pc].a += int32(k)
			return
		}
		if !op.pure() {
			break
		}
	}
	c.add(opFlops, int32(k), 0, 0, 0)
}

// constF returns the pinned register holding a float constant, keyed
// by bit pattern so -0.0 and 0.0 stay distinct.
func (c *comp) constF(v float64) int32 {
	bits := math.Float64bits(v)
	if r, ok := c.cfIndex[bits]; ok {
		return r
	}
	r := c.tmpF()
	c.cfIndex[bits] = r
	c.initF = append(c.initF, fInit{reg: r, v: v})
	return r
}

// constI returns the pinned register holding an int (or 0/1 bool)
// constant.
func (c *comp) constI(v int) int32 {
	if r, ok := c.ciIndex[v]; ok {
		return r
	}
	r := c.tmpI()
	c.ciIndex[v] = r
	c.initI = append(c.initI, iInit{reg: r, v: v})
	return r
}

// intConst reports the value r holds if it is a pinned int constant.
func (c *comp) intConst(r int32) (int, bool) {
	for _, k := range c.initI {
		if k.reg == r {
			return k.v, true
		}
	}
	return 0, false
}

// exactConst reports whether r is a pinned int constant that widens
// exactly, and so do its neighbours.
func (c *comp) exactConst(r int32) bool {
	v, ok := c.intConst(r)
	return ok && v >= -1<<52 && v <= 1<<52
}

// poolI interns a coefficient in the opLinI constant pool (pool slots
// carry full ints; instruction operands are int32).
func (c *comp) poolI(v int) int32 {
	if ix, ok := c.poolIndex[v]; ok {
		return ix
	}
	ix := int32(len(c.pool))
	c.poolIndex[v] = ix
	c.pool = append(c.pool, v)
	return ix
}

// scalarReg returns the register of a global scalar (or of a top-level
// for loop's implicit variable), registering it in scalars: in a forall
// body a pinned input, refreshed per launch; at the top level the
// scalar's home, written back to the node's global frame around every
// escape.
func (c *comp) scalarReg(s *Symbol) int32 {
	for _, in := range c.scalars {
		if in.slot == s.Slot {
			return in.reg
		}
	}
	var reg int32
	if s.Type == TReal {
		reg = c.tmpF()
	} else {
		reg = c.tmpI()
	}
	c.scalars = append(c.scalars, scalarInput{slot: s.Slot, t: s.Type, reg: reg})
	return reg
}

// varReg returns the register a scalar variable lives in: a slot of the
// forall's frame (an implicit for variable's is allocated at its loop),
// or a global's (scalarReg).
func (c *comp) varReg(s *Symbol) int32 {
	if s.Kind != symLocal {
		return c.scalarReg(s)
	}
	if c.regs[s.Slot] < 0 {
		c.regs[s.Slot] = c.tmpI()
	}
	return c.regs[s.Slot]
}

// ---- statements ------------------------------------------------------

// stmts compiles a statement list.  A forall, with the foralls adjacent
// to it (the run execForalls launches as one), a reduce and a redistribute —
// top-level statements all three — are escapes.
func (c *comp) stmts(ss []Stmt) {
	for k := 0; k < len(ss); k++ {
		switch ss[k].(type) {
		case *Forall:
			j := forallRun(ss, k)
			c.escape(ss[k:j])
			k = j - 1
		case *Reduce, *Redistribute:
			c.escape(ss[k : k+1])
		default:
			c.stmt(ss[k])
		}
	}
}

func (c *comp) stmt(s Stmt) {
	switch s := s.(type) {
	case *Assign:
		c.assign(s)
	case *ForLoop:
		c.forLoop(s)
	case *While:
		c.whileStmt(s)
	case *If:
		c.ifStmt(s)
	default:
		panic(fmt.Sprintf("lang: compile: unexpected statement %T", s))
	}
}

// escape compiles statement-level code: one opEscape for ss, a reduce,
// a redistribute or a run of adjacent foralls.  A forall's bounds are
// compiled here, before it, in the walker oracle's order, so the
// statement code evaluates no expression.
func (c *comp) escape(ss []Stmt) {
	e := escape{stmts: ss}
	for _, s := range ss {
		if fa, ok := s.(*Forall); ok {
			var b [4]int32
			for k, x := range [...]Expr{fa.Lo, fa.Hi, fa.Lo2, fa.Hi2} {
				if x != nil {
					b[k], _ = c.expr(x)
				}
			}
			e.bounds = append(e.bounds, b)
		}
	}
	c.escapes = append(c.escapes, e)
	c.add(opEscape, int32(len(c.escapes)-1), 0, 0, 0)
}

func (c *comp) assign(s *Assign) {
	if s.sym.isArray() && c.fa == nil {
		c.put(s)
		return
	}
	// In a forall body the walker evaluates the value first, then the
	// indexes.
	r, t := c.expr(s.X)
	if !s.sym.isArray() {
		reg, want := c.varReg(s.sym), s.sym.Type
		if want != TReal {
			c.assigned[reg] = true
		}
		switch {
		case want == t && t == TReal:
			c.add(opMovF, reg, r, 0, 0)
		case want == t:
			c.add(opMovI, reg, r, 0, 0)
		case want == TReal && t == TInt:
			c.add(opIntToF, reg, r, 0, 0)
		default:
			panic(fmt.Sprintf("lang: compile: cannot assign %s to %s %q", t, want, s.Name))
		}
		return
	}
	// Distributed real array write (owner-computes; checker-enforced).
	if t == TInt {
		r = c.widen(r, t)
	}
	slot := int32(s.sym.Slot)
	switch len(s.Indexes) {
	case 1:
		i, fi := c.idx(s.Indexes[0])
		c.access(c.add(opSt1, r, slot, i, 0), fi)
	case 2:
		i, fi := c.idx(s.Indexes[0])
		j, fj := c.idx(s.Indexes[1])
		c.access(c.add(opSt2, r, slot, i, j), fi, fj)
	default:
		panic("lang: compile: store rank > 2")
	}
}

// put compiles a top-level indexed store owner-first, as the walker
// oracle's execAssign (walker_test.go) runs it: the subscripts; the
// ownership test, the very call the walker makes, so that an
// out-of-range subscript panics alike; on
// a non-owner a jump past the right-hand side; the store.  An integer
// store bumps the array's version, which schedules driven by its
// contents check, on every node.
func (c *comp) put(s *Assign) {
	slot := int32(s.sym.Slot)
	i, j, rank := c.subs(s.Indexes)
	own, put := opOwn1, opPut1
	if s.sym.Kind == symIntArray {
		own, put = opOwnInt1, opPutInt1
		c.add(opBump, 0, slot, 0, 0)
	}
	skip := c.add(own+rank, 0, slot, i, j)
	r, t := c.expr(s.X)
	if s.sym.Kind == symRealArray {
		r = c.widen(r, t)
	}
	c.add(put+rank, r, slot, i, j)
	c.code[skip].a = int32(len(c.code))
	c.barrier = len(c.code)
}

// subs compiles the subscripts of a top-level access into the c and d
// operands of a rank-1, rank-2 or rank-N instruction, and returns the
// opcode offset from the rank-1 form: for ranks 1 and 2 the subscript
// registers, for a higher rank the first of a run of fresh registers
// holding the subscripts in order — the VM passes that run of its int
// file as the coordinate slice — and the rank.
func (c *comp) subs(ixs []Expr) (i, j int32, rank opcode) {
	i, _ = c.idx(ixs[0])
	switch len(ixs) {
	case 1:
		return i, 0, 0
	case 2:
		j, _ = c.idx(ixs[1])
		return i, j, 1
	}
	regs := []int32{i}
	for _, ix := range ixs[1:] {
		r, _ := c.idx(ix)
		regs = append(regs, r)
	}
	first := c.nextI
	for _, r := range regs {
		c.add(opMovI, c.tmpI(), r, 0, 0)
	}
	return first, int32(len(regs)), 2
}

func (c *comp) forLoop(s *ForLoop) {
	// Bounds are evaluated once, before the loop variable comes into
	// scope, and copied into private registers: the body may assign the
	// loop variable (or whatever the bound expressions read) without
	// perturbing the trip count — exactly the walker's Go-loop
	// semantics.
	lo, _ := c.expr(s.Lo)
	hi, _ := c.expr(s.Hi)
	cnt := c.tmpI()
	c.add(opMovI, cnt, lo, 0, 0)
	lim := c.tmpI()
	c.add(opMovI, lim, hi, 0, 0)

	v := c.varReg(s.sym)
	c.assigned[v] = true

	// Tested at the bottom: one instruction per trip steps and tests.
	exit := c.add(opJmpGtI, 0, cnt, lim, 0)
	body := len(c.code)
	c.barrier = body
	c.add(opMovI, v, cnt, 0, 0)
	c.stmts(s.Body)
	c.add(opLoopI, int32(body), cnt, lim, 0)
	c.code[exit].a = int32(len(c.code))
	c.barrier = len(c.code)
}

func (c *comp) whileStmt(s *While) {
	head := len(c.code)
	c.barrier = head
	cond, _ := c.expr(s.Cond)
	exit := c.add(opJmpIfNot, 0, cond, 0, 0)
	c.stmts(s.Body)
	c.add(opJmp, int32(head), 0, 0, 0)
	c.code[exit].a = int32(len(c.code))
	c.barrier = len(c.code)
}

func (c *comp) ifStmt(s *If) {
	cond, _ := c.expr(s.Cond)
	jf := c.add(opJmpIfNot, 0, cond, 0, 0)
	c.stmts(s.Then)
	if len(s.Else) > 0 {
		je := c.add(opJmp, 0, 0, 0, 0)
		c.code[jf].a = int32(len(c.code))
		c.barrier = len(c.code)
		c.stmts(s.Else)
		c.code[je].a = int32(len(c.code))
		c.barrier = len(c.code)
		return
	}
	c.code[jf].a = int32(len(c.code))
	c.barrier = len(c.code)
}

// ---- expressions -----------------------------------------------------

// expr compiles e and returns its value register and type.  Result
// registers must be treated as read-only by callers (they may be
// pinned locals or constants).
func (c *comp) expr(e Expr) (int32, BaseType) {
	switch e := e.(type) {
	case *IntLit:
		return c.constI(e.V), TInt
	case *RealLit:
		return c.constF(e.V), TReal
	case *BoolLit:
		return c.constI(b2i(e.V)), TBool
	case *Ident:
		return c.ident(e)
	case *ArrayRef:
		return c.arrayRef(e)
	case *Unary:
		if e.Op == KWNot {
			// The walker returns !v.b without charging a flop.
			r, _ := c.expr(e.X)
			d := c.tmpI()
			c.add(opNotB, d, r, 0, 0)
			return d, TBool
		}
		if c.foldable(e) {
			return c.fold(e)
		}
		r, t := c.expr(e.X)
		c.charge(1)
		if t == TInt {
			d := c.tmpI()
			c.add(opNegI, d, r, 0, 0)
			return d, TInt
		}
		d := c.tmpF()
		c.add(opNegF, d, r, 0, 0)
		return d, TReal
	case *Binary:
		if c.foldable(e) {
			return c.fold(e)
		}
		return c.binary(e)
	case *Call:
		if c.foldable(e) {
			return c.fold(e)
		}
		return c.call(e)
	default:
		panic(fmt.Sprintf("lang: compile: unknown expression %T", e))
	}
}

func (c *comp) ident(e *Ident) (int32, BaseType) {
	switch s := e.sym; s.Kind {
	case symLocal:
		return c.regs[s.Slot], s.Type
	case symConst:
		v := c.consts[s.Slot]
		if v.t == TReal {
			return c.constF(v.f), TReal
		}
		return c.constI(v.i), TInt
	default:
		return c.scalarReg(s), s.Type
	}
}

func (c *comp) binary(e *Binary) (int32, BaseType) {
	lr, lt := c.expr(e.L)
	rr, rt := c.expr(e.R)
	c.charge(1)
	switch e.Op {
	case PLUS, MINUS, STAR:
		if lt == TInt && rt == TInt {
			d := c.tmpI()
			switch e.Op {
			case PLUS:
				c.add(opAddI, d, lr, rr, 0)
			case MINUS:
				c.add(opSubI, d, lr, rr, 0)
			default:
				c.add(opMulI, d, lr, rr, 0)
			}
			return d, TInt
		}
		lf, rf := c.widen(lr, lt), c.widen(rr, rt)
		d := c.tmpF()
		switch e.Op {
		case PLUS:
			c.add(opAddF, d, lf, rf, 0)
		case MINUS:
			c.add(opSubF, d, lf, rf, 0)
		default:
			c.add(opMulF, d, lf, rf, 0)
		}
		return d, TReal
	case SLASH:
		d := c.tmpF()
		c.add(opDivF, d, c.widen(lr, lt), c.widen(rr, rt), 0)
		return d, TReal
	case KWDiv:
		d := c.tmpI()
		c.add(opDivI, d, lr, rr, 0)
		return d, TInt
	case KWMod:
		d := c.tmpI()
		c.add(opModI, d, lr, rr, 0)
		return d, TInt
	case EQ, NE:
		if lt == TBool {
			d := c.tmpI()
			if e.Op == EQ {
				c.add(opEqB, d, lr, rr, 0)
			} else {
				c.add(opNeB, d, lr, rr, 0)
			}
			return d, TBool
		}
		fallthrough
	case LT, LE, GT, GE:
		// The walker compares through asReal() — ints widen to float.
		// Against an int constant of magnitude at most 2^52 an int compare
		// answers alike for every value: the constant and its neighbours
		// are exact floats, and widening is monotone.
		d, op := c.tmpI(), opLtF+opcode(e.Op-LT) // the operators and opcodes share an order
		if lt == TInt && rt == TInt && (c.exactConst(lr) || c.exactConst(rr)) {
			c.add(op-opLtF+opLtI, d, lr, rr, 0)
		} else {
			c.add(op, d, c.widen(lr, lt), c.widen(rr, rt), 0)
		}
		return d, TBool
	case KWAnd:
		d := c.tmpI()
		c.add(opAndB, d, lr, rr, 0)
		return d, TBool
	case KWOr:
		d := c.tmpI()
		c.add(opOrB, d, lr, rr, 0)
		return d, TBool
	default:
		panic(fmt.Sprintf("lang: compile: bad operator %s", e.Op))
	}
}

func (c *comp) call(e *Call) (int32, BaseType) {
	var regs [2]int32
	var types [2]BaseType
	for k, a := range e.Args {
		regs[k], types[k] = c.expr(a)
	}
	c.charge(1) // every builtin charges one flop in the walker
	if e.fn.op == opIntToF {
		return c.widen(regs[0], types[0]), TReal // float: the widening is the call
	}
	var d int32
	if e.fn.ret == TReal {
		d = c.tmpF()
	} else {
		d = c.tmpI()
	}
	x, y := c.widen(regs[0], types[0]), int32(0)
	if len(e.Args) == 2 {
		y = c.widen(regs[1], types[1])
	}
	c.add(e.fn.op, d, x, y, 0)
	return d, e.fn.ret
}

// widen converts an int register to a float register (no-op for
// reals): a constant's at compile time, any other by an opIntToF into a
// fresh one.
func (c *comp) widen(r int32, t BaseType) int32 {
	if t == TReal {
		return r
	}
	if v, ok := c.intConst(r); ok {
		return c.constF(float64(v))
	}
	d := c.tmpF()
	c.add(opIntToF, d, r, 0, 0)
	return d
}

// arrayRef compiles an array read, dispatching on the checker's access
// classification exactly as the walker does.  At the top level, where
// the checker admits replicated arrays only, it is a plain local read.
func (c *comp) arrayRef(e *ArrayRef) (int32, BaseType) {
	slot := int32(e.sym.Slot)
	if c.fa == nil {
		i, j, rank := c.subs(e.Indexes)
		if e.sym.Kind == symIntArray {
			r := c.tmpI()
			c.add(opGetInt1+rank, r, slot, i, j)
			return r, TInt
		}
		r := c.tmpF()
		c.add(opGet1+rank, r, slot, i, j)
		return r, TReal
	}
	if e.sym.Kind == symIntArray {
		r := c.tmpI()
		switch len(e.Indexes) {
		case 1:
			i, _ := c.idx(e.Indexes[0])
			c.add(opLdInt1, r, slot, i, 0)
		case 2:
			i, _ := c.idx(e.Indexes[0])
			j, _ := c.idx(e.Indexes[1])
			c.add(opLdInt2, r, slot, i, j)
		default:
			panic("lang: compile: int read rank > 2")
		}
		return r, TInt
	}
	r := c.tmpF()
	local := e.access == accReplicated || e.access == accAligned
	switch len(e.Indexes) {
	case 1:
		i, fi := c.idx(e.Indexes[0])
		op := opLd1
		if local {
			op = opLdLoc1
		}
		c.access(c.add(op, r, slot, i, 0), fi)
	case 2:
		i, fi := c.idx(e.Indexes[0])
		j, fj := c.idx(e.Indexes[1])
		op := opLd2
		if local {
			op = opLdLoc2
		}
		c.access(c.add(op, r, slot, i, j), fi, fj)
	default:
		panic("lang: compile: read rank > 2")
	}
	return r, TReal
}

// subForm is the affine shape a*n[reg] + k of a compiled subscript
// (reg < 0: the constant k); ok is false for anything else.
type subForm struct {
	reg  int32
	a, k int
	ok   bool
}

// idx compiles an integer subscript expression and reports its affine
// shape.  Affine forms a*v + k strength-reduce to one opLinI (or to
// nothing, for the identity subscript); the flops the walker would
// charge evaluating the original expression are still counted,
// preserving cost-model parity.
func (c *comp) idx(ix Expr) (int32, subForm) {
	if reg, a, k, ok := c.affine(ix); ok {
		form := subForm{reg: reg, a: a, k: k, ok: true}
		c.charge(flopCount(ix))
		if reg < 0 {
			return c.constI(k), form
		}
		if a == 1 && k == 0 {
			return reg, form
		}
		d := c.tmpI()
		c.add(opLinI, d, reg, c.poolI(a), c.poolI(k))
		return d, form
	}
	r, _ := c.expr(ix)
	return r, subForm{}
}

// access records the real-array load or store just emitted at pc as a
// hoist candidate when its subscripts have the row form: the last one
// is the segment variable (the forall's innermost index) plus a
// constant, so consecutive iterations touch consecutive elements, and
// the row subscript before it, if any, is a constant or affine in the
// outer index variable, so it is fixed across a segment.
func (c *comp) access(pc int, subs ...subForm) {
	segReg, outerReg := c.iReg, int32(-1)
	if c.fa.Var2 != "" {
		segReg, outerReg = c.jReg, c.iReg
	}
	col := subs[len(subs)-1]
	if !col.ok || col.reg != segReg || col.a != 1 {
		return
	}
	op := c.code[pc].op
	h := hoist{
		slot: c.code[pc].b, rank: len(subs), colK: col.k,
		store: op == opSt1 || op == opSt2, tested: op == opLd1 || op == opLd2,
	}
	if len(subs) == 2 {
		row := subs[0]
		switch {
		case !row.ok:
			return
		case row.reg < 0:
			h.rowK = row.k
		case row.reg == outerReg:
			h.rowA, h.rowK = row.a, row.k
		default:
			return
		}
	}
	c.rowForms[pc] = h
}

// finishHoists builds the body's hoist table from the recorded
// row-form accesses.  None survive if the body assigns either index
// variable (the registers the row forms are relative to).  A store is
// kept only when it may go straight to local storage — its array is
// loaded nowhere in the body, so skipping the write log cannot be
// observed, and every store to that array has the row form, so direct
// and logged stores to one array never mix; any other store keeps
// logging through Env.Write.
func (c *comp) finishHoists(cb *compiledBody) {
	if c.assigned[cb.iReg] || (cb.rank == 2 && c.assigned[cb.jReg]) {
		return
	}
	logged := map[int32]bool{} // slots that are loaded, or stored outside the row form
	for pc, ins := range c.code {
		switch ins.op {
		case opLdLoc1, opLdLoc2, opLd1, opLd2:
			logged[ins.b] = true
		case opSt1, opSt2:
			if _, ok := c.rowForms[pc]; !ok {
				logged[ins.b] = true
			}
		}
	}
	for pc := range c.code {
		h, ok := c.rowForms[pc]
		if !ok || (h.store && logged[h.slot]) {
			continue
		}
		cb.hoists = append(cb.hoists, h)
		c.code[pc].h = int32(len(cb.hoists))
	}
}

// affine tries to express ix as a*reg + k over a single integer
// variable register (reg = -1 for pure constants).  Coefficient
// arithmetic wraps like the run-time arithmetic.
func (c *comp) affine(ix Expr) (reg int32, a, k int, ok bool) {
	switch e := ix.(type) {
	case *IntLit:
		return -1, 0, e.V, true
	case *Ident:
		switch s := e.sym; {
		case s.Type != TInt:
			return -1, 0, 0, false
		case s.Kind == symLocal:
			return c.regs[s.Slot], 1, 0, true
		case s.Kind == symConst:
			return -1, 0, c.consts[s.Slot].i, true
		default:
			return c.scalarReg(s), 1, 0, true
		}
	case *Unary:
		if e.Op != MINUS {
			return -1, 0, 0, false
		}
		r1, a1, k1, ok1 := c.affine(e.X)
		if !ok1 {
			return -1, 0, 0, false
		}
		return r1, -a1, -k1, true
	case *Binary:
		switch e.Op {
		case PLUS, MINUS:
			r1, a1, k1, ok1 := c.affine(e.L)
			r2, a2, k2, ok2 := c.affine(e.R)
			if !ok1 || !ok2 {
				return -1, 0, 0, false
			}
			if e.Op == MINUS {
				a2, k2 = -a2, -k2
			}
			switch {
			case r1 < 0:
				return r2, a2, k1 + k2, true
			case r2 < 0 || r1 == r2:
				return r1, a1 + a2, k1 + k2, true
			default:
				return -1, 0, 0, false // two distinct variables
			}
		case STAR:
			r1, a1, k1, ok1 := c.affine(e.L)
			r2, a2, k2, ok2 := c.affine(e.R)
			if !ok1 || !ok2 {
				return -1, 0, 0, false
			}
			switch {
			case r1 < 0:
				return r2, k1 * a2, k1 * k2, true
			case r2 < 0:
				return r1, k2 * a1, k2 * k1, true
			default:
				return -1, 0, 0, false
			}
		default:
			return -1, 0, 0, false
		}
	default:
		return -1, 0, 0, false
	}
}

// ---- constant folding ------------------------------------------------

// foldable reports whether e is entirely computable from literals and
// constants.
func (c *comp) foldable(e Expr) bool {
	switch e := e.(type) {
	case *IntLit, *RealLit:
		return true
	case *Ident:
		return e.sym.Kind == symConst
	case *Unary:
		return e.Op == MINUS && c.foldable(e.X)
	case *Binary:
		switch e.Op {
		case PLUS, MINUS, STAR, SLASH:
			return c.foldable(e.L) && c.foldable(e.R)
		case KWDiv, KWMod:
			// A division by zero is left to trap when it runs, as the
			// walker's does.
			return c.foldable(e.L) && c.foldable(e.R) && c.foldVal(e.R).i != 0
		}
		return false
	case *Call:
		// All six builtins are pure functions of their arguments.
		for _, a := range e.Args {
			if !c.foldable(a) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// fold evaluates a foldable subtree with the run-time arithmetic, arith
// (wrapping ints, IEEE reals — not the checked constant
// evaluator, whose overflow diagnostics would change program behavior)
// and charges the flops the walker would have spent computing it.
func (c *comp) fold(e Expr) (int32, BaseType) {
	c.charge(flopCount(e))
	v := c.foldVal(e)
	if v.t == TReal {
		return c.constF(v.f), TReal
	}
	return c.constI(v.i), TInt
}

func (c *comp) foldVal(e Expr) value {
	switch e := e.(type) {
	case *IntLit:
		return intVal(e.V)
	case *RealLit:
		return realVal(e.V)
	case *Ident:
		return c.consts[e.sym.Slot]
	case *Unary:
		v := c.foldVal(e.X)
		if v.t == TInt {
			return intVal(-v.i)
		}
		return realVal(-v.f)
	case *Binary:
		return arith(e.Op, c.foldVal(e.L), c.foldVal(e.R))
	case *Call:
		x, y := c.foldVal(e.Args[0]).asReal(), 0.0
		if len(e.Args) == 2 {
			y = c.foldVal(e.Args[1]).asReal()
		}
		return e.fn.eval(x, y)
	default:
		panic(fmt.Sprintf("lang: compile: fold of %T", e))
	}
}

// flopCount counts the Env.Flops(1) charges the walker makes
// evaluating e: one per binary operator, unary minus, and call ("not"
// is free).  Used for subtrees the compiler folds or strength-reduces,
// so elided host work still charges its modeled cost.
func flopCount(e Expr) int {
	n := 0
	walkExpr(e, func(x Expr) {
		switch x := x.(type) {
		case *Binary:
			n++
		case *Unary:
			if x.Op == MINUS {
				n++
			}
		case *Call:
			n++
		}
	})
	return n
}

// ---- column-wise form -------------------------------------------------

// colKernel is the column-wise form of a straight-line body (vm.go,
// vmState.column): the same code, reduced to the instructions whose
// results reach a store and re-addressed from registers to per-register
// vectors, plus the charges one element makes, in order.
type colKernel struct {
	// code holds the live instructions in program order.  Register
	// operands (instr.regs) name vectors of the float or the int file;
	// loads and stores keep h.  Float vectors nF..nF+nLoad-1 are the
	// load destinations: they have no storage of their own and alias
	// the row views.
	code   []instr
	nF, nI int32 // vectors with storage, per file
	nLoad  int32

	// inF and inI are the registers the body reads but never writes
	// (constants, global scalars, the outer index variable), each
	// broadcast into its vector; iota is the int vector that holds the
	// segment variable lo..hi, or -1 when nothing live reads it.
	inF, inI []colInput
	iota     int32

	// charges is the element's charge sequence after its LoopIter: -h
	// for the access of hoist h (its read's charges, if any, then a
	// MemRef: vmState.charges), k > 0 for k unit Flops.  flops is the sum
	// of the latter.
	charges []int32
	flops   int64
}

// colInput binds a register of the scalar files to its broadcast vector.
type colInput struct{ reg, vec int32 }

// regFile says which register file an instruction operand names.
type regFile uint8

const (
	fileNone regFile = iota
	fileF
	fileI
)

// regRef is one register operand of an instruction, by address so that
// it can be renumbered.
type regRef struct {
	file regFile
	r    *int32
}

// realAccess reports whether op loads or stores a real array: the
// opcodes that carry a hoist.
func (op opcode) realAccess() bool {
	return op >= opLdLoc1 && op <= opLd2 || op == opSt1 || op == opSt2
}

// regs returns the registers an instruction of column-wise code writes
// (dst) and reads (src): a hoisted real-array access, which never reads
// its subscript registers, or register arithmetic.  ok is false for
// everything else, which is never live there: comparisons and boolean
// operators (without a jump a truth value has no way to a store),
// opLinI (only subscripts strength-reduce to it, and a hoisted access
// does not read its subscripts), and whatever is not pure.
func (ins *instr) regs() (dst regRef, src [2]regRef, ok bool) {
	var a, b, c regFile
	switch ins.op {
	case opSt1, opSt2:
		return regRef{}, [2]regRef{{fileF, &ins.a}}, true
	case opLdLoc1, opLdLoc2, opLd1, opLd2:
		return regRef{fileF, &ins.a}, src, true
	case opMovF, opNegF, opAbsF, opSqrtF:
		a, b = fileF, fileF
	case opAddF, opSubF, opMulF, opDivF, opMinF, opMaxF:
		a, b, c = fileF, fileF, fileF
	case opIntToF:
		a, b = fileF, fileI
	case opTruncI:
		a, b = fileI, fileF
	case opMovI, opNegI:
		a, b = fileI, fileI
	case opAddI, opSubI, opMulI:
		a, b, c = fileI, fileI, fileI
	default:
		return dst, src, false
	}
	return regRef{a, &ins.a}, [2]regRef{{b, &ins.b}, {c, &ins.c}}, true
}

// columnKernel derives the body's column-wise form from its finished
// code, or returns nil for a body that must run an element at a time.
// Running instruction by instruction across a segment instead of
// element by element is unobservable only for a body that
//
//   - is straight-line: no jump, so every element executes the same
//     instructions and makes the same charges;
//   - reaches real arrays through hoisted accesses only and loads no
//     integer array, so a fully resolved segment makes no Env call;
//   - cannot trap: integer div and mod by zero must fail at the element
//     the walker names, with the clock it had there;
//   - stores each array through one subscript form.  A[i] := x;
//     A[i+1] := y leaves A[k+1] = x[k+1] element by element but y[k]
//     column by column; with one form per array, stores of different
//     elements never meet.  (A stored array is loaded nowhere, or its
//     stores would not be hoisted: finishHoists.)
//
// What is live is decided backwards from the stores.  The subscript
// arithmetic of hoisted accesses drops out, as does a load whose value
// goes nowhere; its MemRef stays in the charge sequence, which is read
// off the full code.
func columnKernel(cb *compiledBody) *colKernel {
	if len(cb.hoists) == 0 {
		return nil
	}
	col := &colKernel{iota: -1}
	writes := [...][]int{fileF: make([]int, cb.nF), fileI: make([]int, cb.nI)}
	storeForm := map[int32]hoist{}
	for pc := range cb.code {
		ins := &cb.code[pc]
		switch op := ins.op; {
		case op == opRet:
			continue
		case op == opFlops:
			col.charges = append(col.charges, ins.a)
			col.flops += int64(ins.a)
			continue
		case op.realAccess():
			if ins.h == 0 {
				return nil
			}
			col.charges = append(col.charges, -ins.h)
			if h := cb.hoists[ins.h-1]; h.store {
				if first, ok := storeForm[h.slot]; ok && first != h {
					return nil
				}
				storeForm[h.slot] = h
			}
		case !op.pure() || op == opDivI || op == opModI:
			return nil // a jump, an integer-array load, trapping arithmetic
		}
		if dst, _, ok := ins.regs(); ok && dst.file != fileNone {
			writes[dst.file][*dst.r]++
		}
	}

	// Backward liveness; the live instructions collect in reverse.
	live := [...][]bool{fileF: make([]bool, cb.nF), fileI: make([]bool, cb.nI)}
	for pc := len(cb.code) - 1; pc >= 0; pc-- {
		ins := cb.code[pc]
		dst, src, ok := ins.regs()
		if !ok {
			continue // a charge, the return, or a value no store can use
		}
		if dst.file != fileNone {
			if !live[dst.file][*dst.r] {
				continue
			}
			if !ins.op.pure() && writes[fileF][ins.a] != 1 {
				return nil // a load's vector aliases the array: nothing else may write it
			}
			live[dst.file][*dst.r] = false
		}
		for _, s := range src {
			if s.file != fileNone {
				live[s.file][*s.r] = true
			}
		}
		col.code = append(col.code, ins)
	}
	for l, r := 0, len(col.code)-1; l < r; l, r = l+1, r-1 {
		col.code[l], col.code[r] = col.code[r], col.code[l]
	}

	// Number the vectors.  What is live on entry is the body's input —
	// registers nothing in the body writes, and the segment variable;
	// every other vector is a live instruction's destination, the loads'
	// after those with storage.
	vec := [...][]int32{fileF: make([]int32, cb.nF), fileI: make([]int32, cb.nI)}
	var count [fileI + 1]int32
	number := func(f regFile, r int32) int32 {
		count[f]++
		vec[f][r] = count[f] // biased by one: zero means unnumbered
		return count[f] - 1
	}
	segReg := cb.iReg
	if cb.rank == 2 {
		segReg = cb.jReg
	}
	for f := fileF; f <= fileI; f++ {
		for r, l := range live[f] {
			switch {
			case !l:
			case writes[f][r] != 0:
				return nil // read before the body writes it
			case f == fileF:
				col.inF = append(col.inF, colInput{reg: int32(r), vec: number(f, int32(r))})
			case int32(r) == segReg:
				col.iota = number(f, segReg)
			default:
				col.inI = append(col.inI, colInput{reg: int32(r), vec: number(f, int32(r))})
			}
		}
	}
	for k := range col.code {
		if dst, _, _ := col.code[k].regs(); col.code[k].op.pure() && vec[dst.file][*dst.r] == 0 {
			number(dst.file, *dst.r)
		}
	}
	col.nF, col.nI = count[fileF], count[fileI]
	for k := range col.code {
		ins := &col.code[k]
		dst, src, _ := ins.regs()
		for _, s := range src {
			if s.file != fileNone {
				*s.r = vec[s.file][*s.r] - 1
			}
		}
		switch {
		case dst.file == fileNone:
		case ins.op.pure():
			*dst.r = vec[dst.file][*dst.r] - 1
		default:
			col.nLoad++
			vec[fileF][ins.a] = col.nF + col.nLoad
			ins.a = col.nF + col.nLoad - 1
		}
	}
	return col
}
