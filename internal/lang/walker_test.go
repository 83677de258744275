package lang

import (
	"fmt"

	"kali/internal/core"
	"kali/internal/forall"
)

// The tree walker: the test oracle for the compiled program.  It
// interprets the checked AST directly — the top level and, through
// bindWalker, every forall body — on the production executor, so a run
// on it must match the compiled run in values, machine.Stats and every
// simulated clock, bit for bit.  The tests reach it through the
// per-node statement runner Program.run takes: (*interp).exec is the
// compiled top level, (*interp).walk this file.

// walked is Program.Run on the walker.
func (p *Program) walked(cfg core.Config) (*Result, error) { return p.run(cfg, (*interp).walk, nil) }

// walk is the walker's per-node statement runner, in place of exec.
func (in *interp) walk() { in.execStmts(in.file.Main, nil, nil) }

// bindWalker binds fa's walker body into the interpreter's loop tables
// before the loop's first launch, where loopFor and loop2For find it:
// the loop is built as in production, then its compiled body and
// Segment entry are replaced by the walker's.  A loop already bound —
// a compiled one, when a test replays a loop the compiled top level
// launched — is left as it is.
func (in *interp) bindWalker(fa *Forall) {
	if in.loops[fa] != nil || in.loops2[fa] != nil {
		return
	}
	fr, body := in.walker(fa)
	if fa.Var2 != "" {
		loop := in.buildLoop2(fa)
		loop.Body = func(i, j int, env *forall.Env) {
			fr[0], fr[1] = intVal(i), intVal(j)
			body(env)
		}
		loop.Segment = nil
		in.loops2[fa] = loop
	} else {
		loop := in.buildLoop(fa)
		loop.Body = func(i int, env *forall.Env) {
			fr[0] = intVal(i)
			body(env)
		}
		loop.Segment = nil
		in.loops[fa] = loop
	}
	delete(in.vms, fa)
}

// execStmts interprets a statement list.  Inside a forall body env is
// non-nil and fr is the body's local frame.  At the top level (both
// nil) a run of two or more adjacent foralls is launched as one
// (execForalls).
func (in *interp) execStmts(ss []Stmt, fr []value, env *forall.Env) {
	for k := 0; k < len(ss); k++ {
		if j := forallRun(ss, k); j > k+1 {
			in.bounds = in.bounds[:0]
			for _, s := range ss[k:j] {
				in.bounds = append(in.bounds, in.walkBounds(s.(*Forall)))
			}
			for _, s := range ss[k:j] {
				in.bindWalker(s.(*Forall))
			}
			in.execForalls(ss[k:j], in.bounds)
			k = j - 1
			continue
		}
		in.execStmt(ss[k], fr, env)
	}
}

// walkBounds evaluates a forall's bounds (Lo, Hi, Lo2, Hi2) on the
// walker.
func (in *interp) walkBounds(fa *Forall) (b [4]int) {
	for k, x := range [...]Expr{fa.Lo, fa.Hi, fa.Lo2, fa.Hi2} {
		if x != nil {
			b[k] = in.evalExpr(x, nil, nil).i
		}
	}
	return b
}

func (in *interp) execStmt(s Stmt, fr []value, env *forall.Env) {
	switch s := s.(type) {
	case *Assign:
		in.execAssign(s, fr, env)
	case *Forall:
		b := in.walkBounds(s)
		in.bindWalker(s)
		in.execForall(s, b)
	case *ForLoop:
		lo := in.evalExpr(s.Lo, fr, env).i
		hi := in.evalExpr(s.Hi, fr, env).i
		v := in.cell(s.sym, fr)
		for x := lo; x <= hi; x++ {
			*v = intVal(x)
			in.execStmts(s.Body, fr, env)
		}
	case *While:
		for in.evalExpr(s.Cond, fr, env).b {
			in.execStmts(s.Body, fr, env)
		}
	case *If:
		if in.evalExpr(s.Cond, fr, env).b {
			in.execStmts(s.Then, fr, env)
		} else {
			in.execStmts(s.Else, fr, env)
		}
	case *Reduce:
		in.execReduce(s)
	case *Redistribute:
		in.redistribute(s)
	default:
		panic(fmt.Sprintf("unknown statement %T", s))
	}
}

// cell is the storage of a scalar-valued symbol: a slot of the forall's
// frame, of the node's globals, or of the (read-only) constants.
func (in *interp) cell(s *Symbol, fr []value) *value {
	switch s.Kind {
	case symLocal:
		return &fr[s.Slot]
	case symConst:
		return &in.el.constVals[s.Slot]
	default:
		return &in.globals[s.Slot]
	}
}

// execAssign handles scalar, local, and array writes.
func (in *interp) execAssign(s *Assign, fr []value, env *forall.Env) {
	switch {
	case !s.sym.isArray():
		*in.cell(s.sym, fr) = coerce(in.evalExpr(s.X, fr, env), s.sym.Type)
	case env != nil:
		// Inside a forall: owner-computes write through the engine.  The
		// value comes before the subscripts, the order the VM charges in.
		v := in.evalExpr(s.X, fr, env).asReal()
		i, j, _ := in.subscripts(s.Indexes, fr, env)
		if len(s.Indexes) == 1 {
			env.WriteAt(in.realArrs[s.sym.Slot], v, i)
		} else {
			env.WriteAt(in.realArrs[s.sym.Slot], v, i, j)
		}
	case s.sym.Kind == symRealArray:
		a := in.realArrs[s.sym.Slot]
		i, j, idx, mine := in.owned(a, s.Indexes)
		if !mine {
			return
		}
		switch v := in.evalExpr(s.X, nil, nil).asReal(); {
		case idx != nil:
			a.Set(v, idx...)
		case len(s.Indexes) == 1:
			a.Set1(i, v)
		default:
			a.Set2(i, j, v)
		}
	default:
		ia := in.intArrs[s.sym.Slot]
		i, j, idx, mine := in.owned(ia, s.Indexes)
		// Pattern-driving contents changed.  Every node bumps, owner or
		// not: whether the schedules they drive are rebuilt must be decided
		// alike on every node, since an inspector's rebuild is collective.
		ia.Bump()
		if !mine {
			return
		}
		switch v := in.evalExpr(s.X, nil, nil).i; {
		case idx != nil:
			ia.Set(v, idx...)
		case len(s.Indexes) == 1:
			ia.Set1(i, v)
		default:
			ia.Set2(i, j, v)
		}
	}
}

// locality is the ownership test real and integer arrays share.
type locality interface {
	IsLocal(coord ...int) bool
	IsLocal1(i int) bool
	IsLocal2(i, j int) bool
}

// owned evaluates a top-level store's subscripts and reports whether
// this node stores the element.  Every node executes the statement;
// only the owner goes on to evaluate the right-hand side.
func (in *interp) owned(h locality, ixs []Expr) (i, j int, idx []int, mine bool) {
	i, j, idx = in.subscripts(ixs, nil, nil)
	switch {
	case idx != nil:
		mine = h.IsLocal(idx...)
	case len(ixs) == 1:
		mine = h.IsLocal1(i)
	default:
		mine = h.IsLocal2(i, j)
	}
	return i, j, idx, mine
}

// subscripts evaluates an array access's subscripts: into i and j for
// the ranks foralls support, with no allocation, and into idx for the
// higher ranks legal only at the top level.
func (in *interp) subscripts(ixs []Expr, fr []value, env *forall.Env) (i, j int, idx []int) {
	switch len(ixs) {
	case 1:
		return in.evalExpr(ixs[0], fr, env).i, 0, nil
	case 2:
		i = in.evalExpr(ixs[0], fr, env).i
		return i, in.evalExpr(ixs[1], fr, env).i, nil
	}
	if env != nil {
		panic("rank > 2")
	}
	idx = make([]int, len(ixs))
	for k, ix := range ixs {
		idx[k] = in.evalExpr(ix, nil, nil).i
	}
	return 0, 0, idx
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

// walker returns the tree-walking body of fa, which runs every
// iteration on one frame: the caller stores the index variables, the
// declared locals start from zero, and an implicit for variable is
// written before anything can read it.
func (in *interp) walker(fa *Forall) (fr []value, body func(env *forall.Env)) {
	fr = make([]value, fa.frame)
	return fr, func(env *forall.Env) {
		for k, d := range fa.Decls {
			fr[fa.rank()+k] = value{t: d.Type}
		}
		in.execStmts(fa.Body, fr, env)
	}
}

// evalExpr evaluates an expression; env is non-nil inside foralls.
// Top-level expressions are pure and charge nothing, which is what lets
// an indexed assignment evaluate its right-hand side on the owner only.
func (in *interp) evalExpr(e Expr, fr []value, env *forall.Env) value {
	switch e := e.(type) {
	case *IntLit:
		return intVal(e.V)
	case *RealLit:
		return realVal(e.V)
	case *BoolLit:
		return boolVal(e.V)
	case *Ident:
		return *in.cell(e.sym, fr)
	case *ArrayRef:
		return in.evalArrayRef(e, fr, env)
	case *Unary:
		v := in.evalExpr(e.X, fr, env)
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
		l := in.evalExpr(e.L, fr, env)
		r := in.evalExpr(e.R, fr, env)
		if env != nil {
			env.Flops(1)
		}
		return arith(e.Op, l, r)
	case *Call:
		x, y := in.evalExpr(e.Args[0], fr, env).asReal(), 0.0
		if len(e.Args) == 2 {
			y = in.evalExpr(e.Args[1], fr, env).asReal()
		}
		if env != nil {
			env.Flops(1)
		}
		return e.fn.eval(x, y)
	default:
		panic(fmt.Sprintf("unknown expression %T", e))
	}
}

// evalArrayRef reads an array element: straight from local storage at
// the top level (the checker admits only replicated arrays there), by
// the checker's access classification inside a forall.
func (in *interp) evalArrayRef(e *ArrayRef, fr []value, env *forall.Env) value {
	i, j, idx := in.subscripts(e.Indexes, fr, env)
	rank1 := len(e.Indexes) == 1
	if e.sym.Kind == symIntArray {
		ia := in.intArrs[e.sym.Slot]
		switch {
		case idx != nil:
			return intVal(ia.Get(idx...))
		case env == nil && rank1:
			return intVal(ia.Get1(i))
		case env == nil:
			return intVal(ia.Get2(i, j))
		case rank1:
			return intVal(env.ReadInt(ia, i))
		default:
			return intVal(env.ReadInt2(ia, i, j))
		}
	}
	a := in.realArrs[e.sym.Slot]
	local := e.access == accReplicated || e.access == accAligned
	switch {
	case idx != nil:
		return realVal(a.Get(idx...))
	case env == nil && rank1:
		return realVal(a.Get1(i))
	case env == nil:
		return realVal(a.Get2(i, j))
	case local && rank1:
		return realVal(env.ReadLocal(a, i))
	case local:
		return realVal(env.ReadLocal2(a, i, j))
	case rank1:
		return realVal(env.Read(a, i))
	default:
		return realVal(env.ReadAt(a, i, j))
	}
}
