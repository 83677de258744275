package lang

import "math"

// This file is the one constant-expression evaluator behind every
// elaboration-time context: const declarations (folded at Check time
// when they do not depend on P), array bounds, dist-clause block sizes
// and map owner tables, affine subscript coefficients, and the
// bytecode compiler's sizing of array slots.  It replaces the two
// historical copies that used to live in interp.go (`evaluator` and
// `evalCoeff`), and unlike them it detects integer overflow and
// division by zero in constant contexts, reporting both as positioned
// *Error diagnostics instead of silently wrapping or dying with a bare
// Go runtime panic.
//
// Run-time arithmetic inside forall bodies deliberately keeps Go's
// wrapping semantics (see arith in interp.go and the VM's integer
// ops); only declared constants get the checked treatment, because a
// wrong constant poisons every distribution and schedule built from
// it.

// constEval evaluates constant expressions over the constants
// elaborated so far, by Symbol.Slot, and the value of a map clause's
// index variable.  Errors panic as *Error; use try for a non-panicking
// entry point.
type constEval struct {
	consts []value
	index  int
}

// val evaluates e, panicking with a positioned *Error on non-constant
// subexpressions, overflow, or division by zero.
func (ce *constEval) val(e Expr) value {
	switch e := e.(type) {
	case *IntLit:
		return intVal(e.V)
	case *RealLit:
		return realVal(e.V)
	case *Ident:
		if e.sym.Kind == symMapVar {
			return intVal(ce.index)
		}
		return ce.consts[e.sym.Slot]
	case *Unary:
		if e.Op != MINUS {
			panic(errf(e.Line, 1, "operator %s is not allowed in constant expressions", e.Op))
		}
		v := ce.val(e.X)
		if v.t == TInt {
			if v.i == math.MinInt {
				panic(errf(e.Line, 1, "constant overflow negating %d", v.i))
			}
			return intVal(-v.i)
		}
		return realVal(-v.f)
	case *Binary:
		l := ce.val(e.L)
		r := ce.val(e.R)
		return constArith(e.Op, l, r, e.Line)
	default:
		panic(errf(lineOf(e), 1, "expression is not constant"))
	}
}

// intVal evaluates e and requires an integer result.
func (ce *constEval) intVal(e Expr) int {
	v := ce.val(e)
	if v.t != TInt {
		panic(errf(lineOf(e), 1, "constant expression is not an integer"))
	}
	return v.i
}

// coeff evaluates a possibly-nil affine coefficient expression (nil
// encodes 0, per checker.affineOf).
func (ce *constEval) coeff(e Expr) int {
	if e == nil {
		return 0
	}
	return ce.intVal(e)
}

// try is val with the panic converted back into an error return, for
// callers (the checker) that report diagnostics instead of unwinding.
func (ce *constEval) try(e Expr) (v value, err error) {
	defer func() {
		if r := recover(); r != nil {
			if le, ok := r.(*Error); ok {
				err = le
				return
			}
			panic(r)
		}
	}()
	return ce.val(e), nil
}

// constArith is arith (interp.go) restricted to the operators the
// checker admits in constant expressions, with checked integer
// arithmetic.  Real division by zero follows IEEE (yields ±Inf) just
// like the run-time path.
func constArith(op Kind, l, r value, line int) value {
	bothInt := l.t == TInt && r.t == TInt
	switch op {
	case PLUS:
		if bothInt {
			s := l.i + r.i
			if (l.i > 0 && r.i > 0 && s < 0) || (l.i < 0 && r.i < 0 && s >= 0) {
				panic(errf(line, 1, "constant overflow in %d + %d", l.i, r.i))
			}
			return intVal(s)
		}
		return realVal(l.asReal() + r.asReal())
	case MINUS:
		if bothInt {
			s := l.i - r.i
			if (l.i >= 0 && r.i < 0 && s < 0) || (l.i < 0 && r.i > 0 && s >= 0) {
				panic(errf(line, 1, "constant overflow in %d - %d", l.i, r.i))
			}
			return intVal(s)
		}
		return realVal(l.asReal() - r.asReal())
	case STAR:
		if bothInt {
			p := l.i * r.i
			if l.i != 0 && (p/l.i != r.i || (l.i == -1 && r.i == math.MinInt)) {
				panic(errf(line, 1, "constant overflow in %d * %d", l.i, r.i))
			}
			return intVal(p)
		}
		return realVal(l.asReal() * r.asReal())
	case SLASH:
		return realVal(l.asReal() / r.asReal())
	case KWDiv:
		if r.i == 0 {
			panic(errf(line, 1, "constant division by zero"))
		}
		if l.i == math.MinInt && r.i == -1 {
			panic(errf(line, 1, "constant overflow in %d div %d", l.i, r.i))
		}
		return intVal(l.i / r.i)
	case KWMod:
		if r.i == 0 {
			panic(errf(line, 1, "constant mod by zero"))
		}
		return intVal(l.i % r.i)
	default:
		panic(errf(line, 1, "operator %s is not allowed in constant expressions", op))
	}
}

// lineOf extracts the source line of an expression node.
func lineOf(e Expr) int {
	switch e := e.(type) {
	case *IntLit:
		return e.Line
	case *RealLit:
		return e.Line
	case *BoolLit:
		return e.Line
	case *Ident:
		return e.Line
	case *ArrayRef:
		return e.Line
	case *Unary:
		return e.Line
	case *Binary:
		return e.Line
	case *Call:
		return e.Line
	}
	return 0
}

// foldConsts evaluates every const declaration that does not
// (transitively) depend on the processor count P and caches the result
// on the AST node (ConstDecl.Folded/Val).  It runs at Check time so
// overflow and division-by-zero diagnostics surface with source
// positions at compile time, and so elaboration and the bytecode
// compiler reuse one result instead of re-walking the expressions.
// P-dependent constants stay unfolded; Program.elaborate evaluates
// them once the real estate agent has chosen P.  The processor bounds
// are what chooses P, so they may not depend on it.
func foldConsts(f *File) error {
	ce := &constEval{consts: make([]value, f.nConsts)}
	pDep := make([]bool, f.nConsts) // by Symbol.Slot
	if f.Procs.sym != nil {
		pDep[f.Procs.sym.Slot] = true
	}
	dependsOnP := func(e Expr) (depends bool) {
		walkExpr(e, func(x Expr) {
			if id, ok := x.(*Ident); ok && pDep[id.sym.Slot] {
				depends = true
			}
		})
		return depends
	}
	for _, d := range f.Consts {
		if dependsOnP(d.X) {
			pDep[d.sym.Slot] = true
			d.Folded = false
			continue
		}
		v, err := ce.try(d.X)
		if err != nil {
			return err
		}
		d.Folded, d.Val = true, v
		ce.consts[d.sym.Slot] = v
	}
	for _, b := range []Expr{f.Procs.Size, f.Procs.Size2, f.Procs.MinP, f.Procs.MaxP} {
		if b != nil && dependsOnP(b) {
			return errf(f.Procs.Line, 1, "processor bounds may not depend on %q", f.Procs.SizeVar)
		}
	}
	return nil
}
