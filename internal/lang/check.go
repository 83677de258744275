package lang

import (
	"fmt"
	"math"
)

// checker performs semantic analysis — name resolution included: every
// use of a name is bound to its Symbol here, once — and the subscript
// classification of paper §3: each distributed-array reference in a
// forall is proved affine (compile-time analyzable) or marked indirect
// (inspector).
type checker struct {
	file *File
	// syms is the global scope: P, consts, declared variables, and the
	// implicit variable of each enclosing top-level for.
	syms  map[string]*Symbol
	procs *ProcsDecl
}

// fresh rejects a second declaration of a global name.
func (c *checker) fresh(line int, name string) error {
	if _, dup := c.syms[name]; dup {
		return errf(line, 1, "duplicate declaration of %q", name)
	}
	return nil
}

// declare adds a global name, numbering it in its kind's table.
func (c *checker) declare(name string, kind symKind, t BaseType, d *VarDecl) *Symbol {
	n := &c.file.nGlobals
	switch kind {
	case symConst:
		n = &c.file.nConsts
	case symRealArray:
		n = &c.file.nReals
	case symIntArray:
		n = &c.file.nInts
	}
	sym := &Symbol{Name: name, Kind: kind, Type: t, Slot: *n, decl: d}
	*n++
	c.syms[name] = sym
	if kind != symLoopVar {
		c.file.syms = append(c.file.syms, sym)
	}
	return sym
}

// Check validates a parsed File, binds its names and annotates its
// foralls.
func Check(f *File) error {
	c := &checker{file: f, syms: map[string]*Symbol{}}
	if f.Procs == nil {
		return errf(1, 1, "program lacks a processors declaration")
	}
	f.syms, f.nConsts, f.nGlobals, f.nReals, f.nInts, f.foralls = nil, 0, 0, 0, 0, nil
	c.procs = f.Procs
	if f.Procs.SizeVar != "" {
		f.Procs.sym = c.declare(f.Procs.SizeVar, symConst, TInt, nil)
	}
	for _, d := range f.Consts {
		if err := c.fresh(d.Line, d.Name); err != nil {
			return err
		}
		t, err := c.exprType(d.X, nil)
		if err != nil {
			return err
		}
		if t == TBool {
			return errf(d.Line, 1, "boolean constants are not supported")
		}
		if !isConstExpr(d.X) {
			return errf(d.Line, 1, "const %q is not a constant expression", d.Name)
		}
		d.sym = c.declare(d.Name, symConst, t, nil)
	}
	for _, b := range []Expr{f.Procs.Size, f.Procs.Size2, f.Procs.MinP, f.Procs.MaxP} {
		if b != nil {
			if err := c.constInt(f.Procs.Line, f.Procs.Name, "processor bounds", b); err != nil {
				return err
			}
		}
	}
	for _, d := range f.Vars {
		for _, name := range d.Names {
			if err := c.fresh(d.Line, name); err != nil {
				return err
			}
			if len(d.Dims) == 0 {
				c.declare(name, symScalar, d.Elem, nil)
				continue
			}
			if d.Elem == TBool {
				return errf(d.Line, 1, "%q: boolean arrays are not supported", name)
			}
			if d.Dist != nil {
				if len(d.Dist) != len(d.Dims) {
					return errf(d.Line, 1, "%q: %d dist items for %d dimensions", name, len(d.Dist), len(d.Dims))
				}
				if d.OnTo != "" && d.OnTo != c.procs.Name {
					return errf(d.Line, 1, "%q: unknown processor array %q", name, d.OnTo)
				}
				if err := c.distItems(d.Line, name, d.Dist); err != nil {
					return err
				}
			}
			for _, dim := range d.Dims {
				for _, b := range []Expr{dim.Lo, dim.Hi} {
					if err := c.constInt(d.Line, name, "array bounds", b); err != nil {
						return err
					}
				}
			}
			kind := symRealArray
			if d.Elem == TInt {
				kind = symIntArray
			}
			c.declare(name, kind, d.Elem, d)
		}
	}
	if err := c.stmts(f.Main, nil); err != nil {
		return err
	}
	// Foralls are classified once every statement is checked, when the
	// redist flag of every array is final.
	for _, fa := range f.foralls {
		if fa.Var2 != "" {
			c.classify2(fa)
		} else if err := c.classify(fa); err != nil {
			return err
		}
	}
	// Evaluate P-independent constants now (cached on the AST), so
	// overflow and division-by-zero surface as positioned compile-time
	// diagnostics rather than run-time panics.
	return foldConsts(f)
}

// constInt binds and types e, which must be an integer constant
// expression; name and what name the construct in the diagnostic.
func (c *checker) constInt(line int, name, what string, e Expr) error {
	t, err := c.exprType(e, nil)
	if err != nil {
		return err
	}
	if t != TInt || !isConstExpr(e) {
		return errf(line, 1, "%q: %s must be integer constant expressions", name, what)
	}
	return nil
}

// distributed reports whether an array declaration has a dist clause.
func distributed(d *VarDecl) bool { return d.Dist != nil }

// locals is a forall's scope: its index variables, its declared locals
// and the variables its body's for loops declare implicitly, each bound
// to a slot of the forall's frame.  Slots are never reused, so n ends
// as the frame's size.
type locals struct {
	syms map[string]*Symbol
	n    int
}

func (l *locals) declare(name string, t BaseType) *Symbol {
	if l.syms == nil {
		l.syms = map[string]*Symbol{}
	}
	sym := &Symbol{Name: name, Kind: symLocal, Type: t, Slot: l.n}
	l.n++
	l.syms[name] = sym
	return sym
}

// lookup resolves a name: the forall's scope first (loc is nil outside
// foralls), then the globals.
func (c *checker) lookup(name string, loc *locals) *Symbol {
	if loc != nil {
		if sym := loc.syms[name]; sym != nil {
			return sym
		}
	}
	return c.syms[name]
}

// stmts checks a statement list.  loc is non-nil inside a forall;
// inside sequential for bodies nested in a forall the same loc flows
// through.
func (c *checker) stmts(ss []Stmt, loc *locals) error {
	for _, s := range ss {
		if err := c.stmt(s, loc); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) stmt(s Stmt, loc *locals) error {
	switch s := s.(type) {
	case *Assign:
		return c.assign(s, loc)
	case *Forall:
		if loc != nil {
			return errf(s.Line, 1, "nested forall loops are not supported")
		}
		return c.forall(s)
	case *ForLoop:
		// Pascal style: the loop variable may be a declared integer
		// scalar; otherwise it is implicitly declared for the loop, in a
		// slot of its own.
		if loc != nil {
			if s.sym = loc.syms[s.Var]; s.sym == nil {
				s.sym = loc.declare(s.Var, TInt)
				defer delete(loc.syms, s.Var)
			} else if s.sym.Type != TInt {
				return errf(s.Line, 1, "loop variable %q is not an integer", s.Var)
			}
		} else if s.sym = c.syms[s.Var]; s.sym == nil {
			s.sym = c.declare(s.Var, symLoopVar, TInt, nil)
			defer delete(c.syms, s.Var)
		} else if (s.sym.Kind != symScalar && s.sym.Kind != symLoopVar) || s.sym.Type != TInt {
			return errf(s.Line, 1, "loop variable %q is not an integer scalar", s.Var)
		}
		for _, b := range []Expr{s.Lo, s.Hi} {
			t, err := c.exprType(b, loc)
			if err != nil {
				return err
			}
			if t != TInt {
				return errf(s.Line, 1, "for bounds must be integers")
			}
		}
		return c.stmts(s.Body, loc)
	case *While:
		if loc != nil {
			return errf(s.Line, 1, "while inside forall is not supported")
		}
		t, err := c.exprType(s.Cond, loc)
		if err != nil {
			return err
		}
		if t != TBool {
			return errf(s.Line, 1, "while condition must be boolean")
		}
		return c.stmts(s.Body, loc)
	case *If:
		t, err := c.exprType(s.Cond, loc)
		if err != nil {
			return err
		}
		if t != TBool {
			return errf(s.Line, 1, "if condition must be boolean")
		}
		if err := c.stmts(s.Then, loc); err != nil {
			return err
		}
		return c.stmts(s.Else, loc)
	case *Reduce:
		if loc != nil {
			return errf(s.Line, 1, "reduce inside forall is not supported")
		}
		return c.reduce(s)
	case *Redistribute:
		if loc != nil {
			return errf(s.Line, 1, "redistribute inside forall is not supported")
		}
		return c.redistribute(s)
	default:
		return fmt.Errorf("lang: unknown statement %T", s)
	}
}

// redistribute checks a "redistribute name as [items]" statement: the
// target must be a distributed real array, the item list must match
// its rank, and the items must obey the same constraints a
// declaration's dist clause does.
func (c *checker) redistribute(s *Redistribute) error {
	sym := c.syms[s.Name]
	if sym == nil || sym.Kind != symRealArray || !distributed(sym.decl) || sym.Type != TReal {
		return errf(s.Line, 1, "redistribute target %q must be a distributed real array", s.Name)
	}
	s.sym, sym.redist = sym, true
	if len(s.Items) != len(sym.decl.Dims) {
		return errf(s.Line, 1, "%q: %d dist items for %d dimensions", s.Name, len(s.Items), len(sym.decl.Dims))
	}
	return c.distItems(s.Line, s.Name, s.Items)
}

// distItems validates one dist-clause item list — shared by array
// declarations and redistribute statements.  Map owner expressions are
// evaluated per index at elaboration time, so they may use only
// constants, P, and the bound index variable; block_cyclic sizes must
// be integer constants; and the number of distributed (non-*)
// dimensions must match the processor array's rank (§2.2).
func (c *checker) distItems(line int, name string, items []DistItem) error {
	nd := 0
	for _, item := range items {
		switch item.Kind {
		case STAR:
			continue
		case KWBlockCyclic:
			if err := c.constInt(line, name, "block_cyclic sizes", item.Block); err != nil {
				return err
			}
		case KWMap:
			bound := &locals{syms: map[string]*Symbol{
				item.MapVar: {Name: item.MapVar, Kind: symMapVar, Type: TInt},
			}}
			t, err := c.exprType(item.MapExpr, bound)
			if err != nil {
				return err
			}
			if t != TInt {
				return errf(line, 1, "%q: map owner expression must be an integer", name)
			}
			if !isConstExpr(item.MapExpr) {
				return errf(line, 1, "%q: map owner expression must be computable from constants, P, and %q",
					name, item.MapVar)
			}
		}
		nd++
	}
	procRank := 1
	if c.procs.Rank2() {
		procRank = 2
	}
	if nd != procRank {
		return errf(line, 1, "%q: %d distributed dimensions but processor array has rank %d",
			name, nd, procRank)
	}
	return nil
}

func (c *checker) reduce(s *Reduce) error {
	s.into = c.syms[s.Into]
	if s.into == nil || s.into.Kind != symScalar || s.into.Type != TReal {
		return errf(s.Line, 1, "reduce target %q must be a real scalar", s.Into)
	}
	if s.red = predeclared(s.Op, true); s.red == nil {
		return errf(s.Line, 1, "unknown reduction %q (maxdiff, sum, max, min)", s.Op)
	}
	if len(s.Args) != s.red.args {
		return errf(s.Line, 1, "reduce %s takes %d array(s)", s.Op, s.red.args)
	}
	s.args = s.args[:0]
	for _, a := range s.Args {
		as := c.syms[a]
		if as == nil || as.Kind != symRealArray || as.Type != TReal || !distributed(as.decl) {
			return errf(s.Line, 1, "reduce argument %q must be a distributed real array", a)
		}
		s.args = append(s.args, as)
	}
	return nil
}

func (c *checker) assign(s *Assign, loc *locals) error {
	sym := c.lookup(s.Name, loc)
	if sym == nil {
		return errf(s.Line, 1, "undeclared name %q", s.Name)
	}
	s.sym = sym
	switch sym.Kind {
	case symConst:
		return errf(s.Line, 1, "cannot assign to constant %q", s.Name)
	case symLocal, symScalar, symLoopVar:
		if len(s.Indexes) != 0 {
			return errf(s.Line, 1, "%q is a scalar", s.Name)
		}
		if loc != nil && sym.Kind != symLocal {
			return errf(s.Line, 1, "assignment to global scalar %q inside forall", s.Name)
		}
	default: // an array
		d := sym.decl
		if len(s.Indexes) != len(d.Dims) {
			return errf(s.Line, 1, "%q has %d dimensions, %d indexes given", s.Name, len(d.Dims), len(s.Indexes))
		}
		for _, ix := range s.Indexes {
			t, err := c.exprType(ix, loc)
			if err != nil {
				return err
			}
			if t != TInt {
				return errf(s.Line, 1, "array index must be an integer")
			}
		}
		if loc != nil {
			// Inside a forall: owner-computes writes, reals only.
			if !distributed(d) {
				return errf(s.Line, 1, "write to replicated array %q inside forall", s.Name)
			}
			if d.Elem != TReal {
				return errf(s.Line, 1, "only real arrays may be written inside forall")
			}
		}
	}
	t, err := c.exprType(s.X, loc)
	if err != nil {
		return err
	}
	if t == sym.Type || (sym.Type == TReal && t == TInt) { // implicit widening
		return nil
	}
	return errf(s.Line, 1, "cannot assign %s to %s", t, sym.Type)
}

// onArray resolves a forall's on-clause array, which must be a
// distributed real array of the forall's rank.
func (c *checker) onArray(fa *Forall, rank int, want string) (*Symbol, error) {
	sym := c.syms[fa.OnArray]
	if sym == nil || sym.Kind != symRealArray || !distributed(sym.decl) || len(sym.decl.Dims) != rank {
		return nil, errf(fa.Line, 1, "on clause needs a distributed %s array, got %q", want, fa.OnArray)
	}
	return sym, nil
}

// forallLocals declares the body's locals after the index variables.
func (c *checker) forallLocals(fa *Forall, loc *locals) error {
	for _, d := range fa.Decls {
		if _, dup := loc.syms[d.Name]; dup {
			return errf(d.Line, 1, "duplicate forall local %q", d.Name)
		}
		// Locals may shadow global scalars (each iteration has its own
		// copy, Figure 4 style), but not arrays — an ArrayRef to the
		// name would silently change meaning.
		if s, shadow := c.syms[d.Name]; shadow && s.isArray() {
			return errf(d.Line, 1, "forall local %q shadows an array", d.Name)
		}
		loc.declare(d.Name, d.Type)
	}
	return nil
}

// forall checks the loop and performs subscript classification.
func (c *checker) forall(fa *Forall) error {
	if fa.Var2 != "" {
		return c.forall2(fa)
	}
	if fa.OnIndex2 != nil {
		return errf(fa.Line, 1, "two on-clause subscripts need a two-index forall")
	}
	onSym, err := c.onArray(fa, 1, "one-dimensional")
	if err != nil {
		return err
	}
	loc := &locals{}
	loc.declare(fa.Var, TInt)
	if t, err := c.exprType(fa.OnIndex, loc); err != nil {
		return err
	} else if t != TInt {
		return errf(fa.Line, 1, "on clause subscript must be an integer")
	}
	if err := c.forallLocals(fa, loc); err != nil {
		return err
	}
	for _, b := range []Expr{fa.Lo, fa.Hi} {
		t, err := c.exprType(b, nil)
		if err != nil {
			return err
		}
		if t != TInt {
			return errf(fa.Line, 1, "forall bounds must be integers")
		}
	}
	// The on-clause subscript must be affine in the loop variable.
	aE, cE, ok := c.affineOf(fa.OnIndex, fa.Var)
	if !ok {
		return errf(fa.Line, 1, "on clause subscript must be affine in %q", fa.Var)
	}
	fa.on = readInfo{array: onSym, affine: true, aExpr: aE, cExpr: cE}

	if err := c.stmts(fa.Body, loc); err != nil {
		return err
	}
	fa.frame = loc.n
	c.file.foralls = append(c.file.foralls, fa)
	return nil
}

// forall2 checks a two-index forall over a 2-D processor array:
// "forall i in a..b, j in c..d on A[fI(i), fJ(j)].loc do ... end".
// Each on-clause subscript must be affine in its own index variable
// (identity, shifted, strided, or reflected placement — paper §3.1
// lifted per dimension); body references aligned with [i,j] under an
// identity on clause are local, per-dimension affine reads get
// compile-time schedules, all other distributed reads go through the
// inspector.
func (c *checker) forall2(fa *Forall) error {
	if !c.procs.Rank2() {
		return errf(fa.Line, 1, "two-index forall needs a 2-D processor array")
	}
	onSym, err := c.onArray(fa, 2, "two-dimensional")
	if err != nil {
		return err
	}
	if fa.OnIndex2 == nil {
		return errf(fa.Line, 1, "2-D on clause needs two subscripts")
	}
	if fa.Var == fa.Var2 {
		return errf(fa.Line, 1, "forall index variables must differ")
	}
	loc := &locals{}
	loc.declare(fa.Var, TInt)
	loc.declare(fa.Var2, TInt)
	for _, e := range []Expr{fa.OnIndex, fa.OnIndex2} {
		if t, err := c.exprType(e, loc); err != nil {
			return err
		} else if t != TInt {
			return errf(fa.Line, 1, "on clause subscript must be an integer")
		}
	}
	// Per-dimension affine on-clause subscripts with nonzero
	// coefficients: the first may mention only the first index
	// variable, the second only the second (cross-variable forms are
	// not affine in their own variable, because loop variables are not
	// constants).
	aIE, cIE, ok := c.affineOf(fa.OnIndex, fa.Var)
	if !ok || aIE == nil {
		return errf(fa.Line, 1, "on clause subscript must be affine in %q", fa.Var)
	}
	aJE, cJE, ok := c.affineOf(fa.OnIndex2, fa.Var2)
	if !ok || aJE == nil {
		return errf(fa.Line, 1, "on clause subscript must be affine in %q", fa.Var2)
	}
	fa.on = readInfo{array: onSym, affine2: true, aIExpr: aIE, cIExpr: cIE, aJExpr: aJE, cJExpr: cJE}
	if err := c.forallLocals(fa, loc); err != nil {
		return err
	}
	for _, b := range []Expr{fa.Lo, fa.Hi, fa.Lo2, fa.Hi2} {
		t, err := c.exprType(b, nil)
		if err != nil {
			return err
		}
		if t != TInt {
			return errf(fa.Line, 1, "forall bounds must be integers")
		}
	}
	if err := c.stmts(fa.Body, loc); err != nil {
		return err
	}
	fa.frame = loc.n
	c.file.foralls = append(c.file.foralls, fa)
	return nil
}

// classify2 annotates references inside a two-index forall: aligned
// [i,j] accesses under an identity on clause are local; reads whose
// subscripts are per-dimension affine — X[aI*i+cI, aJ*j+cJ] — get
// compile-time schedules from the rank-2 closed forms; everything else
// uses the inspector.
func (c *checker) classify2(fa *Forall) {
	// The [i,j]-aligned local shortcut is sound only when placement is
	// the identity "on A[i,j].loc"; under a shifted/strided on clause
	// even an identically-subscripted read of the on array itself can
	// be remote, so it must take the affine schedule path below.
	onIdentity := false
	if i1, ok1 := fa.OnIndex.(*Ident); ok1 {
		if i2, ok2 := fa.OnIndex2.(*Ident); ok2 {
			onIdentity = i1.Name == fa.Var && i2.Name == fa.Var2
		}
	}
	seen := map[*Symbol]bool{} // indirect reads and deps already listed
	walkStmts(fa.Body, func(e Expr) {
		ref, ok := e.(*ArrayRef)
		if !ok {
			return
		}
		d := ref.sym.decl
		if !distributed(d) {
			ref.access = accReplicated
			return
		}
		if d.Elem == TInt {
			ref.access = accAligned
			if !seen[ref.sym] {
				seen[ref.sym] = true
				fa.deps = append(fa.deps, ref.sym)
			}
			return
		}
		if len(d.Dims) == 2 {
			// The [i,j] shortcut is provably local only when the read
			// array shares the on array's declaration (hence its dist
			// clause); an identically-subscripted array with a different
			// distribution goes through the affine path below, which
			// derives whatever communication the mismatch needs.
			i1, ok1 := ref.Indexes[0].(*Ident)
			i2, ok2 := ref.Indexes[1].(*Ident)
			if onIdentity && ok1 && ok2 && i1.Name == fa.Var && i2.Name == fa.Var2 &&
				d == fa.on.array.decl && !ref.sym.redist && !fa.on.array.redist {
				ref.access = accAligned
				return
			}
			// Per-dimension affine: the first subscript in the first
			// loop variable only, the second in the second only (a
			// subscript mentioning the other variable is not affine in
			// its own, because loop variables are not constants).
			aIE, cIE, okI := c.affineOf(ref.Indexes[0], fa.Var)
			aJE, cJE, okJ := c.affineOf(ref.Indexes[1], fa.Var2)
			if okI && okJ {
				ref.access = accAffine
				fa.reads = append(fa.reads, &readInfo{
					array: ref.sym, affine2: true,
					aIExpr: aIE, cIExpr: cIE, aJExpr: aJE, cJExpr: cJE,
				})
				return
			}
		}
		ref.access = accIndirect
		if !seen[ref.sym] {
			seen[ref.sym] = true
			fa.reads = append(fa.reads, &readInfo{array: ref.sym})
		}
	})
}

// classify walks the forall body annotating ArrayRef reads and
// collecting the loop's read slots and dependencies.
func (c *checker) classify(fa *Forall) error {
	seen := map[*Symbol]bool{} // indirect reads and deps already listed
	var err error
	walkStmts(fa.Body, func(e Expr) {
		ref, ok := e.(*ArrayRef)
		if !ok || err != nil {
			return
		}
		d := ref.sym.decl
		if !distributed(d) {
			ref.access = accReplicated
			return
		}
		if d.Elem == TInt {
			// Subscript arrays travel with the loop (aligned); their
			// contents drive the reference pattern.
			ref.access = accAligned
			if !seen[ref.sym] {
				seen[ref.sym] = true
				fa.deps = append(fa.deps, ref.sym)
			}
			return
		}
		if len(d.Dims) > 2 {
			err = errf(ref.Line, 1, "arrays of rank > 2 are not supported in foralls")
			return
		}
		if len(d.Dims) == 2 && c.alignedRows(fa, ref) {
			ref.access = accAligned
			return
		}
		// An affine read: an element of a rank-1 array, or a line of a
		// rank-2 one by its one subscript affine in the loop variable,
		// the other anything.  Whether a line read takes the
		// compile-time path is decided against the layout the array has
		// when the loop's schedule is built (forall.ReadSpec.Dim).
		for dim, ix := range ref.Indexes {
			if aE, cE, ok := c.affineOf(ix, fa.Var); ok && (aE != nil || len(d.Dims) == 1) {
				ref.access = accAffine
				fa.reads = append(fa.reads, &readInfo{array: ref.sym, affine: true, aExpr: aE, cExpr: cE, dim: dim})
				return
			}
		}
		ref.access = accIndirect
		if !seen[ref.sym] {
			seen[ref.sym] = true
			fa.reads = append(fa.reads, &readInfo{array: ref.sym})
		}
	})
	return err
}

// alignedRows reports whether the rank-2 read ref of a rank-1 forall
// is provably local, so that it may skip every check: it reads row i of
// an array whose rows are placed as the on array's elements are, under
// "on A[i].loc".  That needs its first dimension distributed as the on
// array is, over the same extent, its second collapsed (*), and neither
// array redistributed; alignment is proved against the declared layouts
// only.  Any other rank-2 read goes through a schedule.
func (c *checker) alignedRows(fa *Forall, ref *ArrayRef) bool {
	id, ok1 := ref.Indexes[0].(*Ident)
	onID, ok2 := fa.OnIndex.(*Ident)
	if !ok1 || !ok2 || id.Name != fa.Var || onID.Name != fa.Var || ref.sym.redist || fa.on.array.redist {
		return false
	}
	d, on := ref.sym.decl, fa.on.array.decl
	row, onItem := d.Dist[0], on.Dist[0]
	return d.Dist[1].Kind == STAR && row.Kind == onItem.Kind &&
		sameExpr(row.Block, onItem.Block) && row.MapVar == onItem.MapVar && sameExpr(row.MapExpr, onItem.MapExpr) &&
		sameExpr(d.Dims[0].Lo, on.Dims[0].Lo) && sameExpr(d.Dims[0].Hi, on.Dims[0].Hi)
}

// sameExpr reports whether two constant expressions are written alike,
// and so have one value under every P (two nils are alike).
func sameExpr(a, b Expr) bool {
	switch a := a.(type) {
	case nil:
		return b == nil
	case *IntLit:
		b, ok := b.(*IntLit)
		return ok && a.V == b.V
	case *Ident:
		b, ok := b.(*Ident)
		return ok && a.Name == b.Name
	case *Unary:
		b, ok := b.(*Unary)
		return ok && a.Op == b.Op && sameExpr(a.X, b.X)
	case *Binary:
		b, ok := b.(*Binary)
		return ok && a.Op == b.Op && sameExpr(a.L, b.L) && sameExpr(a.R, b.R)
	}
	return false
}

// affineOf tries to express e as a*loopVar + c with loop-invariant
// constant expressions a and c.  Returned exprs may be nil (meaning 0).
func (c *checker) affineOf(e Expr, loopVar string) (aE, cE Expr, ok bool) {
	switch e := e.(type) {
	case *IntLit:
		return nil, e, true
	case *Ident:
		if e.Name == loopVar {
			return &IntLit{V: 1, Line: e.Line}, nil, true
		}
		if isConstExpr(e) {
			return nil, e, true
		}
		return nil, nil, false
	case *Unary:
		if e.Op != MINUS {
			return nil, nil, false
		}
		a1, c1, ok := c.affineOf(e.X, loopVar)
		if !ok {
			return nil, nil, false
		}
		return negExpr(a1), negExpr(c1), true
	case *Binary:
		switch e.Op {
		case PLUS, MINUS:
			a1, c1, ok1 := c.affineOf(e.L, loopVar)
			a2, c2, ok2 := c.affineOf(e.R, loopVar)
			if !ok1 || !ok2 {
				return nil, nil, false
			}
			if e.Op == MINUS {
				a2, c2 = negExpr(a2), negExpr(c2)
			}
			return addExprs(a1, a2), addExprs(c1, c2), true
		case STAR:
			// const * linear or linear * const
			if isConstExpr(e.L) {
				a2, c2, ok := c.affineOf(e.R, loopVar)
				if !ok {
					return nil, nil, false
				}
				return mulExprs(e.L, a2), mulExprs(e.L, c2), true
			}
			if isConstExpr(e.R) {
				a1, c1, ok := c.affineOf(e.L, loopVar)
				if !ok {
					return nil, nil, false
				}
				return mulExprs(e.R, a1), mulExprs(e.R, c1), true
			}
			return nil, nil, false
		default:
			if isConstExpr(e) {
				return nil, e, true
			}
			return nil, nil, false
		}
	default:
		if isConstExpr(e) {
			return nil, e, true
		}
		return nil, nil, false
	}
}

func negExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	return &Unary{Op: MINUS, X: e}
}

func addExprs(a, b Expr) Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &Binary{Op: PLUS, L: a, R: b}
}

func mulExprs(k, e Expr) Expr {
	if e == nil {
		return nil
	}
	return &Binary{Op: STAR, L: k, R: e}
}

// isConstExpr reports whether the bound expression e is evaluable at
// elaboration time: literals, consts, P, a map clause's index
// variable, and arithmetic over them.
func isConstExpr(e Expr) bool {
	switch e := e.(type) {
	case *IntLit, *RealLit:
		return true
	case *Ident:
		return e.sym.Kind == symConst || e.sym.Kind == symMapVar
	case *Unary:
		return e.Op == MINUS && isConstExpr(e.X)
	case *Binary:
		switch e.Op {
		case PLUS, MINUS, STAR, SLASH, KWDiv, KWMod:
			return isConstExpr(e.L) && isConstExpr(e.R)
		}
		return false
	default:
		return false
	}
}

// exprType infers and checks the type of an expression, binding the
// names in it.
func (c *checker) exprType(e Expr, loc *locals) (BaseType, error) {
	switch e := e.(type) {
	case *IntLit:
		return TInt, nil
	case *RealLit:
		return TReal, nil
	case *BoolLit:
		return TBool, nil
	case *Ident:
		s := c.lookup(e.Name, loc)
		if s == nil {
			return 0, errf(e.Line, 1, "undeclared name %q", e.Name)
		}
		if s.isArray() {
			return 0, errf(e.Line, 1, "array %q used without subscripts", e.Name)
		}
		e.sym = s
		return s.Type, nil
	case *ArrayRef:
		s := c.syms[e.Name]
		if s == nil || !s.isArray() {
			return 0, errf(e.Line, 1, "%q is not an array", e.Name)
		}
		e.sym = s
		d := s.decl
		if len(e.Indexes) != len(d.Dims) {
			return 0, errf(e.Line, 1, "%q has %d dimensions, %d indexes given", e.Name, len(d.Dims), len(e.Indexes))
		}
		for _, ix := range e.Indexes {
			t, err := c.exprType(ix, loc)
			if err != nil {
				return 0, err
			}
			if t != TInt {
				return 0, errf(e.Line, 1, "array index must be an integer")
			}
		}
		if loc == nil && distributed(d) {
			return 0, errf(e.Line, 1, "distributed array %q read outside a forall (use forall or reduce)", e.Name)
		}
		return d.Elem, nil
	case *Unary:
		t, err := c.exprType(e.X, loc)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case MINUS:
			if t == TBool {
				return 0, errf(e.Line, 1, "cannot negate a boolean")
			}
			return t, nil
		case KWNot:
			if t != TBool {
				return 0, errf(e.Line, 1, "not needs a boolean")
			}
			return TBool, nil
		}
		return 0, errf(e.Line, 1, "bad unary operator")
	case *Binary:
		lt, err := c.exprType(e.L, loc)
		if err != nil {
			return 0, err
		}
		rt, err := c.exprType(e.R, loc)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case KWAnd, KWOr:
			if lt != TBool || rt != TBool {
				return 0, errf(e.Line, 1, "%s needs booleans", e.Op)
			}
			return TBool, nil
		case LT, LE, GT, GE, EQ, NE:
			if lt == TBool || rt == TBool {
				if lt != rt {
					return 0, errf(e.Line, 1, "cannot compare %s with %s", lt, rt)
				}
				return TBool, nil
			}
			return TBool, nil
		case KWDiv, KWMod:
			if lt != TInt || rt != TInt {
				return 0, errf(e.Line, 1, "%s needs integers", e.Op)
			}
			return TInt, nil
		case PLUS, MINUS, STAR:
			if lt == TBool || rt == TBool {
				return 0, errf(e.Line, 1, "arithmetic on booleans")
			}
			if lt == TReal || rt == TReal {
				return TReal, nil
			}
			return TInt, nil
		case SLASH:
			if lt == TBool || rt == TBool {
				return 0, errf(e.Line, 1, "arithmetic on booleans")
			}
			return TReal, nil
		}
		return 0, errf(e.Line, 1, "bad binary operator")
	case *Call:
		if e.fn = predeclared(e.Name, false); e.fn == nil {
			return 0, errf(e.Line, 1, "unknown function %q", e.Name)
		}
		if len(e.Args) != e.fn.args {
			return 0, errf(e.Line, 1, "%s takes %d argument(s)", e.Name, e.fn.args)
		}
		for _, a := range e.Args {
			t, err := c.exprType(a, loc)
			if err != nil {
				return 0, err
			}
			if t == TBool {
				return 0, errf(e.Line, 1, "%s does not take booleans", e.Name)
			}
		}
		return e.fn.ret, nil
	default:
		return 0, fmt.Errorf("lang: unknown expression %T", e)
	}
}

// builtin is a predeclared name: an intrinsic function, which only a
// call names, or a reduction, which only a reduce statement names — so
// max and min name one of each, and a user scalar may be called max.
// The checker binds each Call and Reduce to its entry; the constant
// folder, the compiler, execReduce and the walker oracle
// (walker_test.go) read the entry and never the name.
type builtin struct {
	name   string
	reduce bool
	args   int      // arguments, or arrays folded
	ret    BaseType // a function's result (a reduction's target is real)
	// A function's implementation (y is unused by the unary ones), and
	// the VM instruction it compiles to: opIntToF for float, whose
	// whole effect is the widening.
	eval func(x, y float64) value
	op   opcode
	// A reduction folds each owned element (|a - b| for maxdiff) into
	// identity, the contribution of a node that owns nothing, with
	// combine, then combines the nodes' results with the machine's
	// AllReduce operator of the same meaning.
	identity  float64
	combine   func(acc, v float64) float64
	allReduce string
}

// universe is the predeclared scope.
var universe = [...]builtin{
	{name: "abs", args: 1, ret: TReal, op: opAbsF, eval: func(x, _ float64) value { return realVal(math.Abs(x)) }},
	{name: "sqrt", args: 1, ret: TReal, op: opSqrtF, eval: func(x, _ float64) value { return realVal(math.Sqrt(x)) }},
	{name: "min", args: 2, ret: TReal, op: opMinF, eval: func(x, y float64) value { return realVal(math.Min(x, y)) }},
	{name: "max", args: 2, ret: TReal, op: opMaxF, eval: func(x, y float64) value { return realVal(math.Max(x, y)) }},
	{name: "float", args: 1, ret: TReal, op: opIntToF, eval: func(x, _ float64) value { return realVal(x) }},
	{name: "trunc", args: 1, ret: TInt, op: opTruncI, eval: func(x, _ float64) value { return intVal(int(x)) }},
	{name: "maxdiff", reduce: true, args: 2, identity: 0, combine: greater, allReduce: "max"},
	{name: "sum", reduce: true, args: 1, identity: 0, combine: plus, allReduce: "sum"},
	{name: "max", reduce: true, args: 1, identity: math.Inf(-1), combine: greater, allReduce: "max"},
	{name: "min", reduce: true, args: 1, identity: math.Inf(1), combine: lesser, allReduce: "min"},
}

func plus(acc, v float64) float64 { return acc + v }

func greater(acc, v float64) float64 {
	if v > acc {
		return v
	}
	return acc
}

func lesser(acc, v float64) float64 {
	if v < acc {
		return v
	}
	return acc
}

// predeclared resolves a function name (reduce false) or a reduction
// name (reduce true) in the universe; nil if there is none.
func predeclared(name string, reduce bool) *builtin {
	for k := range universe {
		if b := &universe[k]; b.name == name && b.reduce == reduce {
			return b
		}
	}
	return nil
}

// walkStmts calls f on every expression in a statement tree.
func walkStmts(ss []Stmt, f func(Expr)) {
	for _, s := range ss {
		switch s := s.(type) {
		case *Assign:
			for _, ix := range s.Indexes {
				walkExpr(ix, f)
			}
			walkExpr(s.X, f)
		case *Forall:
			walkExpr(s.Lo, f)
			walkExpr(s.Hi, f)
			walkExpr(s.Lo2, f)
			walkExpr(s.Hi2, f)
			walkExpr(s.OnIndex, f)
			walkExpr(s.OnIndex2, f)
			walkStmts(s.Body, f)
		case *ForLoop:
			walkExpr(s.Lo, f)
			walkExpr(s.Hi, f)
			walkStmts(s.Body, f)
		case *While:
			walkExpr(s.Cond, f)
			walkStmts(s.Body, f)
		case *If:
			walkExpr(s.Cond, f)
			walkStmts(s.Then, f)
			walkStmts(s.Else, f)
		case *Reduce:
			// no expressions
		}
	}
}

func walkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch e := e.(type) {
	case *ArrayRef:
		for _, ix := range e.Indexes {
			walkExpr(ix, f)
		}
	case *Unary:
		walkExpr(e.X, f)
	case *Binary:
		walkExpr(e.L, f)
		walkExpr(e.R, f)
	case *Call:
		for _, a := range e.Args {
			walkExpr(a, f)
		}
	}
}
