package lang

// BaseType is a scalar type.
type BaseType int

// Scalar types.
const (
	TInt BaseType = iota
	TReal
	TBool
)

func (t BaseType) String() string {
	switch t {
	case TInt:
		return "integer"
	case TReal:
		return "real"
	default:
		return "boolean"
	}
}

// symKind says which run-time table a Symbol's slot indexes.
type symKind int

const (
	symConst     symKind = iota // a const declaration, or the P of the processors declaration
	symScalar                   // a declared global scalar
	symLoopVar                  // the variable a top-level for declares implicitly
	symRealArray                // a declared real array
	symIntArray                 // a declared integer array
	symLocal                    // a forall's index variable, declared local or implicit for variable
	symMapVar                   // the index variable of a map dist clause, bound in its owner expression only
)

// Symbol is what a name resolves to.  The checker binds every name
// once, at the point where it already has to look the name up, and
// hangs the Symbol on the AST node; the interpreter and the bytecode
// compiler index tables by Slot and never see the name again.
type Symbol struct {
	Name string
	Kind symKind
	Type BaseType // the scalar's type, or the array's element type
	// Slot indexes the table Kind selects: the elaborated constants, the
	// node's global frame (symScalar and symLoopVar share it), its real
	// or integer array table, or the frame of the enclosing forall.  A
	// map clause's index variable has none: the constant evaluator holds
	// its one value.
	Slot int
	decl *VarDecl // arrays only
	// redist marks an array the program redistributes.  Such an array
	// loses the compiler-proven "aligned" shortcut: alignment was proved
	// against the declared distribution, which a redistribute statement
	// invalidates at run time, so its reads take the schedule paths that
	// consult the live distribution instead.
	redist bool
}

func (s *Symbol) isArray() bool { return s.Kind == symRealArray || s.Kind == symIntArray }

// File is a parsed program.
type File struct {
	Procs  *ProcsDecl
	Consts []*ConstDecl
	Vars   []*VarDecl
	Main   []Stmt

	// set by the checker: every declared name in declaration order, the
	// sizes of the four global tables their slots index, and every
	// forall in source order.
	syms                             []*Symbol
	nConsts, nGlobals, nReals, nInts int
	foralls                          []*Forall
}

// ProcsDecl is "processors Procs : array[1..P] with P in lo..hi;" or,
// for two-dimensional processor arrays ("multi-dimensional processor
// arrays can be declared similarly", §2.1),
// "processors Procs : array[1..p1, 1..p2];" with constant extents.
type ProcsDecl struct {
	Name    string
	SizeVar string // the P identifier ("" when the bound is a constant)
	Size    Expr   // used when SizeVar is ""
	Size2   Expr   // second dimension extent (nil for 1-D)
	MinP    Expr   // with-clause bounds (nil when absent)
	MaxP    Expr
	Line    int

	sym *Symbol // SizeVar's, set by the checker
}

// Rank2 reports whether the processor array is two-dimensional.
func (d *ProcsDecl) Rank2() bool { return d.Size2 != nil }

// ConstDecl is one "name = expr" binding.
type ConstDecl struct {
	Name string
	X    Expr
	Line int

	// Folded/Val cache the Check-time evaluation of X for constants
	// that do not depend on P; elaboration and the bytecode compiler
	// reuse the cached value.  P-dependent constants stay unfolded and
	// are evaluated once the processor count is chosen.
	Folded bool
	Val    value

	sym *Symbol // set by the checker
}

// DistItem is one entry of a dist clause.
type DistItem struct {
	Kind  Kind // KWBlock, KWCyclic, KWBlockCyclic, KWMap, STAR
	Block Expr // block size for block_cyclic
	// MapVar/MapExpr describe a user-defined distribution
	// "map(v : expr)": the owner of global index v is expr, evaluated
	// at elaboration time over the constants and P.
	MapVar  string
	MapExpr Expr
}

// VarDecl declares one or more names of a common type.
type VarDecl struct {
	Names []string
	Elem  BaseType
	Dims  []ArrayDim // empty for scalars
	Dist  []DistItem // nil when replicated / scalar
	OnTo  string     // processor array name ("" defaults)
	Line  int
}

// ArrayDim is one "lo..hi" bound pair.
type ArrayDim struct {
	Lo, Hi Expr
}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// Assign is "lvalue := expr".
type Assign struct {
	Name    string
	Indexes []Expr // nil for scalars
	X       Expr
	Line    int

	sym *Symbol // the target, set by the checker
}

// Forall is the parallel loop with an on clause.  Two-dimensional
// foralls (Var2 != "") iterate over an index pair and place iterations
// by the owner of OnArray[i, j].
type Forall struct {
	Var      string
	Lo, Hi   Expr
	Var2     string // "" for 1-D foralls
	Lo2, Hi2 Expr
	OnArray  string
	OnIndex  Expr
	OnIndex2 Expr // second on-clause subscript (2-D only)
	Decls    []*LocalDecl
	Body     []Stmt
	Line     int

	// set by the checker:
	on    readInfo    // the on-clause array and its subscripts' coefficients
	reads []*readInfo // the other distributed reads, one per schedule slot
	deps  []*Symbol   // int arrays the reference pattern depends on
	// frame is the size of the body's local frame.  Slots 0..rank-1 hold
	// the index variables, the next len(Decls) the declared locals in
	// order, the rest the variables of the body's implicit for loops.
	frame int
}

// rank is the number of index variables.
func (fa *Forall) rank() int {
	if fa.Var2 != "" {
		return 2
	}
	return 1
}

// LocalDecl is a per-iteration variable inside a forall.
type LocalDecl struct {
	Name string
	Type BaseType
	Line int
}

// ForLoop is a sequential for.
type ForLoop struct {
	Var    string
	Lo, Hi Expr
	Body   []Stmt
	Line   int

	sym *Symbol // the loop variable, set by the checker
}

// While is a while loop.
type While struct {
	Cond Expr
	Body []Stmt
	Line int
}

// If is a conditional.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Line int
}

// Reduce is "reduce op(args) into name" — the language's global
// reduction (convergence tests).  Ops: maxdiff(a, b), sum(a), max(a),
// min(a).
type Reduce struct {
	Op   string
	Args []string // array names
	Into string
	Line int

	red  *builtin  // set by the checker
	args []*Symbol // likewise
	into *Symbol
}

// Redistribute is "redistribute name as [items]": rebind a distributed
// array to a new dist clause mid-run, moving every element to its new
// owner (dynamic distributions, paper §2.4).  The item list has the
// same forms as a declaration's dist clause.
type Redistribute struct {
	Name  string
	Items []DistItem
	Line  int

	sym *Symbol // set by the checker
}

func (*Assign) stmtNode()       {}
func (*Forall) stmtNode()       {}
func (*ForLoop) stmtNode()      {}
func (*While) stmtNode()        {}
func (*If) stmtNode()           {}
func (*Reduce) stmtNode()       {}
func (*Redistribute) stmtNode() {}

// Expr is an expression node.
type Expr interface{ exprNode() }

// IntLit is an integer literal.
type IntLit struct {
	V    int
	Line int
}

// RealLit is a real literal.
type RealLit struct {
	V    float64
	Line int
}

// BoolLit is true/false.
type BoolLit struct {
	V    bool
	Line int
}

// Ident is a scalar/const/loop-variable reference.
type Ident struct {
	Name string
	Line int

	sym *Symbol // set by the checker
}

// ArrayRef is "name[indexes]".
type ArrayRef struct {
	Name    string
	Indexes []Expr
	Line    int

	sym    *Symbol    // set by the checker
	access accessMode // likewise, for refs inside foralls
}

// Unary is "-x" or "not x".
type Unary struct {
	Op   Kind
	X    Expr
	Line int
}

// Binary is "x op y".
type Binary struct {
	Op   Kind
	L, R Expr
	Line int
}

// Call is a builtin call: abs, min, max, sqrt, float, trunc.
type Call struct {
	Name string
	Args []Expr
	Line int

	fn *builtin // set by the checker
}

func (*IntLit) exprNode()   {}
func (*RealLit) exprNode()  {}
func (*BoolLit) exprNode()  {}
func (*Ident) exprNode()    {}
func (*ArrayRef) exprNode() {}
func (*Unary) exprNode()    {}
func (*Binary) exprNode()   {}
func (*Call) exprNode()     {}

// accessMode classifies an array reference inside a forall.
type accessMode int

const (
	accNone       accessMode = iota
	accReplicated            // replicated array: plain local read
	accAligned               // compiler-proven local (subscript aligned with on clause)
	accAffine                // affine subscript: compile-time schedule, Env.Read
	accIndirect              // data-dependent subscript: inspector, Env.Read
)

// readInfo describes one distinct distributed-array read slot of a
// forall (feeds forall.Loop.Reads / forall.Loop2.Reads).
type readInfo struct {
	array  *Symbol
	affine bool
	aExpr  Expr
	cExpr  Expr
	// dim is the dimension aExpr*i + cExpr subscripts when a rank-1
	// forall reads a rank-2 array (forall.ReadSpec.Dim).
	dim int
	// rank-2 affine reads X[aI*i+cI, aJ*j+cJ] inside two-index foralls:
	affine2                        bool
	aIExpr, cIExpr, aJExpr, cJExpr Expr
}
