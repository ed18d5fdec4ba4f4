package minic

// File is a parsed MiniC translation unit.
type File struct {
	Structs []*StructDecl
	Globals []*VarDecl
	Funcs   []*FuncDecl
}

// StructDecl is a top-level `struct Name { ... };` definition.
type StructDecl struct {
	Name   string
	Fields []*Param // reuses Param's name/type/pos triple
	Pos    Pos
	Def    *StructDef // interned definition, set by sema
}

// FuncByName returns the function declaration with the given name, or nil.
func (f *File) FuncByName(name string) *FuncDecl {
	for _, fn := range f.Funcs {
		if fn.Name == name {
			return fn
		}
	}
	return nil
}

// VarDecl declares a global or local variable.
type VarDecl struct {
	Name string
	Type *Type
	Init Expr // optional initializer (nil if absent)
	Pos  Pos
	Sym  *Symbol // filled by sema
}

// Param is a function parameter.
type Param struct {
	Name string
	Type *Type
	Pos  Pos
	Sym  *Symbol // filled by sema
}

// FuncDecl declares a function with a body.
type FuncDecl struct {
	Name   string
	Ret    *Type
	Params []*Param
	Body   *BlockStmt
	Pos    Pos
	Sym    *Symbol // filled by sema

	// Locals lists every local VarDecl in the body, in declaration
	// order, collected by sema for frame layout.
	Locals []*VarDecl
}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// BlockStmt is a `{ ... }` statement list with its own scope.
type BlockStmt struct {
	Stmts []Stmt
	Pos   Pos
}

// DeclStmt is a local variable declaration statement.
type DeclStmt struct {
	Decl *VarDecl
}

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // nil if absent
	Pos  Pos
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body Stmt
	Pos  Pos
}

// ForStmt is a C-style for loop; Init/Cond/Post may each be nil.
type ForStmt struct {
	Init Stmt // DeclStmt or ExprStmt
	Cond Expr
	Post Expr
	Body Stmt
	Pos  Pos
}

// SwitchStmt is a C switch over an arithmetic tag. Entries appear in
// source order; control falls through from one entry's body to the
// next unless a break intervenes, as in C.
type SwitchStmt struct {
	Tag     Expr
	Entries []*SwitchEntry
	Pos     Pos
}

// SwitchEntry is one `case CONST:` or `default:` label with the
// statements up to the next label.
type SwitchEntry struct {
	IsDefault bool
	Expr      Expr  // case label expression (constant), nil for default
	Val       int64 // evaluated label value, set by sema
	Stmts     []Stmt
	Pos       Pos
}

// ReturnStmt returns from the function; Value is nil for `return;`.
type ReturnStmt struct {
	Value Expr
	Pos   Pos
}

// BreakStmt breaks the innermost loop.
type BreakStmt struct{ Pos Pos }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Pos Pos }

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	X   Expr
	Pos Pos
}

func (*BlockStmt) stmtNode()    {}
func (*DeclStmt) stmtNode()     {}
func (*IfStmt) stmtNode()       {}
func (*SwitchStmt) stmtNode()   {}
func (*WhileStmt) stmtNode()    {}
func (*ForStmt) stmtNode()      {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ExprStmt) stmtNode()     {}

// Expr is an expression node. After sema, TypeOf reports its type.
type Expr interface {
	exprNode()
	TypeOf() *Type
	pos() Pos
}

type exprBase struct {
	T *Type
	P Pos
}

func (e *exprBase) exprNode()     {}
func (e *exprBase) TypeOf() *Type { return e.T }
func (e *exprBase) pos() Pos      { return e.P }

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Value int64
}

// CharLit is a character literal.
type CharLit struct {
	exprBase
	Value byte
}

// StrLit is a string literal; sema assigns it a static data index.
type StrLit struct {
	exprBase
	Value string
	Index int // index into the file's string table, set by sema
}

// Ident is a reference to a named symbol.
type Ident struct {
	exprBase
	Name string
	Sym  *Symbol // filled by sema
}

// IndexExpr is a[i]; Base is an array variable or a pointer expression.
type IndexExpr struct {
	exprBase
	Base  Expr
	Index Expr
}

// CallExpr is a function call (direct calls only; no function pointers).
type CallExpr struct {
	exprBase
	Name string
	Args []Expr
	Sym  *Symbol  // callee symbol for user functions (nil for builtins)
	Bi   *Builtin // builtin descriptor (nil for user functions)
}

// MemberExpr is s.f (Arrow false) or p->f (Arrow true).
type MemberExpr struct {
	exprBase
	Base  Expr
	Name  string
	Arrow bool
	Field *Field // resolved by sema
}

// UnaryOp enumerates unary operators.
type UnaryOp int

// Unary operators.
const (
	UNeg   UnaryOp = iota // -x
	UNot                  // !x
	UBNot                 // ~x
	UDeref                // *p
	UAddr                 // &x
)

func (op UnaryOp) String() string {
	return [...]string{"-", "!", "~", "*", "&"}[op]
}

// UnaryExpr is a unary operation.
type UnaryExpr struct {
	exprBase
	Op UnaryOp
	X  Expr
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	BAdd BinaryOp = iota
	BSub
	BMul
	BDiv
	BRem
	BAnd
	BOr
	BXor
	BShl
	BShr
	BLt
	BLe
	BGt
	BGe
	BEq
	BNe
	BLogAnd
	BLogOr
)

func (op BinaryOp) String() string {
	return [...]string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
		"<", "<=", ">", ">=", "==", "!=", "&&", "||"}[op]
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	exprBase
	Op   BinaryOp
	L, R Expr
}

// AssignExpr is lhs = rhs (also produced for +=, -=, ++ and -- after
// desugaring in the parser).
type AssignExpr struct {
	exprBase
	LHS Expr // Ident, IndexExpr or UnaryExpr{UDeref}
	RHS Expr
}
