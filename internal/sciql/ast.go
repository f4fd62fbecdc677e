package sciql

// Stmt is a parsed SciQL statement.
type Stmt interface{ stmt() }

// DimDef declares an array dimension, optionally bounded "[lo:hi)".
type DimDef struct {
	Name     string
	Lo, Hi   int
	HasRange bool
}

// ColDef declares a value column.
type ColDef struct {
	Name string
	Type string // FLOAT, DOUBLE, INTEGER — informational; storage is float64
}

// CreateArray is "CREATE ARRAY name (x INTEGER DIMENSION, ... , v FLOAT)".
type CreateArray struct {
	Name string
	Dims []DimDef
	Cols []ColDef
}

func (*CreateArray) stmt() {}

// DropArray is "DROP ARRAY name".
type DropArray struct{ Name string }

func (*DropArray) stmt() {}

// InsertValues is "INSERT INTO name VALUES (x, y, v), ...".
type InsertValues struct {
	Name string
	Rows [][]float64
}

func (*InsertValues) stmt() {}

// InsertSelect is "INSERT INTO name SELECT ...".
type InsertSelect struct {
	Name string
	Sel  *Select
}

func (*InsertSelect) stmt() {}

// Select is a SciQL query block.
type Select struct {
	Items   []SelectItem
	From    FromClause
	Where   Expr       // nil when absent
	GroupBy *GroupSpec // structural grouping, nil when absent
}

func (*Select) stmt() {}

// SelectItem is one projection entry: either a dimension projection
// "[x]" / "[T039.x]" or a value expression with an optional alias.
type SelectItem struct {
	DimQualifier string // for dimension items, the optional table alias
	Dim          string // "x" or "y"; empty for expression items
	Expr         Expr
	Alias        string
}

// GroupSpec is "GROUP BY target[xlo:xhi][ylo:yhi]" with relative offsets
// (hi exclusive).
type GroupSpec struct {
	Target             string
	XLo, XHi, YLo, YHi int
}

// FromClause is a data source.
type FromClause interface{ from() }

// TableRef names a stored array, optionally sliced.
type TableRef struct {
	Name  string
	Alias string
	Slice *SliceSpec
}

func (*TableRef) from() {}

// SliceSpec is "[x0:x1][y0:y1]" with absolute dimension bounds (hi
// exclusive).
type SliceSpec struct {
	X0, X1, Y0, Y1 int
}

// FuncRef invokes a registered table function, e.g. the data vault's
// "hrit_load_image('uri')".
type FuncRef struct {
	Name  string
	Args  []string // string literal arguments
	Alias string
}

func (*FuncRef) from() {}

// SubqueryRef is "(SELECT ...) AS alias".
type SubqueryRef struct {
	Sel   *Select
	Alias string
}

func (*SubqueryRef) from() {}

// JoinRef is "L JOIN R ON cond"; the executor requires the condition to
// be a dimension equi-join (x = x AND y = y), the only join the paper's
// chain uses.
type JoinRef struct {
	L, R FromClause
	On   Expr
}

func (*JoinRef) from() {}

// Expr is a scalar (per-cell) expression.
type Expr interface{ expr() }

// NumLit is a numeric literal.
type NumLit struct{ V float64 }

func (*NumLit) expr() {}

// ParamRef is a named parameter (":t039"), bound to a value when the
// statement runs (Engine.ExecParams).
type ParamRef struct{ Name string }

func (*ParamRef) expr() {}

// ColRef references a value column, optionally qualified ("T039.v").
type ColRef struct {
	Qualifier string
	Name      string
}

func (*ColRef) expr() {}

// DimRef references a dimension (x or y) as a per-cell value.
type DimRef struct {
	Qualifier string
	Name      string // "x" or "y"
}

func (*DimRef) expr() {}

// BinExpr applies an infix operator: arithmetic, comparison, AND, OR.
type BinExpr struct {
	Op   string
	L, R Expr
}

func (*BinExpr) expr() {}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op string
	X  Expr
}

func (*UnaryExpr) expr() {}

// FuncExpr applies a scalar or aggregate function.
type FuncExpr struct {
	Name string // upper-cased
	Args []Expr
}

func (*FuncExpr) expr() {}

// CaseExpr is "CASE WHEN c THEN v ... ELSE e END".
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

func (*CaseExpr) expr() {}

// BetweenExpr is "x BETWEEN lo AND hi".
type BetweenExpr struct {
	X, Lo, Hi Expr
}

func (*BetweenExpr) expr() {}

var aggregateFns = map[string]bool{
	"AVG": true, "SUM": true, "COUNT": true, "MIN": true, "MAX": true,
}
