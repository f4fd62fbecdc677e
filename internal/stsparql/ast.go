package stsparql

import "repro/internal/rdf"

// Query is the root of a parsed stSPARQL request: exactly one of Select,
// Ask or Update is non-nil.
type Query struct {
	Select *SelectQuery
	Ask    *AskQuery
	Update *UpdateQuery
	nondet bool // a call's builtin is nondeterministic (Builtin.nondet)
}

// SelectQuery is a SELECT with optional grouping, ordering and slicing.
type SelectQuery struct {
	Distinct   bool
	Star       bool
	Projection []SelectItem
	Where      *GroupPattern
	GroupBy    []Expr
	Having     []Expr
	OrderBy    []OrderKey
	Limit      int // -1 means unlimited
	Offset     int
}

// SelectItem is either a plain variable or "(expr AS ?var)".
type SelectItem struct {
	Var  string
	Expr Expr // nil for plain variables
}

// OrderKey is one ORDER BY criterion.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// AskQuery tests for the existence of at least one solution.
type AskQuery struct {
	Where *GroupPattern
}

// UpdateQuery is a SPARQL-Update style DELETE/INSERT ... WHERE, or the
// data forms (INSERT DATA / DELETE DATA) when Where is nil.
type UpdateQuery struct {
	Delete []TriplePattern
	Insert []TriplePattern
	Where  *GroupPattern // nil for DATA forms
}

// TermOrVar is a triple-pattern component: either a constant term or a
// variable name.
type TermOrVar struct {
	Term rdf.Term
	Var  string // non-empty means variable
}

// IsVar reports whether the component is a variable.
func (t TermOrVar) IsVar() bool { return t.Var != "" }

// TriplePattern is a BGP triple with possibly-variable components.
type TriplePattern struct {
	S, P, O TermOrVar
}

// PatternElement is one element of a group graph pattern.
type PatternElement interface{ patternElement() }

// GroupPattern is "{ ... }": a sequence of elements with SPARQL's
// bottom-up semantics (BGPs joined, OPTIONAL left-joined, FILTERs applied
// over the group).
type GroupPattern struct {
	Elements []PatternElement
}

func (*GroupPattern) patternElement() {}

// BGPElement is a run of triple patterns.
type BGPElement struct {
	Patterns []TriplePattern
}

func (*BGPElement) patternElement() {}

// FilterElement is a FILTER constraint.
type FilterElement struct {
	Cond Expr
}

func (*FilterElement) patternElement() {}

// OptionalElement is an OPTIONAL group (left join).
type OptionalElement struct {
	Pattern *GroupPattern
}

func (*OptionalElement) patternElement() {}

// UnionElement is "{A} UNION {B} UNION ...".
type UnionElement struct {
	Branches []*GroupPattern
}

func (*UnionElement) patternElement() {}

// SubSelectElement is a nested SELECT inside a WHERE clause.
type SubSelectElement struct {
	Select *SelectQuery
}

func (*SubSelectElement) patternElement() {}

// Expr is an expression tree node.
type Expr interface{ exprNode() }

// VarExpr references a binding.
type VarExpr struct{ Name string }

func (*VarExpr) exprNode() {}

// ConstExpr holds a constant term (literal or IRI).
type ConstExpr struct{ Term rdf.Term }

func (*ConstExpr) exprNode() {}

// BinaryExpr applies an operator: || && = != < <= > >= + - * /.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

func (*BinaryExpr) exprNode() {}

// UnaryExpr applies !, unary minus or unary plus.
type UnaryExpr struct {
	Op string
	X  Expr
}

func (*UnaryExpr) exprNode() {}

// CallExpr invokes a builtin or strdf: extension function. Distinct is
// used by aggregate calls (COUNT(DISTINCT ?x)).
type CallExpr struct {
	Name     string // lower-cased name as written, e.g. "bound", "strdf:anyinteract"
	Args     []Expr
	Distinct bool
	Star     bool     // COUNT(*)
	Fn       *Builtin // the row of the builtin table the parser resolved the call to
}

func (*CallExpr) exprNode() {}

// isAggregate, isSpatial and isBound read the kind of the call's row.
func (c *CallExpr) isAggregate() bool { return c.Fn.kind == kindAggregate }

func (c *CallExpr) isSpatial() bool { return c.Fn.kind == kindSpatial }

func (c *CallExpr) isBound() bool { return c.Fn.kind == kindBound }

// anyCall reports whether some call in the expression tree — at any
// depth, arguments included — satisfies pred.
func anyCall(e Expr, pred func(*CallExpr) bool) bool {
	switch v := e.(type) {
	case *CallExpr:
		if pred(v) {
			return true
		}
		for _, a := range v.Args {
			if anyCall(a, pred) {
				return true
			}
		}
	case *BinaryExpr:
		return anyCall(v.L, pred) || anyCall(v.R, pred)
	case *UnaryExpr:
		return anyCall(v.X, pred)
	}
	return false
}

// exprVars collects the variables referenced by an expression.
func exprVars(e Expr, out map[string]bool) {
	switch v := e.(type) {
	case *VarExpr:
		out[v.Name] = true
	case *BinaryExpr:
		exprVars(v.L, out)
		exprVars(v.R, out)
	case *UnaryExpr:
		exprVars(v.X, out)
	case *CallExpr:
		for _, a := range v.Args {
			exprVars(a, out)
		}
	}
}
