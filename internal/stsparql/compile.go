package stsparql

import (
	"regexp"
	"strings"
	"time"

	"repro/internal/geom"
	"repro/internal/rdf"
)

// Compiled expressions. The planner compiles every expression an
// operator evaluates once, when it builds the operator, against the
// varSchema of the batches that operator reads: a variable becomes its
// column slot, so the row loop reads b.cols[c][i] and never looks a
// name up, and a constant becomes its Value. The compiled tree is part
// of the plan — immutable, shared by every evaluation of a compiled or
// prepared plan — and keeps its per-evaluation state in the Evaluator.
//
// Two shapes compile to typed nodes that work on term IDs, because they
// are what the paper's window joins and the Time Persistence confirm
// join evaluate on every candidate row:
//
//   - str(?v) op X, X a constant string or a variable (strCmpNode):
//     compares the lexical form the evaluator memoises per term ID
//     (termMemo), which also records whether the term's typed value is
//     well-formed — a malformed dateTime still drops the row;
//   - a two-argument strdf:/geof: predicate (spatialNode): reads each
//     geometry by term ID (Cache.Geometry) and memoises its verdict per
//     (node, ID, ID) (pairMemo).
//
// Both memos live as long as the evaluator (exprMemos).
//
// Each answers every row as the generic nodes it replaces do, falling
// back to their code where its fast path does not decide
// (TestTypedNodesMatchGeneric). A regex with a constant pattern
// compiles the pattern once (regexNode). Every other node applies
// applyUnary, applyBinary or its builtin's row (callNode, aggNode) to
// its evaluated operands.

// cexpr is a compiled expression.
type cexpr interface {
	// eval returns the expression's value at row r.
	eval(e *Evaluator, r rowRef) Value
	// test returns the value's effective boolean — what FILTER, &&, ||
	// and ! read — with an evaluation error as triErr.
	test(e *Evaluator, r rowRef) tri
}

// tri is an effective boolean value or an error.
type tri uint8

const (
	triFalse tri = iota
	triTrue
	triErr
)

func triOf(v Value) tri {
	b, err := v.effectiveBool()
	switch {
	case err != nil:
		return triErr
	case b:
		return triTrue
	}
	return triFalse
}

// errUndecided is the value of a test that errs. An evaluation error
// only ever drops a row, leaves a projection unbound or ties a sort key,
// so which error it is does not matter.
var errUndecided = errValue("stsparql: expression has no boolean value")

// triValue is the value of a test result.
func triValue(t tri) Value {
	if t == triErr {
		return errUndecided
	}
	return boolValue(t == triTrue)
}

// compiler compiles expressions against one schema.
type compiler struct {
	schema *varSchema
	cache  *Cache // constants' geometries parse through it
	// grouped compiles in aggregate context (HAVING, aggregate
	// projections): an aggregate call computes over the current group
	// (Evaluator.group), and every other node reads the group's first
	// member row, as it would outside that context.
	grouped bool
}

func compileExpr(x Expr, schema *varSchema, cache *Cache) cexpr {
	return (&compiler{schema: schema, cache: cache}).compile(x)
}

func compileGrouped(x Expr, schema *varSchema, cache *Cache) cexpr {
	return (&compiler{schema: schema, cache: cache, grouped: true}).compile(x)
}

// slotOf returns a variable's column, or -1 when the schema has none
// (the variable is unbound in every row).
func slotOf(s *varSchema, name string) int {
	if col, ok := s.col(name); ok {
		return col
	}
	return -1
}

func (c *compiler) compile(x Expr) cexpr {
	switch v := x.(type) {
	case *VarExpr:
		return varNode(slotOf(c.schema, v.Name))
	case *ConstExpr:
		return &constNode{v: termToValue(v.Term, c.cache)}
	case *UnaryExpr:
		if v.Op == "!" {
			return &notNode{x: c.compile(v.X)}
		}
		return &unaryNode{op: v.Op, x: c.compile(v.X)}
	case *BinaryExpr:
		switch v.Op {
		case "&&":
			return &andNode{l: c.compile(v.L), r: c.compile(v.R)}
		case "||":
			return &orNode{l: c.compile(v.L), r: c.compile(v.R)}
		}
		if n := c.strCompare(v); n != nil {
			return n
		}
		return &binaryNode{op: v.Op, l: c.compile(v.L), r: c.compile(v.R)}
	case *CallExpr:
		switch {
		case v.isAggregate() && c.grouped:
			return c.aggregate(v)
		case v.isAggregate():
			return &constNode{v: errValue("stsparql: aggregate %q outside grouped query", v.Name)}
		case v.isBound():
			return c.bound(v)
		case v.Fn.pred != nil:
			if n := c.spatialPredicate(v); n != nil {
				return n
			}
		case v.Fn == fnRegex:
			if n := c.regex(v); n != nil {
				return n
			}
		}
		n := &callNode{fn: v.Fn, args: make([]cexpr, len(v.Args))}
		for i, a := range v.Args {
			n.args[i] = c.compile(a)
		}
		return n
	default:
		return &constNode{v: errValue("stsparql: unknown expression node %T", x)}
	}
}

// bound compiles bound(?v); its argument is a variable (checkBound).
func (c *compiler) bound(v *CallExpr) cexpr {
	return &boundNode{col: slotOf(c.schema, v.Args[0].(*VarExpr).Name)}
}

func (c *compiler) aggregate(v *CallExpr) cexpr {
	n := &aggNode{c: v, countCol: -1}
	if !v.Star {
		// The argument evaluates per member row, outside aggregate context.
		n.arg = compileExpr(v.Args[0], c.schema, c.cache)
		if ve, ok := v.Args[0].(*VarExpr); ok {
			n.countCol = slotOf(c.schema, ve.Name)
		}
	}
	return n
}

// --- generic nodes ---

// varNode is a variable: its column (-1: a variable no row binds). A
// column number below 256 converts to a cexpr without allocating.
type varNode int

func (n varNode) eval(e *Evaluator, r rowRef) Value {
	id := r.id(int(n))
	if id == 0 {
		return unboundValue()
	}
	return e.termValue(id, e.dict.decode(id))
}

func (n varNode) test(e *Evaluator, r rowRef) tri { return triOf(n.eval(e, r)) }

type constNode struct{ v Value }

func (n *constNode) eval(*Evaluator, rowRef) Value { return n.v }

func (n *constNode) test(*Evaluator, rowRef) tri { return triOf(n.v) }

type boundNode struct{ col int }

func (n *boundNode) eval(e *Evaluator, r rowRef) Value { return boolValue(r.id(n.col) != 0) }

func (n *boundNode) test(e *Evaluator, r rowRef) tri {
	if r.id(n.col) != 0 {
		return triTrue
	}
	return triFalse
}

type unaryNode struct {
	op string
	x  cexpr
}

func (n *unaryNode) eval(e *Evaluator, r rowRef) Value { return e.applyUnary(n.op, n.x.eval(e, r)) }

func (n *unaryNode) test(e *Evaluator, r rowRef) tri { return triOf(n.eval(e, r)) }

type notNode struct{ x cexpr }

func (n *notNode) eval(e *Evaluator, r rowRef) Value { return e.applyUnary("!", n.x.eval(e, r)) }

func (n *notNode) test(e *Evaluator, r rowRef) tri {
	switch n.x.test(e, r) {
	case triTrue:
		return triFalse
	case triFalse:
		return triTrue
	}
	return triErr
}

type binaryNode struct {
	op   string
	l, r cexpr
}

func (n *binaryNode) eval(e *Evaluator, r rowRef) Value {
	return e.applyBinary(n.op, n.l.eval(e, r), n.r.eval(e, r))
}

func (n *binaryNode) test(e *Evaluator, r rowRef) tri { return triOf(n.eval(e, r)) }

// andNode and orNode short-circuit: the right side runs only when the
// left side does not decide.
type andNode struct{ l, r cexpr }

func (n *andNode) eval(e *Evaluator, r rowRef) Value { return triValue(n.test(e, r)) }

func (n *andNode) test(e *Evaluator, r rowRef) tri {
	if l := n.l.test(e, r); l != triTrue {
		return l
	}
	return n.r.test(e, r)
}

type orNode struct{ l, r cexpr }

func (n *orNode) eval(e *Evaluator, r rowRef) Value { return triValue(n.test(e, r)) }

func (n *orNode) test(e *Evaluator, r rowRef) tri {
	if n.l.test(e, r) == triTrue {
		return triTrue
	}
	return n.r.test(e, r)
}

// callNode applies a builtin's row to its evaluated arguments.
type callNode struct {
	fn   *Builtin
	args []cexpr
}

func (n *callNode) eval(e *Evaluator, r rowRef) Value {
	base := len(e.argScratch)
	for _, a := range n.args {
		e.argScratch = append(e.argScratch, a.eval(e, r))
	}
	res := n.fn.call(e, e.argScratch[base:])
	e.argScratch = e.argScratch[:base]
	return res
}

func (n *callNode) test(e *Evaluator, r rowRef) tri { return triOf(n.eval(e, r)) }

// aggNode is an aggregate call in aggregate context: its value over the
// member rows of the group being evaluated.
type aggNode struct {
	c        *CallExpr
	arg      cexpr // nil without arguments (COUNT(*))
	countCol int   // COUNT(?v): v's column
}

func (n *aggNode) eval(e *Evaluator, _ rowRef) Value {
	return n.c.Fn.agg(e, n, e.group.rows, e.group.mem)
}

func (n *aggNode) test(e *Evaluator, r rowRef) tri { return triOf(n.eval(e, r)) }

// --- term values by ID ---

// termValue is termToValue for the term t with ID id: a dateTime parses
// once (termMemo), a geometry literal reads the shared cache by ID
// instead of hashing its text.
func (e *Evaluator) termValue(id termID, t rdf.Term) Value {
	if t.IsLiteral() {
		switch t.Datatype {
		case rdf.XSDDateTime:
			return e.dateTime(id, t)
		case rdf.StRDFGeometry, rdf.StRDFWKT:
			g, err := e.geomOf(id, t)
			if err != nil {
				return termError(t, "stsparql: %v", err)
			}
			return Value{Kind: VGeom, Geom: g, Term: t}
		}
	}
	return termToValue(t, e.cache)
}

// exprMemos are an evaluator's memos of what its typed nodes compute
// per term ID, each a direct-mapped table — a slot keeps the last key
// hashed to it, a miss recomputes — held in the Evaluator itself, so
// they cost no allocation of their own. They live as long as the
// evaluator and need no invalidation: within one evaluator an ID never
// changes meaning (store IDs hold for the store's life, overflow IDs
// for the evaluator's), and what is memoised is a function of the
// terms alone.
type exprMemos struct {
	terms [1 << memoBits]termMemo
	pairs [1 << memoBits]pairMemo
}

// memoBits sizes both tables: 128 slots each, 11 KiB in all.
const memoBits = 7

// memoSlot hashes one or two IDs to a slot.
func memoSlot(a, b termID) uint64 {
	return (uint64(a)*0x9E3779B97F4A7C15 ^ uint64(b)) * 0xBF58476D1CE4E5B9 >> (64 - memoBits)
}

// termMemo is what the evaluator knows of term ID id: its lexical form,
// the kind of its value (VErr when a typed literal is malformed) and,
// for a dateTime, its instant.
type termMemo struct {
	id   termID
	s    string
	kind ValueKind
	tm   time.Time
}

// termMemo returns the memo of id, computing it on a miss.
func (e *Evaluator) termMemo(id termID) *termMemo {
	m := &e.memo.terms[memoSlot(id, 0)]
	if m.id == id {
		return m
	}
	t := e.dict.decode(id)
	var v Value
	if t.IsLiteral() && t.Datatype == rdf.XSDDateTime {
		v = termToValue(t, e.cache)
	} else {
		v = e.termValue(id, t)
	}
	*m = termMemo{id: id, s: t.Value, kind: v.Kind, tm: v.Time}
	return m
}

// dateTime is termToValue for the xsd:dateTime literal t with ID id,
// parsed once (termMemo): a window filter compares every candidate's
// instant. A malformed literal stays an error at every read.
func (e *Evaluator) dateTime(id termID, t rdf.Term) Value {
	m := e.termMemo(id)
	if m.kind != VTime {
		return termToValue(t, e.cache)
	}
	return Value{Kind: VTime, Time: m.tm, Term: t}
}

// geomOf returns the geometry of a literal's lexical form: by ID from
// the store's geometry table for a store term, by text for a term the
// evaluation computed (its overflow ID means nothing beyond this
// evaluator).
func (e *Evaluator) geomOf(id termID, t rdf.Term) (geom.Geometry, error) {
	if id < overflowBase {
		return e.cache.Geometry(rdf.ID(id))
	}
	return e.cache.parse(t.Value)
}

// --- str(?v) op X ---

// operand is a typed node's argument: a variable's column, or a
// constant's value.
type operand struct {
	isVar bool
	col   int // -1: a variable no row binds
	v     Value
}

func (c *compiler) operand(x Expr) (operand, bool) {
	switch x := x.(type) {
	case *VarExpr:
		return operand{isVar: true, col: slotOf(c.schema, x.Name)}, true
	case *ConstExpr:
		return operand{col: -1, v: termToValue(x.Term, c.cache)}, true
	}
	return operand{}, false
}

// strCmpNode is str(?v) op X for a comparison op, X a constant whose
// value is a string or a variable. A row where ?v is bound — a
// malformed typed literal included, whose str() is its lexical form —
// and X is a string compares the two strings; ?v or X unbound is an
// error, as it is to the generic nodes, and an X of another kind is
// answered as they answer it (generic).
type strCmpNode struct {
	op   string
	col  int // ?v
	x    operand
	xstr string // X's string when X is a constant
}

func (c *compiler) strCompare(v *BinaryExpr) cexpr {
	switch v.Op {
	case "=", "!=", "<", "<=", ">", ">=":
	default:
		return nil
	}
	call, ok := v.L.(*CallExpr)
	if !ok || call.Fn != fnStr {
		return nil
	}
	arg, ok := call.Args[0].(*VarExpr)
	if !ok {
		return nil
	}
	x, ok := c.operand(v.R)
	if !ok || !x.isVar && x.v.Kind != VStr {
		return nil
	}
	return &strCmpNode{op: v.Op, col: slotOf(c.schema, arg.Name), x: x, xstr: x.v.Str}
}

func (n *strCmpNode) test(e *Evaluator, r rowRef) tri {
	id := r.id(n.col)
	if id == 0 {
		return triErr // str() of unbound
	}
	m := e.termMemo(id)
	s, x := m.s, n.xstr // read s before X's memo may take m's slot
	if n.x.isVar {
		xid := r.id(n.x.col)
		if xid == 0 {
			return triErr // a comparison with unbound
		}
		xm := e.termMemo(xid)
		if xm.kind != VStr {
			return triOf(n.generic(e, r))
		}
		x = xm.s
	}
	c := strings.Compare(s, x)
	var ok bool
	switch n.op {
	case "=":
		ok = c == 0
	case "!=":
		ok = c != 0
	case "<":
		ok = c < 0
	case "<=":
		ok = c <= 0
	case ">":
		ok = c > 0
	default:
		ok = c >= 0
	}
	if ok {
		return triTrue
	}
	return triFalse
}

func (n *strCmpNode) eval(e *Evaluator, r rowRef) Value { return triValue(n.test(e, r)) }

// generic is applyBinary(op, str(?v), X) for a variable X, as the
// generic nodes evaluate it.
func (n *strCmpNode) generic(e *Evaluator, r rowRef) Value {
	base := len(e.argScratch)
	e.argScratch = append(e.argScratch, varNode(n.col).eval(e, r))
	l := fnStr.call(e, e.argScratch[base:])
	e.argScratch = e.argScratch[:base]
	return e.applyBinary(n.op, l, varNode(n.x.col).eval(e, r))
}

// --- two-argument spatial predicates ---

// spatialNode is a two-argument spatial predicate over variables and
// constant geometries, at least one a variable. A row binding every
// variable argument to a literal whose text parses as a geometry reads
// the geometries by ID and tests them once per distinct ID pair (the
// evaluator's pairMemo); any other row is an error, as it is to the
// generic call node.
type spatialNode struct {
	pred   func(a, b geom.Geometry) bool
	args   [2]operand
	consts [2]geom.Geometry // the constant arguments' geometries
}

func (c *compiler) spatialPredicate(v *CallExpr) cexpr {
	n := &spatialNode{pred: v.Fn.pred}
	var ok bool
	vars := 0
	for i, a := range v.Args {
		if n.args[i], ok = c.operand(a); !ok {
			return nil
		}
		if n.args[i].isVar {
			vars++
		} else if n.consts[i], ok = argGeometry(n.args[i].v, c.cache); !ok {
			return nil
		}
	}
	if vars == 0 {
		return nil
	}
	return n
}

func (n *spatialNode) test(e *Evaluator, r rowRef) tri {
	var ids [2]termID
	for i := range n.args {
		if n.args[i].isVar {
			if ids[i] = r.id(n.args[i].col); ids[i] == 0 {
				return triErr
			}
		}
	}
	slot := &e.memo.pairs[memoSlot(ids[0], ids[1])]
	if slot.n == n && slot.ids == ids {
		return slot.res
	}
	g := n.consts
	for i, id := range ids {
		if id == 0 {
			continue
		}
		var ok bool
		if g[i], ok = e.literalGeometry(id); !ok {
			return triErr
		}
	}
	res := triFalse
	if n.pred(g[0], g[1]) {
		res = triTrue
	}
	*slot = pairMemo{n: n, ids: ids, res: res}
	return res
}

func (n *spatialNode) eval(e *Evaluator, r rowRef) Value { return triValue(n.test(e, r)) }

// literalGeometry returns the geometry a spatial function reads from
// the term with ID id: a geometry literal's, or a plain string's WKT.
// ok=false for every term that makes the function an error: an IRI, a
// blank node, a literal of a number, boolean or dateTime type, or text
// that does not parse.
func (e *Evaluator) literalGeometry(id termID) (geom.Geometry, bool) {
	t := e.dict.decode(id)
	if !t.IsLiteral() {
		return nil, false
	}
	switch t.Datatype {
	case rdf.XSDInteger, rdf.XSDFloat, rdf.XSDDouble, rdf.XSDBoolean, rdf.XSDDateTime:
		return nil, false
	}
	g, err := e.geomOf(id, t)
	return g, err == nil
}

// pairMemo is a spatial verdict, keyed by the node and its two
// argument IDs (0 for a constant).
type pairMemo struct {
	n   *spatialNode
	ids [2]termID
	res tri
}

// --- regex with a constant pattern ---

// regexNode is a regex call whose pattern and flags are constant: the
// pattern compiles once, with the plan.
type regexNode struct {
	re   *regexp.Regexp
	text cexpr
}

func (c *compiler) regex(v *CallExpr) cexpr {
	pattern, flags, patternConst, flagsConst := regexConsts(v.Args)
	if !patternConst || !flagsConst {
		return nil
	}
	re, err := compileRegex(pattern, flags)
	if err != nil {
		return nil // refused at parse (checkRegex)
	}
	return &regexNode{re: re, text: c.compile(v.Args[0])}
}

func (n *regexNode) eval(e *Evaluator, r rowRef) Value {
	text := n.text.eval(e, r)
	if text.Kind == VErr {
		return text.failed()
	}
	return matchRegex(n.re, text)
}

func (n *regexNode) test(e *Evaluator, r rowRef) tri { return triOf(n.eval(e, r)) }
