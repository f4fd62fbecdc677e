package stsparql

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
)

// typedNodeTerms are the terms the differential test binds: store terms
// (IDs of the source's dictionary) and evaluation-local ones (overflow
// IDs), covering every way a term can meet str() or a spatial function.
func typedNodeTerms() (store, local []rdf.Term) {
	dt := func(s string) rdf.Term { return rdf.NewDateTime(s) }
	store = []rdf.Term{
		// dateTimes: plain, zoned, fractional, malformed
		dt("2007-08-24T12:00:00"), dt("2007-08-24T12:05:00"), dt("2007-08-24T12:00:00Z"),
		dt("2007-08-24T14:00:00+02:00"), dt("2007-08-24T12:00:00.5Z"), dt("2007-08-24T12:00:00.5"),
		dt("24/08/2007 12:00"), dt("2007-13-45T99:00:00"), dt(""),
		// the same texts as plain and xsd:string literals
		rdf.NewLiteral("2007-08-24T12:00:00"), rdf.NewLiteral("2007-08-24T12:05:00"),
		rdf.NewTypedLiteral("2007-08-24T12:00:00", rdf.XSDString), rdf.NewLiteral(""),
		rdf.NewLangLiteral("2007-08-24T12:00:00", "en"),
		// IRIs, blank nodes, numbers (one malformed), booleans
		rdf.NewIRI("http://example.org/a"), rdf.NewIRI("2007-08-24T12:00:00"), rdf.NewBlank("b1"),
		rdf.NewInteger(7), rdf.NewTypedLiteral("seven", rdf.XSDInteger), rdf.NewTypedLiteral("1e3", rdf.XSDDouble),
		rdf.NewBoolean(true), rdf.NewTypedLiteral("maybe", rdf.XSDBoolean),
		// geometries: literals, bare WKT, malformed
		rdf.NewGeometry("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"),
		rdf.NewGeometry("POLYGON ((2 2, 6 2, 6 6, 2 6, 2 2))"),
		rdf.NewGeometry("POLYGON ((1 1, 2 1, 2 2, 1 2, 1 1))"),
		rdf.NewTypedLiteral("POINT (10 10)", rdf.StRDFWKT),
		rdf.NewLiteral("POLYGON ((3 3, 9 3, 9 9, 3 9, 3 3))"),
		rdf.NewTypedLiteral("POINT (1 1)", rdf.XSDString),
		rdf.NewGeometry("POLYGON ((0 0, 1 0"), rdf.NewLiteral("not wkt"),
	}
	local = []rdf.Term{
		dt("2007-08-24T12:02:30"), dt("yesterday"), rdf.NewLiteral("2007-08-24T12:01:00"),
		rdf.NewGeometry("POLYGON ((3 0, 5 0, 5 1, 3 1, 3 0))"), rdf.NewLiteral("POINT (2 2)"),
		rdf.NewGeometry("LINESTRING (0"), rdf.NewIRI("http://example.org/local"),
	}
	return store, local
}

// typedNodeRows returns an evaluator and a batch over columns a and b
// holding every pair of the terms' IDs and of unbound (ID 0).
func typedNodeRows(t *testing.T) (*Evaluator, *Batch) {
	t.Helper()
	st := rdf.NewStore()
	store, local := typedNodeTerms()
	for _, term := range store {
		st.Dict().Encode(term)
	}
	e := NewEvaluator(st)
	e.begin(nil, nil)
	ids := []termID{0}
	for _, term := range append(store, local...) {
		ids = append(ids, e.dict.encode(term))
	}
	for _, id := range ids[len(store)+1:] {
		if id < overflowBase {
			t.Fatalf("local term %v has store ID %d", e.dict.decode(id), id)
		}
	}
	b := newBatch(e.dict, newSchema([]string{"a", "b"}), len(ids)*len(ids))
	for _, x := range ids {
		for _, y := range ids {
			r := b.beginRow(rowRef{})
			b.cols[0][r], b.cols[1][r] = x, y
			b.commitRow()
		}
	}
	return e, b
}

// sameAnswers holds a typed node to the generic node it replaces at
// every row of b, twice over (the second pass answers from the memos):
// the same effective boolean, and the same value or an error alike.
func sameAnswers(t *testing.T, e *Evaluator, b *Batch, name string, typed, generic cexpr) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < b.n; i++ {
			r := rowRef{b: b, i: i}
			gt, tt := generic.test(e, r), typed.test(e, r)
			gv, tv := generic.eval(e, r), typed.eval(e, r)
			if gt != tt || gv.Kind != tv.Kind || gv.Bool != tv.Bool {
				t.Fatalf("%s at a=%v b=%v: typed %d %+v, generic %d %+v", name,
					r.term(0), r.term(1), tt, tv, gt, gv)
			}
		}
	}
}

// TestTypedNodesMatchGeneric is the differential test of the typed
// nodes: str(?v) op X against applyBinary over the str() call, for
// every comparison operator with X a constant string or a variable, and
// each two-argument spatial predicate against the generic call, its
// arguments two variables or a variable and a constant in either order
// — over dateTimes of every form the engine parses or rejects, strings,
// IRIs, blank nodes, numbers, booleans, geometry literals, bare WKT,
// malformed WKT and unbound, held as store and as evaluation-local IDs.
func TestTypedNodesMatchGeneric(t *testing.T) {
	e, b := typedNodeRows(t)
	schema := b.schema
	compile := func(x Expr) cexpr { return compileExpr(x, schema, e.cache) }
	va, vb := &VarExpr{Name: "a"}, &VarExpr{Name: "b"}
	str := call(t, "str", va)

	xs := []Expr{vb, &VarExpr{Name: "absent"},
		&ConstExpr{Term: rdf.NewLiteral("2007-08-24T12:00:00")},
		&ConstExpr{Term: rdf.NewTypedLiteral("2007-08-24T12:03:00", rdf.XSDString)},
		&ConstExpr{Term: rdf.NewLiteral("")}}
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		for _, x := range xs {
			expr := &BinaryExpr{Op: op, L: str, R: x}
			typed := compile(expr)
			if _, ok := typed.(*strCmpNode); !ok {
				t.Fatalf("%s compiled to %T, want *strCmpNode", exprString(expr), typed)
			}
			generic := &binaryNode{op: op, l: compile(str), r: compile(x)}
			sameAnswers(t, e, b, exprString(expr), typed, generic)
		}
	}

	square := &ConstExpr{Term: rdf.NewGeometry("POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))")}
	bare := &ConstExpr{Term: rdf.NewLiteral("POINT (2 2)")}
	argPairs := [][2]Expr{{va, vb}, {vb, va}, {va, square}, {square, va}, {bare, vb}, {vb, bare}}
	var names []string
	for _, f := range builtins {
		if f.pred != nil {
			names = append(names, f.Names...)
		}
	}
	for _, name := range names {
		for _, args := range argPairs {
			c := call(t, name, args[:]...)
			typed := compile(c)
			if _, ok := typed.(*spatialNode); !ok {
				t.Fatalf("%s compiled to %T, want *spatialNode", exprString(c), typed)
			}
			generic := &callNode{fn: c.Fn, args: []cexpr{compile(args[0]), compile(args[1])}}
			sameAnswers(t, e, b, exprString(c), typed, generic)
		}
	}
}

// call is a call resolved through the builtin table, as the parser
// resolves it.
func call(t *testing.T, name string, args ...Expr) *CallExpr {
	t.Helper()
	c := &CallExpr{Name: name, Args: args}
	if err := resolve(c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTypedNodeShapes: only the shapes the typed nodes decide compile to
// them; the rest stay generic. A spatial predicate of one argument is
// not a shape at all: the table refuses its arity.
func TestTypedNodeShapes(t *testing.T) {
	schema := newSchema([]string{"a", "b"})
	cache := NewCache(nil)
	va := &VarExpr{Name: "a"}
	str := call(t, "str", va)
	if err := resolve(&CallExpr{Name: "strdf:anyinteract", Args: []Expr{va}}); err == nil {
		t.Error("strdf:anyinteract(?a) resolved")
	}
	generic := []Expr{
		&BinaryExpr{Op: "<", L: str, R: &ConstExpr{Term: rdf.NewDateTime("2007-08-24T12:00:00")}}, // dateTime: chronological
		&BinaryExpr{Op: "=", L: str, R: &ConstExpr{Term: rdf.NewInteger(1)}},
		&BinaryExpr{Op: "<", L: &ConstExpr{Term: rdf.NewLiteral("x")}, R: str}, // mirrored
		&BinaryExpr{Op: "+", L: str, R: &VarExpr{Name: "b"}},
		call(t, "strdf:anyinteract", va, &ConstExpr{Term: rdf.NewInteger(3)}),
		call(t, "strdf:anyinteract", &ConstExpr{Term: rdf.NewLiteral("POINT (1 1)")}, &ConstExpr{Term: rdf.NewLiteral("POINT (1 1)")}),
		call(t, "strdf:distance", va, &VarExpr{Name: "b"}),
	}
	for _, x := range generic {
		switch n := compileExpr(x, schema, cache).(type) {
		case *strCmpNode, *spatialNode:
			t.Errorf("%s compiled to %T", exprString(x), n)
		}
	}
}

// TestDatatype: datatype() of every kind of term (SPARQL 1.1
// §17.4.2.7) — a simple literal is an xsd:string, a language-tagged
// one an rdf:langString, a typed one its datatype, and an IRI or a
// blank node has none (the projection stays unbound); the string str()
// computes is a simple literal.
func TestDatatype(t *testing.T) {
	const ex = "http://example.org/"
	// A malformed typed literal is an error to comparisons and
	// arithmetic, but the term functions read its lexical form and
	// datatype (SPARQL 1.1 §17.4.2).
	cases := []struct {
		o         rdf.Term
		want, str string
	}{
		{rdf.NewLiteral("plain"), rdf.XSDString, rdf.XSDString},
		{rdf.NewLangLiteral("Achaia", "el"), rdf.RDFLangString, rdf.XSDString},
		{rdf.NewTypedLiteral("s", rdf.XSDString), rdf.XSDString, rdf.XSDString},
		{rdf.NewInteger(3), rdf.XSDInteger, rdf.XSDString},
		{rdf.NewDateTime("2007-08-24T12:00:00"), rdf.XSDDateTime, rdf.XSDString},
		{rdf.NewDateTime("24/08/2007"), rdf.XSDDateTime, rdf.XSDString},
		{rdf.NewTypedLiteral("seven", rdf.XSDInteger), rdf.XSDInteger, rdf.XSDString},
		{rdf.NewTypedLiteral("maybe", rdf.XSDBoolean), rdf.XSDBoolean, rdf.XSDString},
		{rdf.NewGeometry("POINT (1 1)"), rdf.StRDFGeometry, rdf.XSDString},
		{rdf.NewGeometry("POINT (one 1)"), rdf.StRDFGeometry, rdf.XSDString},
		{rdf.NewIRI(ex + "o"), "", rdf.XSDString},
		{rdf.NewBlank("b"), "", rdf.XSDString},
	}
	s := rdf.NewStore()
	for i, c := range cases {
		s.Add(rdf.Triple{S: iri(fmt.Sprintf("%ss%d", ex, i)), P: iri(ex + "p"), O: c.o})
	}
	res := runSelect(t, s, `SELECT ?s (datatype(?o) AS ?d) (datatype(str(?o)) AS ?sd) (str(?o) AS ?str)
  (lang(?o) AS ?lang) (isLiteral(?o) AS ?lit) (?o + 1 AS ?sum) (str(?o + 1) AS ?strSum) WHERE { ?s <`+ex+`p> ?o }`)
	if len(res.Rows) != len(cases) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(cases))
	}
	for i := range res.Rows {
		var n int
		fmt.Sscanf(res.at(i, "s").Value, ex+"s%d", &n)
		c := cases[n]
		if got := res.at(i, "d"); got.Value != c.want || !got.IsZero() && !got.IsIRI() {
			t.Errorf("datatype(%v) = %v, want <%s>", c.o, got, c.want)
		}
		if got := res.at(i, "sd"); got.Value != c.str {
			t.Errorf("datatype(str(%v)) = %v, want <%s>", c.o, got, c.str)
		}
		if got := res.at(i, "str"); got.Value != c.o.Value || got.Datatype != "" {
			t.Errorf("str(%v) = %v, want %q", c.o, got, c.o.Value)
		}
		if got := res.at(i, "lang"); c.o.IsLiteral() && got.Value != c.o.Lang {
			t.Errorf("lang(%v) = %v, want %q", c.o, got, c.o.Lang)
		}
		if got, _ := res.at(i, "lit").Bool(); got != c.o.IsLiteral() {
			t.Errorf("isLiteral(%v) = %v", c.o, res.at(i, "lit"))
		}
		if _, ok := c.o.Float(); !ok && c.o.Datatype == rdf.XSDInteger {
			if sum, strSum := res.at(i, "sum"), res.at(i, "strSum"); !sum.IsZero() || !strSum.IsZero() {
				t.Errorf("%v + 1 = %v and str() of it %v, want both unbound", c.o, sum, strSum)
			}
		}
	}
}
