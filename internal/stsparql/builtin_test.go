package stsparql

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// builtinStore holds two subjects: ex:a with ex:v 1, a name "Alpha"@en
// and a 5×5 square at the origin, and ex:b with ex:v 2 and a 5×5 square
// ten units east.
func builtinStore() *rdf.Store {
	const ex = "http://example.org/"
	s := rdf.NewStore()
	for _, tr := range []rdf.Triple{
		{S: iri(ex + "a"), P: iri(ex + "v"), O: rdf.NewInteger(1)},
		{S: iri(ex + "a"), P: iri(ex + "name"), O: rdf.NewLangLiteral("Alpha", "en")},
		{S: iri(ex + "a"), P: iri(ex + "g"), O: rdf.NewGeometry("POLYGON ((0 0, 5 0, 5 5, 0 5, 0 0))")},
		{S: iri(ex + "b"), P: iri(ex + "v"), O: rdf.NewInteger(2)},
		{S: iri(ex + "b"), P: iri(ex + "g"), O: rdf.NewGeometry("POLYGON ((10 0, 15 0, 15 5, 10 5, 10 0))")},
	} {
		s.Add(tr)
	}
	return s
}

// builtinExamples are spec examples of the builtins: each projects the
// call (as ?x) over ex:a's row — or, for an aggregate, over both
// subjects' rows — and wants the lexical form of ?x ("" for unbound).
// fn is the spelling whose row the example covers.
var builtinExamples = []struct {
	fn, expr, want string
}{
	{"str", `str(?n)`, "Alpha"},
	{"str", `str(<http://example.org/a>)`, "http://example.org/a"},
	{"lang", `lang(?n)`, "en"},
	{"datatype", `datatype(?v)`, rdf.XSDInteger},
	{"isliteral", `isLiteral(?n)`, "true"},
	{"isliteral", `isLiteral(?s)`, "false"},
	{"sameterm", `sameTerm(?v, 1)`, "true"},
	{"sameterm", `sameTerm(?v, 1.0)`, "false"},
	{"isiri", `isIRI(?s)`, "true"},
	{"isuri", `isURI(?n)`, "false"},
	{"isblank", `isBlank(?s)`, "false"},
	{"contains", `contains("foobar", "bar")`, "true"},
	{"strstarts", `strStarts("foobar", "foo")`, "true"},
	{"langmatches", `langMatches(lang(?n), "EN")`, "true"},
	{"langmatches", `langMatches("fr-BE", "fr")`, "true"},
	{"langmatches", `langMatches("fr", "fr-BE")`, "false"},
	{"langmatches", `langMatches("fra", "fr")`, "false"},
	{"langmatches", `langMatches("", "*")`, "false"},
	{"abs", `abs(-1.5)`, "1.5"},
	{"regex", `regex("Alice", "^ali", "i")`, "true"},
	{"regex", `regex("Alice", "^ali")`, "false"},
	{"regex", `regex(str(?s), "a$")`, "true"},
	{"regex", `regex("a\nb", "^b$", "m")`, "true"},
	{"regex", `regex(?s, "a")`, ""}, // an IRI is no string: an error
	{"bound", `bound(?v)`, "true"},
	{"count", `count(?v)`, "2"},
	{"count", `count(*)`, "2"},
	{"sum", `sum(?v)`, "3"},
	{"avg", `avg(?v)`, "1.5"},
	{"min", `min(?v)`, "1"},
	{"max", `max(?v)`, "2"},
	{"sample", `sample(?v)`, "1|2"},
	{"strdf:union", `strdf:area(strdf:union(?g))`, "50"},
	{"strdf:extent", `strdf:area(strdf:extent(?g))`, "75"},
	{"strdf:anyinteract", `strdf:anyInteract(?g, "POINT (1 1)")`, "true"},
	{"strdf:contains", `strdf:contains(?g, "POINT (1 1)")`, "true"},
	{"strdf:within", `strdf:within("POINT (1 1)", ?g)`, "true"},
	{"strdf:coveredby", `strdf:coveredBy("POINT (1 1)", ?g)`, "true"},
	{"strdf:covers", `strdf:covers(?g, "POINT (1 1)")`, "true"},
	{"strdf:disjoint", `strdf:disjoint(?g, "POINT (9 9)")`, "true"},
	{"strdf:touches", `strdf:touches(?g, "POLYGON ((5 0, 6 0, 6 1, 5 1, 5 0))")`, "true"},
	{"strdf:overlap", `strdf:overlap(?g, "POLYGON ((4 4, 6 4, 6 6, 4 6, 4 4))")`, "true"},
	{"geof:sfequals", `geof:sfEquals(?g, "POLYGON ((0 0, 5 0, 5 5, 0 5, 0 0))")`, "true"},
	{"strdf:intersection", `strdf:area(strdf:intersection(?g, "POLYGON ((4 4, 6 4, 6 6, 4 6, 4 4))"))`, "1"},
	{"strdf:union", `strdf:area(strdf:union(?g, "POLYGON ((4 4, 6 4, 6 6, 4 6, 4 4))"))`, "28"},
	{"strdf:difference", `strdf:area(strdf:difference(?g, "POLYGON ((4 4, 6 4, 6 6, 4 6, 4 4))"))`, "24"},
	{"strdf:symdifference", `strdf:area(strdf:symDifference(?g, "POLYGON ((4 4, 6 4, 6 6, 4 6, 4 4))"))`, "27"},
	{"strdf:distance", `strdf:distance(?g, "POINT (8 5)")`, "3"},
	{"strdf:boundary", `strdf:dimension(strdf:boundary(?g))`, "1"},
	{"strdf:envelope", `strdf:area(strdf:envelope("LINESTRING (0 0, 2 3)"))`, "6"},
	{"strdf:convexhull", `strdf:area(strdf:convexHull("LINESTRING (0 0, 2 0, 0 2, 0.5 0.5)"))`, "2"},
	{"strdf:area", `strdf:area(?g)`, "25"},
	{"strdf:dimension", `strdf:dimension(?g)`, "2"},
	{"strdf:astext", `strdf:asText("POINT (1 1)")`, "POINT (1 1)"},
	{"strdf:buffer", `strdf:area(strdf:buffer("POINT (1 1)", 1))`, "4"},
	{"strdf:srid", `strdf:srid(?g)`, "4326"},
}

// near reports equal lexical forms, or numbers within 1e-6 of each
// other relatively: the polygon clipper rounds.
func near(got, want string) bool {
	g, errG := strconv.ParseFloat(got, 64)
	w, errW := strconv.ParseFloat(want, 64)
	if errG != nil || errW != nil {
		return got == want
	}
	return math.Abs(g-w) <= 1e-6*math.Abs(w)
}

// TestBuiltinTable runs every example and fails for a row of the table
// no example covers.
func TestBuiltinTable(t *testing.T) {
	s := builtinStore()
	covered := map[*Builtin]bool{}
	for _, ex := range builtinExamples {
		where := `?s <http://example.org/v> ?v ; <http://example.org/name> ?n ; <http://example.org/g> ?g`
		f := builtinRows[ex.fn]
		if len(f) == 0 {
			t.Fatalf("%s: no row", ex.fn)
		}
		q := mustParse(t, `SELECT (`+ex.expr+` AS ?x) WHERE { `+where+` }`)
		calls := 0
		anyCall(q.Select.Projection[0].Expr, func(c *CallExpr) bool {
			if c.Name == ex.fn {
				covered[c.Fn] = true
				calls++
			}
			return false
		})
		if calls == 0 {
			t.Fatalf("%s does not call %s", ex.expr, ex.fn)
		}
		if IsGrouped(q.Select) {
			where = `?s <http://example.org/v> ?v ; <http://example.org/g> ?g`
			q = mustParse(t, `SELECT (`+ex.expr+` AS ?x) WHERE { `+where+` }`)
		}
		res, err := selectAll(NewEvaluator(s), q)
		if err != nil {
			t.Fatalf("%s: %v", ex.expr, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", ex.expr, len(res.Rows))
		}
		if got := res.at(0, "x").Value; !slices.ContainsFunc(strings.Split(ex.want, "|"), func(w string) bool { return near(got, w) }) {
			t.Errorf("%s = %q, want %q", ex.expr, got, ex.want)
		}
	}
	for _, f := range builtins {
		if !covered[f] {
			t.Errorf("no example covers the row of %s", f.Names[0])
		}
	}
}

// TestBuiltinRefusals: a call the table cannot answer by the spec is a
// parse error naming the function, never an empty answer.
func TestBuiltinRefusals(t *testing.T) {
	for _, tc := range []struct{ query, name string }{
		{`SELECT ?v WHERE { ?s <http://example.org/v> ?v FILTER(nosuchfn(?v)) }`, "nosuchfn"},
		{`SELECT ?v WHERE { ?s <http://example.org/v> ?v FILTER(abs(?v, ?v)) }`, "abs"},
		{`SELECT ?v WHERE { ?s <http://example.org/g> ?v FILTER(strdf:nosuch(?v)) }`, "strdf:nosuch"},
		{`SELECT ?v WHERE { ?s <http://example.org/v> ?v FILTER(sample(?v) > 1) }`, "sample"},
		{`SELECT (str(?v, ?v) AS ?x) WHERE { ?s <http://example.org/v> ?v }`, "str"},
		{`SELECT (count(?v, ?s) AS ?x) WHERE { ?s <http://example.org/v> ?v }`, "count"},
		{`SELECT (count() AS ?x) WHERE { ?s <http://example.org/v> ?v }`, "count"},
		{`SELECT (sum(*) AS ?x) WHERE { ?s <http://example.org/v> ?v }`, "sum"},
		{`SELECT (abs(DISTINCT ?v) AS ?x) WHERE { ?s <http://example.org/v> ?v }`, "abs"},
		{`SELECT (strdf:union(?v, ?v, ?v) AS ?x) WHERE { ?s <http://example.org/g> ?v }`, "strdf:union"},
		{`SELECT ?v WHERE { ?s <http://example.org/g> ?v FILTER(strdf:anyInteract(?v)) }`, "strdf:anyinteract"},
		{`SELECT ?v WHERE { ?s <http://example.org/v> ?v FILTER(bound(1)) }`, "bound"},
		{`SELECT ?v WHERE { ?s <http://example.org/v> ?v FILTER(regex(str(?v), "(a)\\1")) }`, "regex"},
		{`SELECT ?v WHERE { ?s <http://example.org/v> ?v FILTER(regex(str(?v), "a", "x")) }`, "regex"},
		{`SELECT ?v WHERE { ?s <http://example.org/v> ?v FILTER(regex(str(?v), ?v, "q")) }`, "regex"},
		{`SELECT (COALESCE(?v, 0) AS ?x) WHERE { ?s <http://example.org/v> ?v }`, "coalesce"},
		{`SELECT (IF(?v > 1, 1, 0) AS ?x) WHERE { ?s <http://example.org/v> ?v }`, "if"},
		{`SELECT (GROUP_CONCAT(?v) AS ?x) WHERE { ?s <http://example.org/v> ?v }`, "group_concat"},
		{`ASK { ?s <http://example.org/v> ?v FILTER(count(?v) > 0) }`, "count"},
	} {
		_, err := Parse(tc.query, nil)
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: error %v, want one naming %s", tc.query, err, tc.name)
		}
	}
}

// TestBinaryUnionIsScalar: strdf:union of two geometries is the
// per-row union, not the aggregate — one row per subject — and an
// aggregate's argument may still call it.
func TestBinaryUnionIsScalar(t *testing.T) {
	s := builtinStore()
	res := runSelect(t, s, `SELECT ?s (strdf:area(strdf:union(?g, "POLYGON ((0 0, 5 0, 5 5, 0 5, 0 0))")) AS ?a)
  WHERE { ?s <http://example.org/g> ?g }`)
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(res.Rows))
	}
	want := map[string]string{"http://example.org/a": "25", "http://example.org/b": "50"}
	for i := range res.Rows {
		if s, a := res.at(i, "s").Value, res.at(i, "a").Value; !near(a, want[s]) {
			t.Errorf("%s: area %s, want %s", s, a, want[s])
		}
	}
	res = runSelect(t, s, `SELECT (strdf:area(strdf:union(strdf:union(?g, ?g))) AS ?a) WHERE { ?s <http://example.org/g> ?g }`)
	if len(res.Rows) != 1 || !near(res.at(0, "a").Value, "50") {
		t.Errorf("aggregate of binary unions: %v", res.Rows)
	}
}
