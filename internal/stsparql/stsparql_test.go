package stsparql

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rdf"
)

const (
	noaNS   = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#"
	coastNS = "http://teleios.di.uoa.gr/ontologies/coastlineOntology.owl#"
	strdfNS = "http://strdf.di.uoa.gr/ontology#"
	gagNS   = "http://teleios.di.uoa.gr/ontologies/gagOntology.owl#"
)

func iri(s string) rdf.Term { return rdf.NewIRI(s) }

// fixtureStore builds a small dataset mirroring the paper's layout: three
// hotspots (one on land, one in the sea, one straddling the coast), a
// coastline polygon (land mass), and two municipalities.
func fixtureStore() *rdf.Store {
	s := rdf.NewStore()
	add := func(subj, pred string, obj rdf.Term) {
		s.Add(rdf.Triple{S: iri(subj), P: iri(pred), O: obj})
	}
	hotspot := func(name, wkt, at string, conf float64) {
		h := noaNS + name
		add(h, rdf.RDFType, iri(noaNS+"Hotspot"))
		add(h, strdfNS+"hasGeometry", rdf.NewGeometry(wkt))
		add(h, noaNS+"hasAcquisitionDateTime", rdf.NewDateTime(at))
		add(h, noaNS+"hasConfidence", rdf.NewFloat(conf))
		add(h, noaNS+"isDerivedFromSensor", rdf.NewTypedLiteral("MSG2", rdf.XSDString))
	}
	// Land mass: a big square "island" from (0,0) to (10,10).
	add(coastNS+"Coastline_1", rdf.RDFType, iri(coastNS+"Coastline"))
	add(coastNS+"Coastline_1", strdfNS+"hasGeometry",
		rdf.NewGeometry("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"))

	hotspot("Hotspot_land", "POLYGON ((2 2, 3 2, 3 3, 2 3, 2 2))", "2007-08-24T18:15:00", 1.0)
	hotspot("Hotspot_sea", "POLYGON ((20 20, 21 20, 21 21, 20 21, 20 20))", "2007-08-24T18:15:00", 0.5)
	hotspot("Hotspot_coast", "POLYGON ((9 4, 11 4, 11 6, 9 6, 9 4))", "2007-08-24T18:20:00", 1.0)

	// Municipalities: west half and east half of the island.
	for i, m := range []struct {
		name, wkt string
		pop       int64
	}{
		{"munWest", "POLYGON ((0 0, 5 0, 5 10, 0 10, 0 0))", 1000},
		{"munEast", "POLYGON ((5 0, 10 0, 10 10, 5 10, 5 0))", 2500},
	} {
		u := gagNS + m.name
		add(u, rdf.RDFType, iri(gagNS+"Municipality"))
		add(u, strdfNS+"hasGeometry", rdf.NewGeometry(m.wkt))
		add(u, gagNS+"hasPopulation", rdf.NewInteger(m.pop))
		add(u, "http://www.w3.org/2000/01/rdf-schema#label",
			rdf.NewLiteral(fmt.Sprintf("Municipality %d", i)))
	}
	return s
}

// at returns row i's term for variable v (the zero Term when v is not
// in the header).
func (r *Result) at(i int, v string) rdf.Term {
	if c := r.Col(v); c >= 0 {
		return r.Rows[i][c]
	}
	return rdf.Term{}
}

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src, nil)
	if err != nil {
		t.Fatalf("parse: %v\nquery:\n%s", err, src)
	}
	return q
}

// openSelect compiles a SELECT on e and opens its cursor.
func openSelect(e *Evaluator, q *Query) (Cursor, error) { return e.RunCompiled(e.Compile(q)) }

// selectAll compiles a SELECT on e and drains it into a Result.
func selectAll(e *Evaluator, q *Query) (*Result, error) {
	cur, err := openSelect(e, q)
	if err != nil {
		return nil, err
	}
	res := ReadAll(cur)
	if err := cur.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

// ask compiles an ASK on e and evaluates it.
func ask(e *Evaluator, q *Query) (bool, error) { return e.AskCompiled(e.Compile(q)) }

func runSelect(t *testing.T, s *rdf.Store, src string) *Result {
	t.Helper()
	q := mustParse(t, src)
	if q.Select == nil {
		t.Fatalf("not a SELECT: %s", src)
	}
	res, err := selectAll(NewEvaluator(s), q)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return res
}

func TestParseSelectBasics(t *testing.T) {
	q := mustParse(t, `SELECT DISTINCT ?h ?g WHERE { ?h a noa:Hotspot ; strdf:hasGeometry ?g . } ORDER BY ?h LIMIT 5 OFFSET 1`)
	sel := q.Select
	if sel == nil || !sel.Distinct || len(sel.Projection) != 2 {
		t.Fatalf("bad select: %+v", sel)
	}
	if sel.Limit != 5 || sel.Offset != 1 || len(sel.OrderBy) != 1 {
		t.Fatalf("modifiers: %+v", sel)
	}
	bgp, ok := sel.Where.Elements[0].(*BGPElement)
	if !ok || len(bgp.Patterns) != 2 {
		t.Fatalf("where: %#v", sel.Where.Elements)
	}
	if bgp.Patterns[0].P.Term.Value != rdf.RDFType {
		t.Fatalf("'a' not expanded: %v", bgp.Patterns[0].P)
	}
}

func TestParsePrefixDeclaration(t *testing.T) {
	q := mustParse(t, `PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Thing . }`)
	bgp := q.Select.Where.Elements[0].(*BGPElement)
	if bgp.Patterns[0].O.Term.Value != "http://example.org/Thing" {
		t.Fatalf("prefix not applied: %v", bgp.Patterns[0].O)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"SELECT WHERE { ?s ?p ?o }",
		"SELECT ?x WHERE { ?x a }",
		"SELECT ?x WHERE { ?x a unknown:Thing }",
		"FROB ?x WHERE { }",
		"SELECT ?x WHERE { ?x a noa:Hotspot",
		"SELECT (?x AS) WHERE { ?x a noa:Hotspot }",
	} {
		if _, err := Parse(src, nil); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestSelectSimpleBGP(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT ?h WHERE { ?h a noa:Hotspot . }`)
	if len(res.Rows) != 3 {
		t.Fatalf("got %d hotspots, want 3", len(res.Rows))
	}
}

func TestSelectJoin(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT ?h ?conf WHERE {
  ?h a noa:Hotspot ;
     noa:hasConfidence ?conf .
}`)
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for i := range res.Rows {
		if _, ok := res.at(i, "conf").Float(); !ok {
			t.Fatalf("conf not numeric: %v", res.at(i, "conf"))
		}
	}
}

func TestSelectFilterComparison(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT ?h WHERE {
  ?h a noa:Hotspot ;
     noa:hasConfidence ?c .
  FILTER(?c >= 1.0)
}`)
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
}

func TestSelectFilterDateTimeStrComparison(t *testing.T) {
	// The paper's Query 1 compares str(?hAcqTime) against plain strings.
	res := runSelect(t, fixtureStore(), `
SELECT ?h WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at .
  FILTER( "2007-08-24T18:18:00" <= str(?at) ) .
}`)
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
}

// TestMalformedDateTimeStaysAnError: an xsd:dateTime literal the engine
// cannot parse is an error wherever its value is read — str() and every
// comparison — however often one evaluation reads it, although the parse
// runs once per literal and evaluation.
func TestMalformedDateTimeStaysAnError(t *testing.T) {
	s := rdf.NewStore()
	at := iri(noaNS + "hasAcquisitionDateTime")
	for _, h := range []string{"bad1", "bad2"} {
		s.Add(rdf.Triple{S: iri(noaNS + h), P: at, O: rdf.NewDateTime("24/08/2007 18:15")})
	}
	s.Add(rdf.Triple{S: iri(noaNS + "good"), P: at, O: rdf.NewDateTime("2007-08-24T18:15:00")})
	for _, tc := range []struct{ filter, want string }{
		{`str(?at) >= "2007"`, "good"},
		{`?at > "2000-01-01T00:00:00"^^xsd:dateTime`, "good"},
		{`?at >= "2000-01-01T00:00:00"`, "good"},
		{`!(?at > "2000-01-01T00:00:00"^^xsd:dateTime)`, ""},
		{`?at = ?at`, "good"},
	} {
		res := runSelect(t, s, `SELECT ?h WHERE { ?h noa:hasAcquisitionDateTime ?at . FILTER( `+tc.filter+` ) }`)
		var got string
		for i := range res.Rows {
			got += strings.TrimPrefix(res.at(i, "h").Value, noaNS)
		}
		if got != tc.want {
			t.Errorf("FILTER( %s ) kept %q, want %q", tc.filter, got, tc.want)
		}
	}
	res := runSelect(t, s, `SELECT ?h (str(?at) AS ?s) WHERE { ?h noa:hasAcquisitionDateTime ?at . }`)
	for i := range res.Rows {
		h, str := res.at(i, "h").Value, res.at(i, "s")
		if good := h == noaNS+"good"; good == str.IsZero() {
			t.Errorf("%s: str(?at) = %v", h, str)
		}
	}
	e := NewEvaluator(s)
	e.begin(nil, nil)
	bad := rdf.NewDateTime("24/08/2007 18:15")
	for range 2 {
		if got, want := e.dateTime(e.dict.encode(bad), bad), termToValue(bad, e.cache); got.Kind != VErr || got.Err().Error() != want.Err().Error() {
			t.Errorf("the memoised value %+v is not termToValue's %+v", got, want)
		}
	}
}

func TestSelectSpatialFilterContains(t *testing.T) {
	// Query-1 shape: constant polygon contains hotspot geometry.
	res := runSelect(t, fixtureStore(), `
SELECT ?h ?g WHERE {
  ?h a noa:Hotspot ;
     strdf:hasGeometry ?g .
  FILTER( strdf:contains("POLYGON((0 0, 10 0, 10 10, 0 10, 0 0))"^^strdf:WKT, ?g) ) .
}`)
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1 (only the fully-on-land hotspot)", len(res.Rows))
	}
	if res.at(0, "h").Value != noaNS+"Hotspot_land" {
		t.Fatalf("wrong hotspot: %v", res.at(0, "h"))
	}
}

func TestSelectSpatialJoinAnyInteract(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT ?h ?m WHERE {
  ?h a noa:Hotspot ;
     strdf:hasGeometry ?hGeo .
  ?m a gag:Municipality ;
     strdf:hasGeometry ?mGeo .
  FILTER( strdf:anyInteract(?hGeo, ?mGeo) ) .
}`)
	// land hotspot -> west; coast hotspot -> east; sea hotspot -> none.
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
}

func TestOptionalAndNotBound(t *testing.T) {
	// The delete-in-sea pattern: hotspots NOT intersecting any coastline.
	res := runSelect(t, fixtureStore(), `
SELECT ?h WHERE {
  ?h a noa:Hotspot ;
     strdf:hasGeometry ?hGeo .
  OPTIONAL {
    ?c a coast:Coastline ;
       strdf:hasGeometry ?cGeo .
    FILTER( strdf:anyInteract(?hGeo, ?cGeo) )
  }
  FILTER( !bound(?c) )
}`)
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1 (the sea hotspot)", len(res.Rows))
	}
	if res.at(0, "h").Value != noaNS+"Hotspot_sea" {
		t.Fatalf("wrong hotspot: %v", res.at(0, "h"))
	}
}

func TestOptionalKeepsUnmatchedRows(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT ?h ?pop WHERE {
  ?h a noa:Hotspot .
  OPTIONAL { ?h gag:hasPopulation ?pop . }
}`)
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	for i := range res.Rows {
		if !res.at(i, "pop").IsZero() {
			t.Fatal("no hotspot has a population")
		}
	}
}

func TestUnion(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT ?x WHERE {
  { ?x a noa:Hotspot . } UNION { ?x a gag:Municipality . }
}`)
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.Rows))
	}
}

func TestGroupByCountAndHaving(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT ?sensor (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot ;
     noa:isDerivedFromSensor ?sensor .
} GROUP BY ?sensor`)
	if len(res.Rows) != 1 {
		t.Fatalf("got %d groups", len(res.Rows))
	}
	if n, _ := res.at(0, "n").Float(); n != 3 {
		t.Fatalf("count = %v", res.at(0, "n"))
	}

	res2 := runSelect(t, fixtureStore(), `
SELECT ?sensor (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:isDerivedFromSensor ?sensor .
} GROUP BY ?sensor HAVING (COUNT(?h) > 5)`)
	if len(res2.Rows) != 0 {
		t.Fatalf("HAVING should reject the group")
	}
}

// TestHavingLogicalAndBound: in aggregate context (HAVING and aggregate
// projections) && and || take SPARQL's three-valued logic and bound()
// reads a group key, as they do in every other context. The fixture's
// hotspots group by confidence into 1.0 (two hotspots) and 0.5 (one).
func TestHavingLogicalAndBound(t *testing.T) {
	const byConf = `SELECT ?c (COUNT(?h) AS ?n) WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . } GROUP BY ?c `
	for _, tc := range []struct {
		name, src string
		want      []string // ?n of the surviving groups, sorted
	}{
		{"and", byConf + `HAVING (COUNT(?h) >= 1 && COUNT(?h) < 2)`, []string{"1"}},
		{"or", byConf + `HAVING (COUNT(?h) >= 2 || COUNT(?h) < 1)`, []string{"2"}},
		{"or with a group key", byConf + `HAVING (COUNT(?h) > 5 || ?c > 0.7)`, []string{"2"}},
		{"and short of both", byConf + `HAVING (COUNT(?h) >= 1 && COUNT(?h) > 5)`, nil},
		{"bound group key", byConf + `HAVING (bound(?c))`, []string{"1", "2"}},
		{"not bound group key", byConf + `HAVING (!bound(?c))`, nil},
		{"unbound group key", `SELECT (COUNT(?h) AS ?n) WHERE { ?h a noa:Hotspot . OPTIONAL { ?h noa:hasNothing ?s } }
GROUP BY ?s HAVING (!bound(?s) && COUNT(?h) = 3)`, []string{"3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := runSelect(t, fixtureStore(), tc.src)
			var got []string
			for i := range res.Rows {
				got = append(got, res.at(i, "n").Value)
			}
			sort.Strings(got)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("groups' counts = %v, want %v", got, tc.want)
			}
		})
	}

	res := runSelect(t, fixtureStore(), `SELECT ?c ((COUNT(?h) > 1 && bound(?c)) AS ?many) ((COUNT(?h) > 1 || !bound(?c)) AS ?either)
WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . } GROUP BY ?c`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for i := range res.Rows {
		c, _ := res.at(i, "c").Float()
		want := fmt.Sprint(c == 1)
		if many, either := res.at(i, "many").Value, res.at(i, "either").Value; many != want || either != want {
			t.Fatalf("?c=%v: ?many=%q ?either=%q, want %q", c, many, either, want)
		}
	}
}

func TestAggregatesNumeric(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT (SUM(?p) AS ?s) (AVG(?p) AS ?a) (MIN(?p) AS ?lo) (MAX(?p) AS ?hi) (COUNT(*) AS ?n)
WHERE { ?m a gag:Municipality ; gag:hasPopulation ?p . }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	check := func(v string, want float64) {
		got, ok := res.at(0, v).Float()
		if !ok || math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s = %v, want %g", v, res.at(0, v), want)
		}
	}
	check("s", 3500)
	check("a", 1750)
	check("lo", 1000)
	check("hi", 2500)
	check("n", 2)
}

// TestCountCountsBoundValues pins COUNT of a variable to SPARQL 1.1
// §18.5.1.1: it counts the rows binding the variable, and a variable
// bound to an ill-typed literal is bound, not an error. COUNT(DISTINCT
// ?v) counts distinct terms, and rows an OPTIONAL left unbound do not
// count.
func TestCountCountsBoundValues(t *testing.T) {
	s := rdf.NewStore()
	ex := "http://example.org/"
	for i, v := range []rdf.Term{
		rdf.NewTypedLiteral("abc", rdf.XSDInteger),
		rdf.NewTypedLiteral("2", rdf.XSDInteger),
		rdf.NewDateTime("notatime"),
	} {
		s.Add(rdf.Triple{S: iri(fmt.Sprintf("%ss%d", ex, i)), P: iri(ex + "v"), O: v})
	}
	s.Add(rdf.Triple{S: iri(ex + "s3"), P: iri(ex + "v"), O: rdf.NewTypedLiteral("2", rdf.XSDInteger)})
	s.Add(rdf.Triple{S: iri(ex + "s3"), P: iri(ex + "w"), O: rdf.NewLiteral("x")})
	s.Add(rdf.Triple{S: iri(ex + "s4"), P: iri(ex + "w"), O: rdf.NewLiteral("x")})
	for _, tc := range []struct {
		query string
		want  map[string]float64
	}{
		{`SELECT (COUNT(?v) AS ?n) (COUNT(*) AS ?m) WHERE { ?s <http://example.org/v> ?v . FILTER( ?s != <http://example.org/s3> ) }`,
			map[string]float64{"n": 3, "m": 3}},
		{`SELECT (COUNT(DISTINCT ?v) AS ?n) (COUNT(?v) AS ?m) WHERE { ?s <http://example.org/v> ?v . }`,
			map[string]float64{"n": 3, "m": 4}},
		{`SELECT (COUNT(?x) AS ?n) (COUNT(*) AS ?m) (COUNT(DISTINCT ?x) AS ?d) WHERE { ?s <http://example.org/w> ?w . OPTIONAL { ?s <http://example.org/v> ?x } }`,
			map[string]float64{"n": 1, "m": 2, "d": 1}},
		{`SELECT (COUNT(?nowhere) AS ?n) WHERE { ?s <http://example.org/v> ?v . }`,
			map[string]float64{"n": 0}},
	} {
		res := runSelect(t, s, tc.query)
		if len(res.Rows) != 1 {
			t.Fatalf("%s: %d rows, want one", tc.query, len(res.Rows))
		}
		for v, want := range tc.want {
			if got, ok := res.at(0, v).Float(); !ok || got != want {
				t.Errorf("%s: ?%s = %v, want %g", tc.query, v, res.at(0, v), want)
			}
		}
	}
}

func TestSpatialUnionAggregate(t *testing.T) {
	// strdf:union over both municipality polygons covers the island.
	res := runSelect(t, fixtureStore(), `
SELECT (strdf:union(?mGeo) AS ?all) WHERE {
  ?m a gag:Municipality ; strdf:hasGeometry ?mGeo .
}`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	g, err := geom.ParseWKT(res.at(0, "all").Value)
	if err != nil {
		t.Fatalf("union WKT: %v", err)
	}
	if a := geom.Area(g); math.Abs(a-100) > 0.5 {
		t.Fatalf("union area = %g, want ~100", a)
	}
}

func TestRefineInCoastQueryShape(t *testing.T) {
	// The paper's second refinement query: group the coastline polygons
	// intersecting each hotspot, subtract the sea part.
	res := runSelect(t, fixtureStore(), `
SELECT DISTINCT ?h ?hGeo
  (strdf:intersection(?hGeo, strdf:union(?cGeo)) AS ?dif)
WHERE {
  ?h a noa:Hotspot ;
     strdf:hasGeometry ?hGeo .
  ?c a coast:Coastline ;
     strdf:hasGeometry ?cGeo .
  FILTER( strdf:anyInteract(?hGeo, ?cGeo) )
}
GROUP BY ?h ?hGeo
HAVING strdf:overlap(?hGeo, strdf:union(?cGeo))`)
	// Only the coast-straddling hotspot overlaps (not contained in) land.
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	difTerm := res.at(0, "dif")
	g, err := geom.ParseWKT(difTerm.Value)
	if err != nil {
		t.Fatalf("dif WKT: %v (%q)", err, difTerm.Value)
	}
	// Hotspot (9..11)x(4..6) clipped to island (0..10)^2 = 1x2 = 2.
	if a := geom.Area(g); math.Abs(a-2) > 1e-3 {
		t.Fatalf("clipped area = %g, want 2", a)
	}
}

func TestSubSelect(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT ?h ?dif WHERE {
  SELECT ?h (strdf:area(?hGeo) AS ?dif) WHERE {
    ?h a noa:Hotspot ; strdf:hasGeometry ?hGeo .
  }
}`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestOrderByAndLimit(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT ?m ?p WHERE { ?m a gag:Municipality ; gag:hasPopulation ?p . }
ORDER BY DESC(?p) LIMIT 1`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if p := res.at(0, "p"); p.Value != "2500" {
		t.Fatalf("top population = %v", res.at(0, "p"))
	}
}

func TestAsk(t *testing.T) {
	s := fixtureStore()
	q := mustParse(t, `ASK { ?h a noa:Hotspot . }`)
	got, err := ask(NewEvaluator(s), q)
	if err != nil || !got {
		t.Fatalf("ask = %v, %v", got, err)
	}
	q2 := mustParse(t, `ASK { ?h a noa:Volcano . }`)
	got2, err := ask(NewEvaluator(s), q2)
	if err != nil || got2 {
		t.Fatalf("ask2 = %v, %v", got2, err)
	}
}

func TestDeleteInSeaUpdate(t *testing.T) {
	s := fixtureStore()
	// The paper's first refinement update, with consistent variable names.
	src := `
DELETE { ?h ?hProperty ?hObject }
WHERE {
  ?h a noa:Hotspot ;
     strdf:hasGeometry ?hGeo ;
     ?hProperty ?hObject .
  OPTIONAL {
    ?c a coast:Coastline ;
       strdf:hasGeometry ?cGeo .
    FILTER( strdf:anyInteract(?hGeo, ?cGeo) )
  }
  FILTER( !bound(?c) )
}`
	q := mustParse(t, src)
	if q.Update == nil {
		t.Fatal("not an update")
	}
	before := s.Len()
	stats, err := NewEvaluator(s).Update(q.Update)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Deleted != 5 {
		t.Fatalf("deleted %d triples, want 5 (all sea-hotspot properties)", stats.Deleted)
	}
	if s.Len() != before-5 {
		t.Fatalf("store len = %d", s.Len())
	}
	res := runSelect(t, s, `SELECT ?h WHERE { ?h a noa:Hotspot . }`)
	if len(res.Rows) != 2 {
		t.Fatalf("%d hotspots remain, want 2", len(res.Rows))
	}
}

func TestRefineInCoastUpdate(t *testing.T) {
	s := fixtureStore()
	src := `
DELETE { ?h strdf:hasGeometry ?hGeo }
INSERT { ?h strdf:hasGeometry ?dif }
WHERE {
  SELECT DISTINCT ?h ?hGeo
    (strdf:intersection(?hGeo, strdf:union(?cGeo)) AS ?dif)
  WHERE {
    ?h a noa:Hotspot ;
       strdf:hasGeometry ?hGeo .
    ?c a coast:Coastline ;
       strdf:hasGeometry ?cGeo .
    FILTER( strdf:anyInteract(?hGeo, ?cGeo) )
  }
  GROUP BY ?h ?hGeo
  HAVING strdf:overlap(?hGeo, strdf:union(?cGeo))
}`
	q := mustParse(t, src)
	stats, err := NewEvaluator(s).Update(q.Update)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Deleted != 1 || stats.Inserted != 1 {
		t.Fatalf("stats = %+v, want 1 delete + 1 insert", stats)
	}
	// The coast hotspot's geometry must now be clipped to land.
	res := runSelect(t, s, `
SELECT ?g WHERE { <`+noaNS+`Hotspot_coast> strdf:hasGeometry ?g . }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	g, err := geom.ParseWKT(res.at(0, "g").Value)
	if err != nil {
		t.Fatal(err)
	}
	if a := geom.Area(g); math.Abs(a-2) > 1e-3 {
		t.Fatalf("refined area = %g, want 2", a)
	}
}

func TestInsertData(t *testing.T) {
	s := rdf.NewStore()
	q := mustParse(t, `
INSERT DATA {
  noa:h1 a noa:Hotspot ;
    noa:hasConfidence 0.5 .
}`)
	stats, err := NewEvaluator(s).Update(q.Update)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Inserted != 2 || s.Len() != 2 {
		t.Fatalf("inserted %d, len %d", stats.Inserted, s.Len())
	}
}

func TestDeleteWhereShorthand(t *testing.T) {
	s := fixtureStore()
	q := mustParse(t, `
DELETE WHERE { ?h a noa:Hotspot . }`)
	stats, err := NewEvaluator(s).Update(q.Update)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Deleted != 3 {
		t.Fatalf("deleted %d, want 3", stats.Deleted)
	}
}

func TestPaperQuery1Full(t *testing.T) {
	// Query 1 of the paper, nearly verbatim (predicates adapted to the
	// fixture's schema), including the dangling ';' before FILTER.
	res := runSelect(t, fixtureStore(), `
SELECT ?hotspot ?hGeo ?hAcqTime ?hConfidence ?hSensor
WHERE {
  ?hotspot a noa:Hotspot ;
    strdf:hasGeometry ?hGeo ;
    noa:hasAcquisitionDateTime ?hAcqTime ;
    noa:hasConfidence ?hConfidence ;
    noa:isDerivedFromSensor ?hSensor ;
  FILTER( "2007-08-23T00:00:00" <= str(?hAcqTime) ) .
  FILTER( str(?hAcqTime) <= "2007-08-26T23:59:59" ) .
  FILTER( strdf:contains("POLYGON((-5 -5, 15 -5, 15 15, -5 15, -5 -5))"^^strdf:WKT, ?hGeo)).
}`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (land + coast hotspots)", len(res.Rows))
	}
}

func TestExpressionArithmetic(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT ?m ((?p * 2 + 100) AS ?x) WHERE { ?m a gag:Municipality ; gag:hasPopulation ?p . }
ORDER BY ?x`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if v, _ := res.at(0, "x").Float(); v != 2100 {
		t.Fatalf("x = %v", res.at(0, "x"))
	}
}

func TestBooleanConnectives(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT ?m WHERE {
  ?m a gag:Municipality ; gag:hasPopulation ?p .
  FILTER(?p > 500 && ?p < 2000)
}`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	res2 := runSelect(t, fixtureStore(), `
SELECT ?m WHERE {
  ?m a gag:Municipality ; gag:hasPopulation ?p .
  FILTER(?p = 1000 || ?p = 2500)
}`)
	if len(res2.Rows) != 2 {
		t.Fatalf("rows = %d", len(res2.Rows))
	}
}

func TestSpatialFunctionsInProjection(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT ?m (strdf:boundary(?g) AS ?b) (strdf:area(?g) AS ?a) WHERE {
  ?m a gag:Municipality ; strdf:hasGeometry ?g .
}`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := range res.Rows {
		if a, _ := res.at(i, "a").Float(); math.Abs(a-50) > 1e-6 {
			t.Fatalf("area = %v", res.at(i, "a"))
		}
		bg, err := geom.ParseWKT(res.at(i, "b").Value)
		if err != nil || bg.Dimension() != 1 {
			t.Fatalf("boundary = %v (%v)", res.at(i, "b"), err)
		}
	}
}

func TestDistinct(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT DISTINCT ?sensor WHERE { ?h noa:isDerivedFromSensor ?sensor . }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

func TestSelectStar(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT * WHERE { ?m a gag:Municipality ; gag:hasPopulation ?p . }`)
	if len(res.Rows) != 2 || len(res.Vars) != 2 {
		t.Fatalf("rows=%d vars=%v", len(res.Rows), res.Vars)
	}
}

func TestVariablePredicate(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT ?p ?o WHERE { <`+noaNS+`Hotspot_land> ?p ?o . }`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
}

func TestUpdateOnNonUpdatableSource(t *testing.T) {
	q := mustParse(t, `DELETE WHERE { ?s ?p ?o }`)
	ev := NewEvaluator(readOnlySource{fixtureStore()})
	if _, err := ev.Update(q.Update); err == nil {
		t.Fatal("update on read-only source should fail")
	}
}

// readOnlySource hides the store's Add/Remove behind the plain Source.
type readOnlySource struct{ Source }
