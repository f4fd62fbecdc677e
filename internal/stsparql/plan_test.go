package stsparql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rdf"
)

// spatialFixture wraps the fixture store with a SpatialSource
// implementation (envelope scan; exactness does not matter for planning
// tests) so plans include window-served joins like strabon's store does.
type spatialFixture struct {
	*rdf.Store
}

var _ SpatialSource = spatialFixture{}

func (s spatialFixture) SubjectSets(p, o rdf.ID, dst []rdf.IDSet) []rdf.IDSet {
	if set := s.SubjectSet(p, o); set.Len() > 0 {
		dst = append(dst, set)
	}
	return dst
}

// WindowSkip: the fixture is one member, always searched.
func (s spatialFixture) WindowSkip(rdf.ID, [][]rdf.IDSet) (uint64, int) { return 0, 1 }

func (s spatialFixture) MatchGeometryWindowIDs(env geom.Envelope, skip uint64, visit func(rdf.EncodedTriple) bool) bool {
	if skip&1 != 0 {
		return true
	}
	p, ok := s.Dict().Lookup(rdf.NewIRI("http://strdf.di.uoa.gr/ontology#hasGeometry"))
	if !ok {
		return true
	}
	return s.MatchIDs(rdf.Wildcard, p, rdf.Wildcard, func(t rdf.EncodedTriple) bool {
		g, err := geom.ParseWKT(s.Dict().Decode(t.O).Value)
		if err != nil {
			return true
		}
		if g.Envelope().Intersects(env) {
			return visit(t)
		}
		return true
	})
}

// clcFixture extends the fixture with one Corine land-cover area so the
// InvalidForFires refinement shape has data on both join sides.
func clcFixture() spatialFixture {
	s := fixtureStore()
	clcNS := "http://teleios.di.uoa.gr/ontologies/clcOntology.owl#"
	add := func(subj, pred string, obj rdf.Term) {
		s.Add(rdf.Triple{S: iri(subj), P: iri(pred), O: obj})
	}
	add(clcNS+"area1", rdf.RDFType, iri(clcNS+"Area"))
	add(clcNS+"area1", clcNS+"hasLandUse", iri(clcNS+"NonIrrigatedArableLand"))
	add(clcNS+"area1", "http://strdf.di.uoa.gr/ontology#hasGeometry",
		rdf.NewGeometry("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"))
	return spatialFixture{s}
}

const invalidForFiresQuery = `
DELETE { ?h ?hProperty ?hObject }
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at ;
     strdf:hasGeometry ?hGeo ;
     ?hProperty ?hObject .
  ?a a clc:Area ;
     clc:hasLandUse ?use ;
     strdf:hasGeometry ?aGeo .
  FILTER( str(?at) = "2007-08-24T18:15:00" )
  FILTER( ?use = clc:NonIrrigatedArableLand || ?use = clc:ContinuousUrbanFabric )
  FILTER( strdf:coveredBy(?hGeo, ?aGeo) )
}`

// TestExplainInvalidForFiresGolden pins the plan chosen for the paper's
// InvalidForFires refinement: the hotspot side scans first, the
// acquisition-scope filter is pushed directly below the pattern binding
// ?at, and the land-cover geometry (the second basic graph pattern — the
// parser splits subject blocks) is joined through an R-tree window scan
// as soon as the plan reaches it, with ?hGeo already bound — and the
// exact coveredBy test waits for the ground `?a a clc:Area` probe.
func TestExplainInvalidForFiresGolden(t *testing.T) {
	q := mustParse(t, invalidForFiresQuery)
	got, err := NewEvaluator(clcFixture()).Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	want := `update delete=1 insert=0
  join[bind] {?h <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#Hotspot>} est=3
  join[bind] {?h <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#hasAcquisitionDateTime> ?at} on h est=3
  filter[pushed] (str(?at) = "2007-08-24T18:15:00")
  join[bind] {?h <http://strdf.di.uoa.gr/ontology#hasGeometry> ?hGeo} on h est=0.75
  join[bind] {?h ?hProperty ?hObject} on h est=3
  join[window class=<http://teleios.di.uoa.gr/ontologies/clcOntology.owl#Area>] {?a <http://strdf.di.uoa.gr/ontology#hasGeometry> ?aGeo} est=0.21
  join[bind] {?a <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://teleios.di.uoa.gr/ontologies/clcOntology.owl#Area>} on a est=0.03
  filter[pushed] strdf:coveredby(?hGeo, ?aGeo)
  join[bind] {?a <http://teleios.di.uoa.gr/ontologies/clcOntology.owl#hasLandUse> ?use} on a est=0.0075
  filter[pushed] ((?use = <http://teleios.di.uoa.gr/ontologies/clcOntology.owl#NonIrrigatedArableLand>) || (?use = <http://teleios.di.uoa.gr/ontologies/clcOntology.owl#ContinuousUrbanFabric>))
`
	if got != want {
		t.Fatalf("explain mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// planLines explains src over the spatial fixture, for a query plan and
// for the same text prepared with ?h as its seed — the ordering rule is
// one rule for both — and returns the operator lines of each.
func planLines(t *testing.T, src string) map[string][]string {
	t.Helper()
	e := NewEvaluator(clcFixture())
	query, err := e.Explain(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Prepare(src, nil, "h")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	for kind, plan := range map[string]string{"query": query, "prepared": prep.Explain(e)} {
		for _, line := range strings.Split(plan, "\n")[1:] {
			if line = strings.TrimSpace(line); line != "" {
				out[kind] = append(out[kind], line)
			}
		}
	}
	return out
}

// lineWith returns the index of the one plan line containing sub.
func lineWith(t *testing.T, lines []string, sub string) int {
	t.Helper()
	at := -1
	for i, l := range lines {
		if strings.Contains(l, sub) {
			if at >= 0 {
				t.Fatalf("%q matches two plan lines:\n%s", sub, strings.Join(lines, "\n"))
			}
			at = i
		}
	}
	if at < 0 {
		t.Fatalf("no plan line contains %q:\n%s", sub, strings.Join(lines, "\n"))
	}
	return at
}

// TestCostlyFilterWaitsForGroundPatterns pins the one filter-ordering
// rule of planBGP on query and prepared plans alike.
func TestCostlyFilterWaitsForGroundPatterns(t *testing.T) {
	// A ground pattern remains once the window join has bound ?m: the type
	// probe runs next and the exact test directly behind it.
	for kind, lines := range planLines(t, `
SELECT ?h ?m WHERE {
  ?h a noa:Hotspot ; strdf:hasGeometry ?hGeo .
  ?m strdf:hasGeometry ?mGeo ; a gag:Municipality .
  FILTER( strdf:anyInteract(?hGeo, ?mGeo) )
}`) {
		window := lineWith(t, lines, "join[window class=<http://teleios.di.uoa.gr/ontologies/gagOntology.owl#Municipality>] {?m ")
		typed := lineWith(t, lines, "gagOntology.owl#Municipality>}")
		exact := lineWith(t, lines, "filter[pushed] strdf:anyinteract")
		if typed != window+1 || exact != typed+1 {
			t.Errorf("%s plan: want window join, type probe, exact test in a row:\n%s", kind, strings.Join(lines, "\n"))
		}
	}
	// Nothing ground remains (?pop is fresh): the exact test is pushed at
	// once, ahead of the join that only adds a column.
	for kind, lines := range planLines(t, `
SELECT ?h ?m ?pop WHERE {
  ?h a noa:Hotspot ; strdf:hasGeometry ?hGeo .
  ?m strdf:hasGeometry ?mGeo ; gag:hasPopulation ?pop .
  FILTER( strdf:anyInteract(?hGeo, ?mGeo) )
}`) {
		window := lineWith(t, lines, "join[window] {?m ")
		exact := lineWith(t, lines, "filter[pushed] strdf:anyinteract")
		pop := lineWith(t, lines, "hasPopulation> ?pop}")
		if exact != window+1 || pop < exact {
			t.Errorf("%s plan: want the exact test directly behind the window join:\n%s", kind, strings.Join(lines, "\n"))
		}
	}
	// A cheap filter never waits: ready at the same moment as the exact
	// test, it runs ahead of the ground pattern the exact test waits for.
	for kind, lines := range planLines(t, `
SELECT ?h ?m WHERE {
  ?h a noa:Hotspot ; strdf:hasGeometry ?hGeo .
  ?m strdf:hasGeometry ?mGeo ; a gag:Municipality .
  FILTER( strdf:anyInteract(?hGeo, ?mGeo) )
  FILTER( ?m != gag:nowhere )
}`) {
		window := lineWith(t, lines, "join[window class=<http://teleios.di.uoa.gr/ontologies/gagOntology.owl#Municipality>] {?m ")
		cheap := lineWith(t, lines, "filter[pushed] (?m != ")
		typed := lineWith(t, lines, "gagOntology.owl#Municipality>}")
		exact := lineWith(t, lines, "filter[pushed] strdf:anyinteract")
		if cheap != window+1 || typed != cheap+1 || exact != typed+1 {
			t.Errorf("%s plan: want window join, comparison, type probe, exact test:\n%s", kind, strings.Join(lines, "\n"))
		}
	}
}

// TestExplainAggregateGolden pins the plan of a grouped thematic query:
// joins, then aggregate / project / order / slice as explicit operators.
func TestExplainAggregateGolden(t *testing.T) {
	q := mustParse(t, `
SELECT ?sensor (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:isDerivedFromSensor ?sensor .
} GROUP BY ?sensor HAVING (COUNT(?h) > 1) ORDER BY ?sensor LIMIT 5`)
	got, err := NewEvaluator(clcFixture()).Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	want := `select
  join[bind] {?h <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#Hotspot>} est=3
  join[bind] {?h <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#isDerivedFromSensor> ?sensor} on h est=3
  aggregate group=?sensor having=1
  project ?sensor (count(?h) AS ?n)
  order ?sensor top=5
  slice offset=0 limit=5
`
	if got != want {
		t.Fatalf("explain mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExplainSlicePushdownGolden pins the LIMIT/OFFSET pushdown
// annotation: an order-free, aggregate-free, distinct-free plan marks
// its slice pushed — the cursor's early exit reaches the index scans —
// while the aggregate golden above keeps a plain slice.
func TestExplainSlicePushdownGolden(t *testing.T) {
	q := mustParse(t, `
SELECT ?h ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . } LIMIT 5 OFFSET 2`)
	got, err := NewEvaluator(clcFixture()).Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	want := `select
  join[bind] {?h <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#Hotspot>} est=3
  join[bind] {?h <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#hasConfidence> ?c} on h est=3
  project ?h ?c
  slice[pushed] offset=2 limit=5
`
	if got != want {
		t.Fatalf("explain mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The blocking modifiers suppress the annotation.
	for _, src := range []string{
		`SELECT ?h WHERE { ?h a noa:Hotspot . } ORDER BY ?h LIMIT 5`,
		`SELECT DISTINCT ?h WHERE { ?h a noa:Hotspot . } LIMIT 5`,
		`SELECT * WHERE { ?h a noa:Hotspot . } LIMIT 5`,
	} {
		out, err := NewEvaluator(clcFixture()).Explain(mustParse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(out, "slice[pushed]") {
			t.Errorf("slice wrongly marked pushed for %q:\n%s", src, out)
		}
	}
}

// TestExplainShapes spot-checks plan features that golden tests would
// make brittle: optional/union sub-plans and the hash strategy for
// disconnected patterns over large intermediates.
func TestExplainShapes(t *testing.T) {
	q := mustParse(t, `
SELECT ?h WHERE {
  ?h a noa:Hotspot ; strdf:hasGeometry ?hGeo .
  OPTIONAL {
    ?c a coast:Coastline ; strdf:hasGeometry ?cGeo .
    FILTER( strdf:anyInteract(?hGeo, ?cGeo) )
  }
  FILTER( !bound(?c) )
}`)
	out, err := NewEvaluator(clcFixture()).Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"optional\n", "join[window class=<http://teleios.di.uoa.gr/ontologies/coastlineOntology.owl#Coastline>] {?c <http://strdf.di.uoa.gr/ontology#hasGeometry> ?cGeo}", "filter !bound(?c)"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}

	q2 := mustParse(t, `
SELECT ?x WHERE { { ?x a noa:Hotspot . } UNION { ?x a gag:Municipality . } }`)
	out2, err := NewEvaluator(clcFixture()).Explain(q2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "union\n") || strings.Count(out2, "branch") != 2 {
		t.Errorf("union explain:\n%s", out2)
	}
}

// TestPlanExecutionEquivalence cross-checks the planned execution against
// the same queries' known results on the spatial fixture (window scans
// and hash joins must not change the solution set).
func TestPlanExecutionEquivalence(t *testing.T) {
	src := clcFixture()
	res := runSelectSrc(t, src, `
SELECT ?h ?m WHERE {
  ?h a noa:Hotspot ;
     strdf:hasGeometry ?hGeo .
  ?m a gag:Municipality ;
     strdf:hasGeometry ?mGeo .
  FILTER( strdf:anyInteract(?hGeo, ?mGeo) ) .
}`)
	if len(res.Rows) != 2 {
		t.Fatalf("spatial join rows = %d, want 2", len(res.Rows))
	}

	// Force the hash-join path: a disconnected pattern under a large
	// intermediate result (every hotspot x every municipality).
	res2 := runSelectSrc(t, src, `
SELECT ?h ?p ?m WHERE {
  ?h a noa:Hotspot .
  ?m a gag:Municipality ; gag:hasPopulation ?p .
}`)
	if len(res2.Rows) != 6 {
		t.Fatalf("cross join rows = %d, want 6", len(res2.Rows))
	}
}

func runSelectSrc(t *testing.T, src Source, q string) *Result {
	t.Helper()
	parsed := mustParse(t, q)
	res, err := selectAll(NewEvaluator(src), parsed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSubSelectUnboundProjectionSurvivesJoin pins that a variable a
// sub-select projects but leaves unbound (here via OPTIONAL) must not be
// treated as certainly bound: a later join keyed on it (the hash path
// would probe with an unbound sentinel) has to fall back to runtime
// binding semantics instead of dropping the rows.
func TestSubSelectUnboundProjectionSurvivesJoin(t *testing.T) {
	s := rdf.NewStore()
	p := rdf.NewIRI("http://e/p")
	m := rdf.NewIRI("http://e/m")
	q := rdf.NewIRI("http://e/q")
	r := rdf.NewIRI("http://e/r")
	const n = 70 // past hashJoinMinRows
	for i := 0; i < n; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://e/s%d", i))
		s.Add(rdf.Triple{S: subj, P: p, O: rdf.NewIRI(fmt.Sprintf("http://e/o%d", i))})
		s.Add(rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://e/o%d", i)), P: m, O: rdf.NewIRI(fmt.Sprintf("http://e/mid%d", i))})
	}
	// Only one mid resolves to an x, and that x has two r-values.
	s.Add(rdf.Triple{S: rdf.NewIRI("http://e/mid0"), P: q, O: rdf.NewIRI("http://e/x0")})
	s.Add(rdf.Triple{S: rdf.NewIRI("http://e/x0"), P: r, O: rdf.NewIRI("http://e/y0")})
	s.Add(rdf.Triple{S: rdf.NewIRI("http://e/x0"), P: r, O: rdf.NewIRI("http://e/y1")})

	res := runSelectSrc(t, s, `
PREFIX e: <http://e/>
SELECT ?s ?x ?y WHERE {
  ?s e:p ?o .
  { SELECT ?o ?x WHERE { ?o e:m ?mid . OPTIONAL { ?mid e:q ?x } } }
  ?x e:r ?y .
}`)
	// Every row extends through ?x e:r ?y: the one row carrying ?x=x0
	// joins on it, and the 69 rows with ?x unbound scan the pattern and
	// bind ?x afresh — two r-triples each way, so 70 x 2 solutions. A
	// hash join keyed on a wrongly-"certain" ?x would return 2.
	if len(res.Rows) != 2*n {
		t.Fatalf("rows = %d, want %d", len(res.Rows), 2*n)
	}
}

// TestHashJoinMatchesBindJoin runs a connected join both ways over a
// dataset sized past the hash threshold and compares solution multisets.
func TestHashJoinMatchesBindJoin(t *testing.T) {
	s := rdf.NewStore()
	typ := rdf.NewIRI(rdf.RDFType)
	cls := rdf.NewIRI("http://e/Thing")
	link := rdf.NewIRI("http://e/linksTo")
	for i := 0; i < 200; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://e/s%d", i))
		s.Add(rdf.Triple{S: subj, P: typ, O: cls})
		s.Add(rdf.Triple{S: subj, P: link, O: rdf.NewIRI(fmt.Sprintf("http://e/s%d", (i+1)%200))})
	}
	q := mustParse(t, `
PREFIX e: <http://e/>
SELECT ?a ?b WHERE { ?a a e:Thing ; e:linksTo ?b . ?b a e:Thing . }`)
	res, err := selectAll(NewEvaluator(s), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 200 {
		t.Fatalf("rows = %d, want 200", len(res.Rows))
	}
	seen := map[string]bool{}
	for i := range res.Rows {
		k := res.at(i, "a").Value + "->" + res.at(i, "b").Value
		if seen[k] {
			t.Fatalf("duplicate solution %s", k)
		}
		seen[k] = true
	}
}
