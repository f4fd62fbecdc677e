package strabon

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/stsparql"
)

const fixtureTurtle = `
@prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .
@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .
@prefix coast: <http://teleios.di.uoa.gr/ontologies/coastlineOntology.owl#> .

noa:Hotspot_1 a noa:Hotspot ;
  noa:hasConfidence 1.0 ;
  strdf:hasGeometry "POLYGON ((2 2, 3 2, 3 3, 2 3, 2 2))"^^strdf:geometry .

noa:Hotspot_2 a noa:Hotspot ;
  noa:hasConfidence 0.5 ;
  strdf:hasGeometry "POLYGON ((20 20, 21 20, 21 21, 20 21, 20 20))"^^strdf:geometry .

coast:Coastline_1 a coast:Coastline ;
  strdf:hasGeometry "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"^^strdf:geometry .
`

// runQuery materialises src through the streaming path.
func runQuery(s *Store, src string) (*stsparql.Result, error) {
	return MaterialiseQuery(context.Background(), s, src)
}

// oracleQuery evaluates src over st's members through a source that
// offers only statistics — no R-tree window, no time index: the plain
// scan-and-filter engine the indexed store's answers are held to. It
// returns the rows and the plan they ran on.
func oracleQuery(t *testing.T, st *Store, src string) (*stsparql.Result, string) {
	t.Helper()
	q, err := stsparql.Parse(src, st.Namespaces())
	if err != nil {
		t.Fatal(err)
	}
	defer st.lockAllRead()()
	ev := stsparql.NewEvaluatorWithCache(struct{ stsparql.StatSource }{st.viewAll()}, st.GeomCache())
	plan, err := ev.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ev.RunCompiled(ev.Compile(q))
	if err != nil {
		t.Fatal(err)
	}
	res := stsparql.ReadAll(cur)
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	return res, plan
}

// at returns row i's term for variable v of a result.
func at(res *stsparql.Result, i int, v string) rdf.Term { return res.Rows[i][res.Col(v)] }

// assertWindowPlans checks that the indexed store plans src with an
// R-tree window and the oracle's plan does not.
func assertWindowPlans(t *testing.T, st *Store, src, oraclePlan string) {
	t.Helper()
	plan, err := st.Explain(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "window") {
		t.Fatalf("indexed store planned without a window:\n%s", plan)
	}
	if strings.Contains(oraclePlan, "window") {
		t.Fatalf("oracle planned a window:\n%s", oraclePlan)
	}
}

func TestLoadTurtleAndQuery(t *testing.T) {
	s := New()
	n, err := s.LoadTurtle(fixtureTurtle)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("loaded %d triples, want 8", n)
	}
	res, err := runQuery(s, `SELECT ?h WHERE { ?h a noa:Hotspot . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestSpatialQueryUsesIndex(t *testing.T) {
	s := New()
	if _, err := s.LoadTurtle(fixtureTurtle); err != nil {
		t.Fatal(err)
	}
	res, err := runQuery(s, `
SELECT ?h WHERE {
  ?h a noa:Hotspot ;
     strdf:hasGeometry ?g .
  FILTER( strdf:anyInteract(?g, "POLYGON ((1 1, 4 1, 4 4, 1 4, 1 1))"^^strdf:WKT) )
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if s.Stats().IndexHits == 0 {
		t.Fatal("spatial index was not consulted")
	}
}

func TestIndexDisabledGivesSameResults(t *testing.T) {
	query := `
SELECT ?h ?c WHERE {
  ?h a noa:Hotspot ; strdf:hasGeometry ?hg .
  ?c a coast:Coastline ; strdf:hasGeometry ?cg .
  FILTER( strdf:anyInteract(?hg, ?cg) )
}`
	indexed := New()
	if _, err := indexed.LoadTurtle(fixtureTurtle); err != nil {
		t.Fatal(err)
	}
	r1, err := runQuery(indexed, query)
	if err != nil {
		t.Fatal(err)
	}
	hits := indexed.Stats().IndexHits
	r2, plan := oracleQuery(t, indexed, query)
	if len(r1.Rows) != len(r2.Rows) || len(r1.Rows) != 1 {
		t.Fatalf("indexed %d vs plain %d rows", len(r1.Rows), len(r2.Rows))
	}
	if indexed.Stats().IndexHits != hits {
		t.Fatal("the index-free oracle consulted the index")
	}
	assertWindowPlans(t, indexed, query, plan)
}

func TestUpdateMaintainsIndex(t *testing.T) {
	s := New()
	if _, err := s.LoadTurtle(fixtureTurtle); err != nil {
		t.Fatal(err)
	}
	// Delete the sea hotspot entirely.
	stats, err := s.Update(`
DELETE { ?h ?p ?o }
WHERE {
  ?h a noa:Hotspot ;
     strdf:hasGeometry ?hGeo ;
     ?p ?o .
  OPTIONAL {
    ?c a coast:Coastline ; strdf:hasGeometry ?cGeo .
    FILTER( strdf:anyInteract(?hGeo, ?cGeo) )
  }
  FILTER( !bound(?c) )
}`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Deleted != 3 {
		t.Fatalf("deleted = %d, want 3", stats.Deleted)
	}
	// The index must no longer return the deleted geometry.
	if found := windowHits(s, geom.Envelope{MinX: 19, MinY: 19, MaxX: 22, MaxY: 22}); found != 0 {
		t.Fatalf("index still holds %d deleted entries", found)
	}
	// The remaining hotspot and the coastline must still be indexed.
	if found := windowHits(s, geom.Envelope{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5}); found != 2 {
		t.Fatalf("index returned %d entries, want hotspot + coastline", found)
	}
}

// windowHits counts the geometry triples the members' R-trees return
// for a window.
func windowHits(s *Store, env geom.Envelope) int {
	defer s.lockAllRead()()
	found := 0
	s.viewAll().MatchGeometryWindowIDs(env, func(rdf.EncodedTriple) bool { found++; return true })
	return found
}

func TestInsertedGeometriesBecomeIndexed(t *testing.T) {
	s := New()
	_, err := s.Update(`
INSERT DATA {
  noa:h9 a noa:Hotspot ;
    strdf:hasGeometry "POLYGON ((5 5, 6 5, 6 6, 5 6, 5 5))"^^strdf:geometry .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if found := windowHits(s, geom.Envelope{MinX: 4, MinY: 4, MaxX: 7, MaxY: 7}); found != 1 {
		t.Fatalf("found %d indexed geometries, want 1", found)
	}
}

func TestAskThroughQuery(t *testing.T) {
	s := New()
	if _, err := s.LoadTurtle(fixtureTurtle); err != nil {
		t.Fatal(err)
	}
	res, err := runQuery(s, `ASK { ?h a noa:Hotspot . }`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := at(res, 0, "ask").Bool(); !v {
		t.Fatal("ask should be true")
	}
}

func TestQueryRejectsUpdate(t *testing.T) {
	s := New()
	if _, err := runQuery(s, `DELETE WHERE { ?s ?p ?o }`); err == nil {
		t.Fatal("Query should reject updates")
	}
	if _, err := s.Update(`SELECT ?s WHERE { ?s ?p ?o }`); err == nil {
		t.Fatal("Update should reject queries")
	}
}

func TestLargeSpatialJoinCorrectness(t *testing.T) {
	// Build a grid of polygons and verify the index path returns exactly
	// the brute-force answer for a window join.
	indexed := New()
	var triples []rdf.Triple
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			subj := rdf.NewIRI(fmt.Sprintf("http://e/cell_%d_%d", i, j))
			wkt := fmt.Sprintf("POLYGON ((%d %d, %d %d, %d %d, %d %d, %d %d))",
				i, j, i+1, j, i+1, j+1, i, j+1, i, j)
			triples = append(triples,
				rdf.Triple{S: subj, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI("http://e/Cell")},
				rdf.Triple{S: subj, P: rdf.NewIRI("http://strdf.di.uoa.gr/ontology#hasGeometry"), O: rdf.NewGeometry(wkt)},
			)
		}
	}
	indexed.LoadTriples(triples)
	q := `
PREFIX e: <http://e/>
SELECT ?c WHERE {
  ?c a e:Cell ; strdf:hasGeometry ?g .
  FILTER( strdf:within(?g, "POLYGON ((4.5 4.5, 10.5 4.5, 10.5 10.5, 4.5 10.5, 4.5 4.5))"^^strdf:WKT) )
}`
	r1, err := runQuery(indexed, q)
	if err != nil {
		t.Fatal(err)
	}
	r2, plan := oracleQuery(t, indexed, q)
	// Cells fully inside (4.5..10.5)^2: x,y in 5..9 => 5x5 = 25.
	if len(r1.Rows) != 25 || len(r2.Rows) != 25 {
		t.Fatalf("indexed=%d plain=%d, want 25", len(r1.Rows), len(r2.Rows))
	}
	if fmt.Sprint(sortedCol(r1, "c")) != fmt.Sprint(sortedCol(r2, "c")) {
		t.Fatalf("indexed and plain cells differ:\n%v\n%v", sortedCol(r1, "c"), sortedCol(r2, "c"))
	}
	if indexed.Stats().IndexHits == 0 {
		t.Fatal("index unused in indexed store")
	}
	assertWindowPlans(t, indexed, q, plan)
}

// sortedCol returns the values of column v, sorted.
func sortedCol(res *stsparql.Result, v string) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = row[res.Col(v)].Value
	}
	sort.Strings(out)
	return out
}

func TestGeometryCacheGrows(t *testing.T) {
	s := New()
	if _, err := s.LoadTurtle(fixtureTurtle); err != nil {
		t.Fatal(err)
	}
	_, err := runQuery(s, `
SELECT ?h WHERE {
  ?h a noa:Hotspot ; strdf:hasGeometry ?g .
  FILTER( strdf:area(?g) > 0.5 )
}`)
	if err != nil {
		t.Fatal(err)
	}
	if s.cache.Size() == 0 {
		t.Fatal("geometry cache empty after spatial query")
	}
	before := s.cache.Size()
	if _, err := runQuery(s, `
SELECT ?h WHERE {
  ?h a noa:Hotspot ; strdf:hasGeometry ?g .
  FILTER( strdf:area(?g) > 0.5 )
}`); err != nil {
		t.Fatal(err)
	}
	if s.cache.Size() != before {
		t.Fatalf("cache grew on repeat query: %d -> %d", before, s.cache.Size())
	}
}

func TestMunicipalityAssociationPattern(t *testing.T) {
	// The "Municipalities" refinement op: annotate each hotspot with the
	// municipality containing its centre.
	s := New()
	ttl := fixtureTurtle + `
@prefix gag: <http://teleios.di.uoa.gr/ontologies/gagOntology.owl#> .
gag:munA a gag:Municipality ;
  strdf:hasGeometry "POLYGON ((0 0, 5 0, 5 10, 0 10, 0 0))"^^strdf:geometry .
gag:munB a gag:Municipality ;
  strdf:hasGeometry "POLYGON ((5 0, 10 0, 10 10, 5 10, 5 0))"^^strdf:geometry .
`
	if _, err := s.LoadTurtle(ttl); err != nil {
		t.Fatal(err)
	}
	stats, err := s.Update(`
INSERT { ?h noa:isInMunicipality ?m }
WHERE {
  ?h a noa:Hotspot ; strdf:hasGeometry ?hg .
  ?m a gag:Municipality ; strdf:hasGeometry ?mg .
  FILTER( strdf:anyInteract(?hg, ?mg) )
}`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Inserted != 1 {
		t.Fatalf("inserted = %d, want 1 (only the land hotspot)", stats.Inserted)
	}
	res, err := runQuery(s, `SELECT ?m WHERE { noa:Hotspot_1 noa:isInMunicipality ?m . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if got := at(res, 0, "m").Value; got != "http://teleios.di.uoa.gr/ontologies/gagOntology.owl#munA" {
		t.Fatalf("municipality = %q", got)
	}
}

func TestStatsCounting(t *testing.T) {
	s := New()
	if _, err := s.LoadTurtle(fixtureTurtle); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := runQuery(s, `SELECT ?h WHERE { ?h a noa:Hotspot . }`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Update(`INSERT DATA { noa:y a noa:Hotspot . }`); err != nil {
		t.Fatal(err)
	}
	// Every write path counts the triples it lands, an update's too.
	st := s.Stats()
	if st.Queries != 3 || st.Updates != 1 || st.TriplesLoaded != 9 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAreaFunctionThroughEndpoint(t *testing.T) {
	s := New()
	if _, err := s.LoadTurtle(fixtureTurtle); err != nil {
		t.Fatal(err)
	}
	res, err := runQuery(s, `
SELECT ?h (strdf:area(?g) AS ?a) WHERE { ?h a noa:Hotspot ; strdf:hasGeometry ?g . }`)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		a, ok := at(res, i, "a").Float()
		if !ok || math.Abs(a-1) > 1e-9 {
			t.Fatalf("area = %v", at(res, i, "a"))
		}
	}
}

func hotspotGroup(i int, x float64) []rdf.Triple {
	s := rdf.NewIRI(fmt.Sprintf("http://e/batch_h%d", i))
	return []rdf.Triple{
		{S: s, P: rdf.NewIRI(rdf.RDFType),
			O: rdf.NewIRI("http://teleios.di.uoa.gr/ontologies/noaOntology.owl#Hotspot")},
		{S: s, P: rdf.NewIRI("http://strdf.di.uoa.gr/ontology#hasGeometry"),
			O: rdf.NewGeometry(fmt.Sprintf(
				"POLYGON ((%g 1, %g 1, %g 2, %g 2, %g 1))", x, x+1, x+1, x, x))},
	}
}

// TestInsertAllMatchesLoadTriples pins that the batched write path is
// observationally identical to per-triple loading: same triple count,
// same spatial query results, duplicate suppression included.
func TestInsertAllMatchesLoadTriples(t *testing.T) {
	batched, plain := New(), New()
	var groups [][]rdf.Triple
	for i := 0; i < 40; i++ {
		groups = append(groups, hotspotGroup(i, float64(i)))
	}
	counts := batched.InsertAll(groups...)
	for i, g := range groups {
		if n := plain.LoadTriples(g); n != counts[i] {
			t.Fatalf("group %d: batched %d vs plain %d", i, counts[i], n)
		}
	}
	// Re-inserting must count zero new triples on both paths.
	if again := batched.InsertAll(groups[0]); again[0] != 0 {
		t.Fatalf("duplicate batch inserted %d", again[0])
	}
	if batched.Len() != plain.Len() {
		t.Fatalf("len %d vs %d", batched.Len(), plain.Len())
	}
	q := `
SELECT ?h WHERE {
  ?h a noa:Hotspot ; strdf:hasGeometry ?g .
  FILTER( strdf:anyInteract(?g, "POLYGON ((10 0, 20 0, 20 3, 10 3, 10 0))"^^strdf:WKT) )
}`
	rb, err := runQuery(batched, q)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := runQuery(plain, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Rows) == 0 || len(rb.Rows) != len(rp.Rows) {
		t.Fatalf("spatial rows: batched %d vs plain %d", len(rb.Rows), len(rp.Rows))
	}
}

// seaRule deletes hotspots that touch no coastline; prepared with ?h as
// its seed it only looks at the seeded subjects.
const seaRule = `
DELETE { ?h ?p ?o }
WHERE {
  ?h a noa:Hotspot ; strdf:hasGeometry ?g .
  OPTIONAL {
    ?c a coast:Coastline ; strdf:hasGeometry ?cg .
    FILTER( strdf:anyInteract(?g, ?cg) )
  }
  FILTER( !bound(?c) )
  ?h ?p ?o .
}`

// withTime stamps a hotspot group with an acquisition time, so the store
// routes it to the slice owning that time.
func withTime(g []rdf.Triple, at string) []rdf.Triple {
	return append(g, rdf.Triple{S: g[0].S,
		P: rdf.NewIRI("http://teleios.di.uoa.gr/ontologies/noaOntology.owl#hasAcquisitionDateTime"),
		O: rdf.NewDateTime(at)})
}

// TestApplyFlushIsOneTransition pins the flush contract: the groups and
// every rule effect land under one hold, the generation of the slice
// they land in advances exactly once however many triples moved (the
// static store's not at all), a seeded rule touches the seeded subjects
// only, and the effect equals the same delete run as an ad-hoc Update.
func TestApplyFlushIsOneTransition(t *testing.T) {
	const stamp = "2007-08-25T10:00:00"
	at, _ := stsparql.ParseDateTime(stamp)
	earlier := withTime(hotspotGroup(6, 50), stamp) // in the sea, stored before the flushes
	mk := func() *Store {
		s := New()
		if _, err := s.LoadTurtle(`
@prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .
@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .
@prefix coast: <http://teleios.di.uoa.gr/ontologies/coastlineOntology.owl#> .

noa:Hotspot_1 a noa:Hotspot ;
  strdf:hasGeometry "POLYGON ((2 2, 3 2, 3 3, 2 3, 2 2))"^^strdf:geometry .

coast:Coastline_1 a coast:Coastline ;
  strdf:hasGeometry "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"^^strdf:geometry .
`); err != nil {
			t.Fatal(err)
		}
		s.InsertAll(earlier)
		return s
	}
	a, b := mk(), mk()
	inSea := withTime(hotspotGroup(7, 40), stamp) // far from the coastline
	a.InsertAll(inSea)
	stA, err := a.Update(seaRule)
	if err != nil {
		t.Fatal(err)
	}

	rule, err := stsparql.Prepare(seaRule, b.Namespaces(), "h")
	if err != nil {
		t.Fatal(err)
	}
	seed := func(subjects ...rdf.Term) []stsparql.Row {
		var rows []stsparql.Row
		for _, s := range subjects {
			rows = append(rows, stsparql.Row{s})
		}
		return rows
	}
	gens := func() (static, slice uint64) {
		ss := b.ShardStats()
		return ss[0].Gen, ss[1].Gen
	}
	static, gen := gens()
	deleted := 0
	onLand := withTime(hotspotGroup(8, 3), stamp) // inside the coastline polygon
	a.InsertAll(onLand)
	err = b.ApplyFlush(Flush{Groups: [][]rdf.Triple{inSea, onLand}}, func(tx *FlushTx) error {
		if tx.Inserted[0] != len(inSea) || tx.Inserted[1] != len(onLand) {
			t.Errorf("Inserted = %v, want [%d %d]", tx.Inserted, len(inSea), len(onLand))
		}
		// Seeded with the flushed subjects only: the earlier hotspot is
		// in the sea too, but it is not part of this flush.
		plan, err := tx.Plan(rule, seed(inSea[0].S, onLand[0].S))
		if err != nil {
			return err
		}
		deleted += tx.Apply(plan).Deleted
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if deleted != len(inSea) {
		t.Fatalf("seeded rule deleted %d triples, want the flushed hotspot's %d", deleted, len(inSea))
	}
	if gotStatic, got := gens(); got != gen+1 || gotStatic != static {
		t.Fatalf("generations moved static %d -> %d, slice %d -> %d over one flush, want slice +1 only", static, gotStatic, gen, got)
	}
	// An empty seed does no work and leaves the generation alone.
	_, gen = gens()
	if err := b.ApplyFlush(Flush{At: []time.Time{at}}, func(tx *FlushTx) error {
		plan, err := tx.Plan(rule, nil)
		if err == nil {
			tx.Apply(plan)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, got := gens(); got != gen {
		t.Fatalf("an empty flush moved the generation %d -> %d", gen, got)
	}
	// Seeding the remaining sea hotspot converges on the Update's state.
	if err := b.ApplyFlush(Flush{At: []time.Time{at}}, func(tx *FlushTx) error {
		plan, err := tx.Plan(rule, seed(earlier[0].S))
		if err != nil {
			return err
		}
		deleted += tx.Apply(plan).Deleted
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if stA.Deleted == 0 || stA.Deleted != deleted || a.Len() != b.Len() {
		t.Fatalf("Update deleted %d (len %d), seeded flushes deleted %d (len %d)",
			stA.Deleted, a.Len(), deleted, b.Len())
	}
}

// TestConcurrentEndpointSmoke hammers the endpoint from many goroutines —
// queries, updates and batch inserts at once. Run under -race it
// validates the store's locking discipline.
func TestConcurrentEndpointSmoke(t *testing.T) {
	s := New()
	if _, err := s.LoadTurtle(fixtureTurtle); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch w % 3 {
				case 0:
					if _, err := runQuery(s, `SELECT ?h WHERE { ?h a noa:Hotspot . }`); err != nil {
						t.Error(err)
						return
					}
				case 1:
					s.InsertAll(hotspotGroup(1000+w*100+i, float64(w*30+i)))
				default:
					if _, err := s.Update(fmt.Sprintf(`
INSERT { ?h noa:hasConfidence %d.0 }
WHERE  { ?h a noa:Hotspot . FILTER( strdf:area("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))"^^strdf:WKT) > 2 ) }`, w)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() == 0 {
		t.Fatal("store emptied")
	}
}

// TestMembersShareOneDictionary: every member of a store, every view
// over them and the overlay a flush refines over encode into the
// store's one dictionary, so IDs compare across all of them and
// DictStats is the exact distinct-term count whatever the slice count.
func TestMembersShareOneDictionary(t *testing.T) {
	s := NewSharded(Config{Slices: 4})
	if _, err := s.LoadTurtle(fixtureTurtle); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.InsertAll(withTime(hotspotGroup(i, float64(i)), fmt.Sprintf("2007-08-24T1%d:00:00", i)))
	}
	release := s.lockAllRead()
	defer release()
	o, _ := newOverlay(s.viewAll(), nil)
	for _, src := range []stsparql.Source{s.static, s.slices[0], s.slices[3], s.view(2), s.viewAll(), o} {
		if src.Dict() != s.dict {
			t.Fatalf("%T encodes into a dictionary of its own", src)
		}
	}
	for i, m := range s.members {
		if m.triples.Len() == 0 {
			t.Fatalf("member %d holds nothing: the fixture does not reach every member", i)
		}
	}
}
