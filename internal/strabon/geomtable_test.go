package strabon

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/stsparql"
)

// selfJoin pairs every geometry triple with those it interacts with:
// an R-tree window per candidate, and both geometries read by term ID —
// no query constant, so the table holds only the store's literals.
const selfJoin = `
SELECT ?h ?h2 WHERE {
  ?h strdf:hasGeometry ?g . ?h2 strdf:hasGeometry ?g2 .
  FILTER( strdf:anyInteract(?g, ?g2) )
}`

// TestGeometryParsedOncePerTerm: the store's geometry table holds one
// parse per distinct geometry literal — n geometry triples over k < n
// literals leave k entries after the load — and queries reading those
// geometries by ID, run beside a writer adding more triples over the
// same literals, add none.
func TestGeometryParsedOncePerTerm(t *testing.T) {
	const n, k = 12, 3
	group := func(i int) []rdf.Triple {
		return withTime(hotspotGroup(i, float64(10*(i%k))), fmt.Sprintf("2007-08-24T%02d:00:00", 8+i%4))
	}
	s := NewSharded(Config{Slices: 2})
	for i := 0; i < n; i++ {
		s.InsertAll(group(i))
	}
	if got := s.cache.Size(); got != k {
		t.Fatalf("after loading %d geometry triples over %d literals the table holds %d geometries", n, k, got)
	}
	res, err := runQuery(s, selfJoin)
	if err != nil {
		t.Fatal(err)
	}
	if want := k * (n / k) * (n / k); len(res.Rows) != want {
		t.Fatalf("self-join: %d rows, want %d", len(res.Rows), want)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := n; i < 2*n; i++ {
			s.InsertAll(group(i))
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := runQuery(s, selfJoin); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if got := s.cache.Size(); got != k {
		t.Fatalf("queries beside a writer over the same %d literals grew the table to %d", k, got)
	}
	if s.Stats().Geometries != k {
		t.Fatalf("Stats().Geometries = %d, want %d", s.Stats().Geometries, k)
	}
}

// TestGeometryWindowFollowsDeletes: the R-tree entry of a geometry
// triple goes with the triple — removed by an Update DELETE or a flush
// rule, both on the envelope the table parsed, while another triple
// over the same literal keeps its own — and comes back when the triple
// is inserted again. A literal whose WKT does not parse is never
// indexed, never enters the table, and errors wherever a query reads
// it.
func TestGeometryWindowFollowsDeletes(t *testing.T) {
	const stamp = "2007-08-24T12:00:00"
	at, _ := stsparql.ParseDateTime(stamp)
	a, b := withTime(hotspotGroup(1, 1), stamp), withTime(hotspotGroup(2, 1), stamp) // one literal
	bad := rdf.Triple{S: rdf.NewIRI("http://e/bad"), P: a[1].P, O: rdf.NewGeometry("POLYGON ((1 1, 2")}
	s := NewSharded(Config{Slices: 2})
	s.InsertAll(a, b)
	s.LoadTriples([]rdf.Triple{bad})
	if got := s.cache.Size(); got != 1 {
		t.Fatalf("table holds %d geometries, want the one well-formed literal", got)
	}
	all := geom.Envelope{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}
	hits := func(want ...rdf.Term) {
		t.Helper()
		res, err := runQuery(s, `SELECT ?h WHERE {
  ?h strdf:hasGeometry ?g .
  FILTER( strdf:anyInteract(?g, "POLYGON ((0 0, 3 0, 3 3, 0 3, 0 0))"^^strdf:WKT) )
}`)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, row := range res.Rows {
			got = append(got, row[0].Value)
		}
		var exp []string
		for _, h := range want {
			exp = append(exp, h.Value)
		}
		slices.Sort(got)
		if !slices.Equal(got, exp) {
			t.Fatalf("anyInteract answers %v, want %v", got, exp)
		}
		if n := windowHits(s, all); n != len(want) {
			t.Fatalf("R-tree holds %d entries, want %d", n, len(want))
		}
	}
	geomData := fmt.Sprintf("<%s> <%s> %q^^<%s>", a[1].S.Value, a[1].P.Value, a[1].O.Value, a[1].O.Datatype)
	update := func(req string) {
		t.Helper()
		if _, err := s.Update(req); err != nil {
			t.Fatal(err)
		}
	}
	hits(a[0].S, b[0].S)

	update("DELETE DATA { " + geomData + " }")
	hits(b[0].S)
	update("INSERT DATA { " + geomData + " }")
	hits(a[0].S, b[0].S)

	rule, err := stsparql.Prepare(`DELETE { ?h strdf:hasGeometry ?g } WHERE { ?h strdf:hasGeometry ?g }`, s.Namespaces(), "h")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyFlush(Flush{At: []time.Time{at}}, func(tx *FlushTx) error {
		plan, err := tx.Plan(rule, []stsparql.Row{{b[0].S}})
		if err == nil {
			tx.Apply(plan)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	hits(a[0].S)
	s.InsertAll(b)
	hits(a[0].S, b[0].S)

	// The malformed literal reads as its text, errors in every spatial
	// function, and is parsed into the table by no read.
	for _, c := range []struct{ q, want string }{
		{`SELECT ?g WHERE { <http://e/bad> strdf:hasGeometry ?g }`, "POLYGON ((1 1, 2"},
		{`SELECT (strdf:area(?g) AS ?a) WHERE { <http://e/bad> strdf:hasGeometry ?g }`, ""},
		{`SELECT ?h WHERE { ?h strdf:hasGeometry ?g . FILTER( !strdf:anyInteract(?g, ?g) ) }`, "no rows"},
	} {
		res, err := runQuery(s, c.q)
		if err != nil {
			t.Fatal(err)
		}
		got := "no rows"
		if len(res.Rows) == 1 {
			got = res.Rows[0][0].Value
		} else if len(res.Rows) > 1 {
			got = fmt.Sprint(res.Rows)
		}
		if got != c.want {
			t.Errorf("%s: got %q, want %q", c.q, got, c.want)
		}
	}
	if got := s.cache.Size(); got != 2 { // the literal and the query's constant
		t.Fatalf("table holds %d geometries, want 2", got)
	}
}
