package shard

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/products"
	"repro/internal/rdf"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// The equivalence suite: a store of 2 or 4 slices must answer every
// corpus query row-for-row identically to a one-slice store over the
// same data (up to ORDER-BY-mandated order) — the acceptance bar of the
// router. These tests drive strabon.Store through its exported API,
// under the names the frozen benchmark module also uses (see shard.go).

var day = time.Date(2007, 8, 25, 0, 0, 0, 0, time.UTC)

func iri(s string) rdf.Term { return rdf.NewIRI(s) }

const (
	nsNOA   = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#"
	nsGAG   = "http://teleios.di.uoa.gr/ontologies/gagOntology.owl#"
	nsCoast = "http://teleios.di.uoa.gr/ontologies/coastlineOntology.owl#"
	nsStRDF = "http://strdf.di.uoa.gr/ontology#"
)

// staticTriples builds the reference datasets: municipalities tiling the
// [0,20]x[0,10] region, and one coastline polygon.
func staticTriples() []rdf.Triple {
	var out []rdf.Triple
	add := func(s, p string, o rdf.Term) {
		out = append(out, rdf.Triple{S: iri(s), P: iri(p), O: o})
	}
	for i := 0; i < 4; i++ {
		m := fmt.Sprintf("http://example.org/mun%d", i)
		x := float64(i * 5)
		add(m, rdf.RDFType, iri(nsGAG+"Municipality"))
		add(m, nsStRDF+"hasGeometry", rdf.NewGeometry(fmt.Sprintf(
			"POLYGON ((%g 0, %g 0, %g 10, %g 10, %g 0))", x, x+5, x+5, x, x)))
		add(m, nsGAG+"hasPopulation", rdf.NewInteger(int64(1000*(i+1))))
	}
	add("http://example.org/coast1", rdf.RDFType, iri(nsCoast+"Coastline"))
	add("http://example.org/coast1", nsStRDF+"hasGeometry",
		rdf.NewGeometry("POLYGON ((0 0, 20 0, 20 8, 0 8, 0 0))"))
	return out
}

// fixtureProducts builds one product per 15-minute acquisition from
// 10:00 to 13:45 — 16 acquisitions spanning four 1h buckets — with
// hotspots on a small set of recurring locations (so per-location
// groups span shards).
func fixtureProducts() []*products.Product {
	var out []*products.Product
	for i := 0; i < 16; i++ {
		at := day.Add(10*time.Hour + time.Duration(i)*15*time.Minute)
		p := &products.Product{Sensor: "MSG1", Chain: "test", AcquiredAt: at}
		for j := 0; j <= i%3; j++ {
			lon := float64((i + 4*j) % 5 * 4)
			conf := 0.5
			if (i+j)%2 == 0 {
				conf = 1.0
			}
			p.Hotspots = append(p.Hotspots, products.Hotspot{
				ID:           fmt.Sprintf("%d_%d", i, j),
				Geometry:     geom.NewSquare(lon+1, 5, 0.5),
				Confidence:   conf,
				AcquiredAt:   at,
				Sensor:       "MSG1",
				Chain:        "test",
				Producer:     "noa",
				Confirmation: conf >= 1.0,
			})
		}
		out = append(out, p)
	}
	return out
}

// runQuery materialises src through the streaming path.
func runQuery(s *Store, src string) (*stsparql.Result, error) {
	return strabon.MaterialiseQuery(context.Background(), s, src)
}

// at returns row i's term for variable v of a result.
func at(res *stsparql.Result, i int, v string) rdf.Term { return res.Rows[i][res.Col(v)] }

// loadFixture populates a store, whatever its slice count, identically.
func loadFixture(st *Store) {
	st.LoadTriples(staticTriples())
	for _, p := range fixtureProducts() {
		st.InsertAll(p.Triples())
	}
}

func newSharded(slices int) *Store {
	return New(Config{Slices: slices, Width: time.Hour, Epoch: day})
}

// corpus lists the equivalence queries. ordered marks queries whose
// exact row sequence is ORDER-BY-determined (compared positionally);
// everything else compares as a multiset.
var corpus = []struct {
	name    string
	query   string
	ordered bool
}{
	{"window-select", `
SELECT ?h ?g WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?g .
  FILTER( str(?at) >= "2007-08-25T10:00:00" )
  FILTER( str(?at) <= "2007-08-25T10:45:00" )
}`, false},
	{"spatial-join-municipality", `
SELECT ?h ?m WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?hg .
  ?m a gag:Municipality ; strdf:hasGeometry ?mg .
  FILTER( str(?at) = "2007-08-25T11:00:00" )
  FILTER( strdf:anyInteract(?hg, ?mg) )
}`, false},
	{"optional-confirmation", `
SELECT ?h ?cf WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  OPTIONAL { ?h noa:hasConfirmation ?cf }
  FILTER( str(?at) >= "2007-08-25T10:30:00" )
  FILTER( str(?at) <= "2007-08-25T11:30:00" )
}`, false},
	{"distinct-sensor", `
SELECT DISTINCT ?s WHERE { ?h a noa:Hotspot ; noa:isDerivedFromSensor ?s . }`, false},
	{"order-limit-offset", `
SELECT ?h ?at WHERE { ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at . }
ORDER BY DESC(str(?at)) ?h LIMIT 7 OFFSET 3`, true},
	{"order-all", `
SELECT ?h ?at WHERE { ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at . }
ORDER BY ASC(str(?at)) ?h`, true},
	{"aggregate-by-sensor", `
SELECT ?s (COUNT(?h) AS ?n) (AVG(?c) AS ?avgc) (MAX(str(?at)) AS ?last) WHERE {
  ?h a noa:Hotspot ; noa:isDerivedFromSensor ?s ;
     noa:hasConfidence ?c ; noa:hasAcquisitionDateTime ?at .
} GROUP BY ?s`, false},
	{"group-location-having", `
SELECT ?g (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?g .
} GROUP BY ?g HAVING (COUNT(?h) >= 3)`, false},
	{"count-star-window", `
SELECT (COUNT(*) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  FILTER( str(?at) >= "2007-08-25T13:00:00" )
}`, false},
	{"count-star-empty-window", `
SELECT (COUNT(*) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  FILTER( str(?at) >= "2007-08-25T20:00:00" )
  FILTER( str(?at) <= "2007-08-25T21:00:00" )
}`, false},
	{"union-confirmations", `
SELECT ?h WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  { ?h noa:hasConfirmation noa:confirmed } UNION { ?h noa:hasConfirmation noa:unconfirmed }
}`, false},
	{"static-only", `
SELECT ?m ?pop WHERE { ?m a gag:Municipality ; gag:hasPopulation ?pop . }`, false},
	{"full-scan", `
SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`, false},
	{"grouped-subselect", `
SELECT ?h ?u WHERE {
  { SELECT ?h (COUNT(?p) AS ?u) WHERE {
      ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; ?p ?o .
    } GROUP BY ?h }
}`, false},
	{"select-star", `
SELECT * WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . }`, false},
	// Two slice subjects joined through a shared object value: their
	// triples may live in different slices, so this must take the union
	// view (fanning out silently dropped cross-slice pairs before the
	// single-anchor rule).
	{"cross-acquisition-join", `
SELECT ?h1 ?h2 WHERE {
  ?h1 noa:isDerivedFromSensor ?s .
  ?h2 noa:isDerivedFromSensor ?s .
}`, false},
	// A sub-select that does NOT project the anchor: at runtime the
	// inner ?h is a fresh variable (the sub-select exports only ?c), so
	// the outer join is a cross product pairing hotspots with every
	// confidence value — including across slices. Must take the union
	// view (fanning out silently dropped the cross-slice pairs before
	// the projection guard).
	{"subselect-unprojected-anchor", `
SELECT ?h ?c WHERE {
  ?h a noa:Hotspot .
  { SELECT ?c WHERE { ?h noa:hasConfidence ?c } }
}`, false},
	// Same hole through grouping: the anchor is a GROUP BY key but not
	// projected, so the per-group counts cross-join with the outer rows.
	{"subselect-grouped-unprojected-anchor", `
SELECT ?h ?u WHERE {
  ?h a noa:Hotspot .
  { SELECT (COUNT(?p) AS ?u) WHERE {
      ?h a noa:Hotspot ; ?p ?o .
    } GROUP BY ?h }
}`, false},
	// Disjoint windows on two different time variables (of two
	// different subjects): conflating them into one window pruned this
	// to zero shards and returned nothing.
	// The aggregate shapes, pinned before the aggregate became one
	// ID-row path: a computed key, DISTINCT aggregates, per-group
	// AVG/MIN/MAX, ordering and slicing over groups, HAVING arithmetic,
	// DISTINCT over aggregates, an unbound key and empty inputs.
	{"group-computed-key", `
SELECT ?cf (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:hasConfirmation ?cf .
} GROUP BY (str(?cf))`, false},
	{"count-distinct-star", `
SELECT (COUNT(DISTINCT *) AS ?n) (COUNT(*) AS ?all) WHERE {
  ?h a noa:Hotspot .
  { ?h noa:hasConfirmation ?c } UNION { ?h noa:hasConfirmation ?c }
}`, false},
	{"count-distinct-var", `
SELECT ?cf (COUNT(DISTINCT ?g) AS ?locs) WHERE {
  ?h a noa:Hotspot ; noa:hasConfirmation ?cf ; strdf:hasGeometry ?g .
} GROUP BY ?cf`, false},
	{"avg-min-max-per-group", `
SELECT ?g (AVG(?c) AS ?avg) (MIN(?c) AS ?lo) (MAX(str(?at)) AS ?last) WHERE {
  ?h a noa:Hotspot ; strdf:hasGeometry ?g ;
     noa:hasConfidence ?c ; noa:hasAcquisitionDateTime ?at .
} GROUP BY ?g`, false},
	{"group-order-limit-offset", `
SELECT ?at (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
} GROUP BY ?at ORDER BY DESC(?n) ?at LIMIT 3 OFFSET 1`, true},
	{"having-arith-computed-projection", `
SELECT ?g (COUNT(?h) * 2 AS ?twice) WHERE {
  ?h a noa:Hotspot ; strdf:hasGeometry ?g .
} GROUP BY ?g HAVING (COUNT(?h) + 1 > 3)`, false},
	{"distinct-count-per-time", `
SELECT DISTINCT (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
} GROUP BY ?at`, false},
	{"group-unbound-key", `
SELECT ?c (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot .
  OPTIONAL { ?h noa:hasConfidence ?c . FILTER( ?c > 0.7 ) }
} GROUP BY ?c`, false},
	{"group-empty-input", `
SELECT ?g (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?g .
  FILTER( str(?at) >= "2007-08-25T20:00:00" )
} GROUP BY ?g`, false},
	{"ungrouped-empty-sum-min", `
SELECT (SUM(?c) AS ?s) (MIN(?c) AS ?lo) (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:hasConfidence ?c ; noa:hasAcquisitionDateTime ?at .
  FILTER( str(?at) >= "2007-08-25T20:00:00" )
}`, false},
	// SELECT * fanned out over slices whose headers differ: the
	// OPTIONAL binds ?g only east of x=16, which the 10:xx acquisitions
	// never reach, so a slice holding only those reports no ?g column.
	{"select-star-optional", `
SELECT * WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  OPTIONAL { ?h strdf:hasGeometry ?g .
    FILTER( strdf:anyInteract(?g, "POLYGON ((16 0, 20 0, 20 10, 16 10, 16 0))"^^strdf:WKT) ) }
  FILTER( str(?at) >= "2007-08-25T10:00:00" )
  FILTER( str(?at) <= "2007-08-25T11:45:00" )
}`, false},
	{"select-star-optional-ordered", `
SELECT * WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  OPTIONAL { ?h strdf:hasGeometry ?g .
    FILTER( strdf:anyInteract(?g, "POLYGON ((16 0, 20 0, 20 10, 16 10, 16 0))"^^strdf:WKT) ) }
  FILTER( str(?at) >= "2007-08-25T10:00:00" )
  FILTER( str(?at) <= "2007-08-25T11:45:00" )
} ORDER BY DESC(?g) ?at ?h`, true},
	{"disjoint-windows-two-anchors", `
SELECT ?h1 ?h2 WHERE {
  ?h1 a noa:Hotspot ; noa:hasAcquisitionDateTime ?t1 .
  ?h2 a noa:Hotspot ; noa:hasAcquisitionDateTime ?t2 .
  FILTER( str(?t1) >= "2007-08-25T10:00:00" )
  FILTER( str(?t1) <= "2007-08-25T10:15:00" )
  FILTER( str(?t2) >= "2007-08-25T13:00:00" )
  FILTER( str(?t2) <= "2007-08-25T13:15:00" )
}`, false},
}

var askCorpus = []struct {
	name  string
	query string
	want  bool
}{
	{"ask-hit", `ASK { ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  FILTER( str(?at) = "2007-08-25T12:00:00" ) }`, true},
	{"ask-miss", `ASK { ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  FILTER( str(?at) = "2007-08-25T23:00:00" ) }`, false},
}

// planCount counts the plans an Explain output renders: the root
// operator lines, "select" or "ask", at the start of a line.
func planCount(explain string) int {
	n := 0
	for _, line := range strings.Split(explain, "\n") {
		if line == "select" || line == "ask" {
			n++
		}
	}
	return n
}

// renderRows canonicalises a result for comparison.
func renderRows(res *stsparql.Result) ([]string, []string) {
	vars := append([]string(nil), res.Vars...)
	sort.Strings(vars)
	rows := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		var b strings.Builder
		for _, v := range vars {
			if t := row[res.Col(v)]; !t.IsZero() {
				fmt.Fprintf(&b, "%s=%s|", v, t.String())
			} else {
				fmt.Fprintf(&b, "%s=_|", v)
			}
		}
		rows[i] = b.String()
	}
	return vars, rows
}

func assertEquivalent(t *testing.T, name string, want, got *stsparql.Result, ordered bool) {
	t.Helper()
	wantVars, wantRows := renderRows(want)
	gotVars, gotRows := renderRows(got)
	if strings.Join(wantVars, ",") != strings.Join(gotVars, ",") {
		t.Fatalf("%s: vars mismatch: want=%v got=%v", name, wantVars, gotVars)
	}
	if !ordered {
		sort.Strings(wantRows)
		sort.Strings(gotRows)
	}
	if len(wantRows) != len(gotRows) {
		t.Fatalf("%s: row count mismatch: want=%d got=%d", name, len(wantRows), len(gotRows))
	}
	for i := range wantRows {
		if wantRows[i] != gotRows[i] {
			t.Fatalf("%s: row %d mismatch:\nwant: %s\ngot:  %s", name, i, wantRows[i], gotRows[i])
		}
	}
}

func TestShardEquivalence(t *testing.T) {
	one := strabon.New()
	loadFixture(one)
	for _, slices := range []int{1, 2, 4} {
		sh := newSharded(slices)
		loadFixture(sh)
		t.Run(fmt.Sprintf("slices=%d", slices), func(t *testing.T) {
			for _, tc := range corpus {
				want, err := runQuery(one, tc.query)
				if err != nil {
					t.Fatalf("%s: one-slice store: %v", tc.name, err)
				}
				got, err := runQuery(sh, tc.query)
				if err != nil {
					t.Fatalf("%s: sharded store: %v", tc.name, err)
				}
				assertEquivalent(t, tc.name, want, got, tc.ordered)
			}
			for _, tc := range askCorpus {
				got, err := runQuery(sh, tc.query)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if len(got.Rows) != 1 {
					t.Fatalf("%s: want 1 ask row, got %d", tc.name, len(got.Rows))
				}
				verdict := at(got, 0, "ask").Value == "true"
				if verdict != tc.want {
					t.Fatalf("%s: ask=%v want %v", tc.name, verdict, tc.want)
				}
			}
		})
	}
}

// TestCursorHeaderFinalAtOpen pins what positional rows rest on: a
// cursor's header is final when it opens. For every query shape — a
// SELECT * whose slices bind different variables, the union-view
// fallback, the grouped and the ordered fan-out, ASK — the Vars read
// before the first Next are the Vars after Close, and every row holds
// one term per header variable.
func TestCursorHeaderFinalAtOpen(t *testing.T) {
	text := map[string]string{}
	for _, tc := range corpus {
		text[tc.name] = tc.query
	}
	for _, tc := range askCorpus {
		text[tc.name] = tc.query
	}
	shapes := []struct{ name, query, route string }{
		{"select *", text["select-star-optional"], "shard fan-out:"},
		{"union view", text["cross-acquisition-join"], "shard union"},
		{"grouped fan-out", text["aggregate-by-sensor"], "shard fan-out:"},
		{"ordered fan-out", text["select-star-optional-ordered"], "shard fan-out:"},
		{"ask", text["ask-hit"], "shard fan-out:"},
	}
	stores := map[string]*Store{}
	for _, n := range []int{1, 2, 4} {
		stores[fmt.Sprintf("slices=%d", n)] = newSharded(n)
	}
	for name, st := range stores {
		loadFixture(st)
		for _, sh := range shapes {
			t.Run(name+"/"+sh.name, func(t *testing.T) {
				if st.Slices() > 1 {
					if plan, err := st.Explain(sh.query); err != nil || !strings.HasPrefix(plan, sh.route) || planCount(plan) != 1 {
						t.Fatalf("the query does not take the %s route to one plan (%v):\n%s", sh.route, err, plan)
					}
				}
				cur, err := st.QueryStreamCtx(context.Background(), sh.query)
				if err != nil {
					t.Fatal(err)
				}
				open := slices.Clone(cur.Vars())
				rows := 0
				for row, ok := cur.Next(); ok; row, ok = cur.Next() {
					if len(row) != len(open) {
						t.Fatalf("row %v has %d terms for header %v", row, len(row), open)
					}
					rows++
				}
				if err := cur.Close(); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(open, cur.Vars()) {
					t.Fatalf("header %v at open, %v after Close", open, cur.Vars())
				}
				if rows == 0 || len(open) == 0 {
					t.Fatalf("%d rows under header %v: the shape is not exercised", rows, open)
				}
			})
		}
	}
}

// TestShardUpdateEquivalence applies the refinement-shaped updates —
// a windowed spatial INSERT, a DELETE with OPTIONAL against static data,
// an atomic per-subject Update and an INSERT DATA with a routing
// timestamp — to a one-slice and a four-slice store and compares the
// full dataset afterwards.
func TestShardUpdateEquivalence(t *testing.T) {
	updates := []string{
		// Municipalities-style scoped insert over a range spanning two
		// buckets.
		`INSERT { ?h noa:isInMunicipality ?m }
WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?hg .
  ?m a gag:Municipality ; strdf:hasGeometry ?mg .
  FILTER( str(?at) >= "2007-08-25T10:30:00" )
  FILTER( str(?at) <= "2007-08-25T11:30:00" )
  FILTER( strdf:anyInteract(?hg, ?mg) )
}`,
		// DeleteInSea-style scoped delete with OPTIONAL against static.
		`DELETE { ?h ?hProperty ?hObject }
WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ;
     strdf:hasGeometry ?hg ; ?hProperty ?hObject .
  FILTER( str(?at) = "2007-08-25T12:15:00" )
  OPTIONAL {
    ?c a coast:Coastline ; strdf:hasGeometry ?cg .
    FILTER( strdf:anyInteract(?hg, ?cg) )
  }
  FILTER( !bound(?c) )
}`,
		// INSERT DATA carrying a routing timestamp (virtual hotspot).
		`INSERT DATA {
  <http://example.org/virt1> a noa:Hotspot ;
    noa:hasAcquisitionDateTime "2007-08-25T12:30:00"^^xsd:dateTime ;
    noa:hasConfidence 0.5 ;
    strdf:hasGeometry "POLYGON ((1 4, 2 4, 2 5, 1 5, 1 4))"^^strdf:WKT .
}`,
	}
	confirm := `DELETE { <%[1]s> noa:hasConfidence ?c }
INSERT { <%[1]s> noa:hasConfidence 1.0 }
WHERE  { <%[1]s> noa:hasConfidence ?c . }`

	one := strabon.New()
	loadFixture(one)
	sh := newSharded(4)
	loadFixture(sh)

	uri := products.HotspotURI(fixtureProducts()[0].Hotspots[0])
	for _, st := range []*Store{one, sh} {
		for i, u := range updates {
			if _, err := st.Update(u); err != nil {
				t.Fatalf("update %d: %v", i, err)
			}
		}
		if _, err := st.Update(fmt.Sprintf(confirm, uri)); err != nil {
			t.Fatalf("confirm update: %v", err)
		}
	}

	if one.Len() != sh.Len() {
		t.Fatalf("triple count diverged: one slice %d, four %d", one.Len(), sh.Len())
	}
	for _, q := range []string{
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`,
		`SELECT ?h ?m WHERE { ?h noa:isInMunicipality ?m . }`,
	} {
		want, err := runQuery(one, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runQuery(sh, q)
		if err != nil {
			t.Fatal(err)
		}
		assertEquivalent(t, q, want, got, false)
	}
}

// TestShardSplitSubjectFallback pins the co-location safety latch: when
// writes place one subject's triples in two different slices
// (conflicting timestamps through the public Update API), fan-out is
// permanently disabled and the union view keeps results identical to a
// one-slice store.
func TestShardSplitSubjectFallback(t *testing.T) {
	one := strabon.New()
	sh := newSharded(4)
	for _, st := range []*Store{one, sh} {
		for _, u := range []string{
			`INSERT DATA { <http://example.org/split1> noa:hasAcquisitionDateTime "2007-08-25T10:00:00"^^xsd:dateTime ; noa:hasConfidence 0.9 . }`,
			`INSERT DATA { <http://example.org/split1> noa:hasAcquisitionDateTime "2007-08-25T13:00:00"^^xsd:dateTime . }`,
		} {
			if _, err := st.Update(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := `SELECT ?h ?at ?c WHERE { ?h noa:hasAcquisitionDateTime ?at ; noa:hasConfidence ?c . }`
	want, err := runQuery(one, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runQuery(sh, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 2 {
		t.Fatalf("one-slice store rows = %d, want 2", len(want.Rows))
	}
	assertEquivalent(t, "split-subject join", want, got, false)
	out, err := sh.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shard union") {
		t.Fatalf("split-subject store must route everything to the union view:\n%s", out)
	}
}

// TestShardDeleteCrossSlice pins delete routing: an update whose DELETE
// template names another slice's triple (reached through an object
// variable) must remove it wherever it lives, not just in the anchoring
// slice or the static store.
func TestShardDeleteCrossSlice(t *testing.T) {
	mk := func(st *Store) {
		// h1 (10:00 bucket) links to h2 (13:00 bucket) which carries a
		// confirmation; the link crosses slices.
		h1 := []rdf.Triple{
			{S: iri("http://example.org/x1"), P: iri(nsNOA + "hasAcquisitionDateTime"), O: rdf.NewDateTime("2007-08-25T10:00:00")},
			{S: iri("http://example.org/x1"), P: iri(nsNOA + "isExtractedFrom"), O: iri("http://example.org/x2")},
		}
		h2 := []rdf.Triple{
			{S: iri("http://example.org/x2"), P: iri(nsNOA + "hasAcquisitionDateTime"), O: rdf.NewDateTime("2007-08-25T13:00:00")},
			{S: iri("http://example.org/x2"), P: iri(nsNOA + "hasConfirmation"), O: iri(nsNOA + "unconfirmed")},
		}
		st.InsertAll(h1, h2)
	}
	one := strabon.New()
	mk(one)
	sh := newSharded(4)
	mk(sh)
	u := `DELETE { ?x noa:hasConfirmation noa:unconfirmed }
WHERE { ?h noa:isExtractedFrom ?x ; noa:hasAcquisitionDateTime ?at . }`
	for _, st := range []*Store{one, sh} {
		if _, err := st.Update(u); err != nil {
			t.Fatal(err)
		}
	}
	q := `SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`
	want, err := runQuery(one, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runQuery(sh, q)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, "cross-slice delete", want, got, false)
}

// TestShardGroupWithConflictingTimes pins the multi-bucket-group latch:
// one group carrying acquisition times in two different buckets routes
// whole to the first bucket's slice, so window pruning for the second
// value must be disabled (union fallback) or rows silently vanish.
func TestShardGroupWithConflictingTimes(t *testing.T) {
	group := []rdf.Triple{
		{S: iri("http://example.org/twotimes"), P: iri(nsNOA + "hasAcquisitionDateTime"), O: rdf.NewDateTime("2007-08-25T10:00:00")},
		{S: iri("http://example.org/twotimes"), P: iri(nsNOA + "hasAcquisitionDateTime"), O: rdf.NewDateTime("2007-08-25T13:00:00")},
	}
	one := strabon.New()
	one.InsertAll(group)
	sh := newSharded(4)
	sh.InsertAll(group)
	q := `SELECT ?h ?at WHERE { ?h noa:hasAcquisitionDateTime ?at .
  FILTER( str(?at) >= "2007-08-25T12:30:00" ) FILTER( str(?at) <= "2007-08-25T13:30:00" ) }`
	want, err := runQuery(one, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runQuery(sh, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 1 {
		t.Fatalf("one-slice store rows = %d, want 1", len(want.Rows))
	}
	assertEquivalent(t, "conflicting-times group", want, got, false)
}

// TestShardMalformedTimeLiteral pins the unparseable-timestamp path: a
// time triple whose literal fails to parse routes to the static store,
// and time-pattern queries must then stop fanning out (the static copy
// would be returned once per slice view otherwise).
func TestShardMalformedTimeLiteral(t *testing.T) {
	one := strabon.New()
	loadFixture(one)
	sh := newSharded(4)
	loadFixture(sh)
	bad := `INSERT DATA { <http://example.org/badtime> noa:hasAcquisitionDateTime "25/08/2007 15:20" . }`
	for _, st := range []*Store{one, sh} {
		if _, err := st.Update(bad); err != nil {
			t.Fatal(err)
		}
	}
	q := `SELECT ?h ?at WHERE { ?h noa:hasAcquisitionDateTime ?at . }`
	want, err := runQuery(one, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runQuery(sh, q)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, "malformed time literal", want, got, false)
}

// TestShardSubselectFilterScoping pins window-pruning variable scoping:
// a filter inside a sub-select constraining a LOCAL variable that
// happens to share an outer acquisition-time variable's name must not
// prune the fan-out — the inner ?at is a different variable (the
// sub-select only exports ?m).
func TestShardSubselectFilterScoping(t *testing.T) {
	founded := []rdf.Triple{
		{S: iri("http://example.org/mun0"), P: iri("http://example.org/founded"),
			O: rdf.NewLiteral("2007-08-25T10:10:00")},
	}
	one := strabon.New()
	loadFixture(one)
	one.LoadTriples(founded)
	sh := newSharded(4)
	loadFixture(sh)
	sh.LoadTriples(founded)

	q := `SELECT ?h ?m WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  { SELECT ?m WHERE {
      ?m a gag:Municipality ; <http://example.org/founded> ?at .
      FILTER( str(?at) >= "2007-08-25T10:00:00" )
      FILTER( str(?at) <= "2007-08-25T10:30:00" )
    } }
}`
	want, err := runQuery(one, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runQuery(sh, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("fixture produced no rows; the test is vacuous")
	}
	assertEquivalent(t, "subselect filter scoping", want, got, false)

	out, err := sh.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shard fan-out: 4/4 slices") {
		t.Fatalf("inner-scope filter must not prune the outer fan-out:\n%s", out)
	}
}

// TestShardExplainPruning pins the acceptance criterion: a time-window
// query's Explain names fewer slices than exist, a window-free query
// names all of them, and the union fallback is labelled as such.
func TestShardExplainPruning(t *testing.T) {
	sh := newSharded(4)
	loadFixture(sh)

	out, err := sh.Explain(`
SELECT ?h WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  FILTER( str(?at) >= "2007-08-25T10:00:00" )
  FILTER( str(?at) <= "2007-08-25T10:59:00" )
}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shard fan-out: 1/4 slices") {
		t.Fatalf("windowed query not pruned to 1/4:\n%s", out)
	}
	// The routing header is followed by the member plan, which reads the
	// surviving slice through its time index.
	if !strings.Contains(out, "\n  scan[time-range] {?h <"+nsNOA+"hasAcquisitionDateTime> ?at} [2007-08-25T10:00:00, 2007-08-25T10:59:00]") {
		t.Fatalf("member plan missing or not a time-range scan:\n%s", out)
	}

	out, err = sh.Explain(`SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at . }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shard fan-out: 4/4 slices") {
		t.Fatalf("unconstrained query should fan out to all slices:\n%s", out)
	}

	out, err = sh.Explain(`SELECT ?m WHERE { ?m a gag:Municipality . }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shard union") {
		t.Fatalf("static-only query should use the union view:\n%s", out)
	}

	// Joining two slice subjects via a shared object value proves no
	// co-location: must not fan out.
	out, err = sh.Explain(`SELECT ?h1 ?h2 WHERE {
  ?h1 noa:isDerivedFromSensor ?s . ?h2 noa:isDerivedFromSensor ?s . }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shard union") {
		t.Fatalf("cross-acquisition join must use the union view:\n%s", out)
	}

	// A sub-select that hides the anchor cross-joins across slices:
	// union view. One that projects it stays decomposable: fan-out.
	out, err = sh.Explain(`SELECT ?h ?c WHERE {
  ?h a noa:Hotspot . { SELECT ?c WHERE { ?h noa:hasConfidence ?c } } }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shard union") {
		t.Fatalf("unprojected-anchor sub-select must use the union view:\n%s", out)
	}
	out, err = sh.Explain(`SELECT ?h ?u WHERE {
  { SELECT ?h (COUNT(?p) AS ?u) WHERE {
      ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; ?p ?o .
    } GROUP BY ?h } }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shard fan-out: 4/4 slices") {
		t.Fatalf("anchor-projecting grouped sub-select should fan out:\n%s", out)
	}

	out, err = sh.Explain(`
SELECT ?s (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:isDerivedFromSensor ?s ; noa:hasAcquisitionDateTime ?at .
} GROUP BY ?s`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shard fan-out: 4/4 slices [0 1 2 3]\n") || planCount(out) != 1 ||
		strings.Count(out, "aggregate group=?s") != 1 {
		t.Fatalf("grouped query should fan out to one plan over every slice:\n%s", out)
	}
}

// TestShardStatsAndCursors covers the plumbing: per-shard stats, and
// early cursor Close releasing the shard read locks (a subsequent write
// must not deadlock).
func TestShardStatsAndCursors(t *testing.T) {
	sh := newSharded(4)
	loadFixture(sh)

	ss := sh.ShardStats()
	if len(ss) != 5 {
		t.Fatalf("want static+4 shard stats, got %d", len(ss))
	}
	populated := 0
	for _, st := range ss[1:] {
		if st.Triples > 0 {
			populated++
			if st.Range == "" {
				t.Fatalf("populated shard %s missing range", st.Name)
			}
			// The observed range is the time index's first and last
			// entry: each slice holds one hour of the fixture.
			if st.TimeEntries == 0 || st.MaxUnix-st.MinUnix != 45*60 {
				t.Fatalf("shard %s: time index stats %+v", st.Name, st)
			}
		}
	}
	if populated != 4 {
		t.Fatalf("want 4 populated slices, got %d", populated)
	}
	// One dictionary per store (strabon's TestMembersShareOneDictionary),
	// so DictStats is the exact distinct-term count, whatever the slice
	// count.
	one := strabon.New()
	loadFixture(one)
	entries, bytes := sh.DictStats()
	if wantE, wantB := one.DictStats(); entries != wantE || bytes != wantB || entries == 0 {
		t.Fatalf("DictStats (%d, %d) != the one-slice store's (%d, %d)", entries, bytes, wantE, wantB)
	}

	// Early Close: take two rows, close, then write — a leaked read
	// lock would deadlock the insert.
	cur, err := sh.QueryStreamCtx(context.Background(), `SELECT ?h ?at WHERE { ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at . }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Next(); !ok {
		t.Fatal("no first row")
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	p := &products.Product{Sensor: "MSG1", Chain: "test", AcquiredAt: day.Add(14 * time.Hour)}
	p.Hotspots = append(p.Hotspots, products.Hotspot{
		ID: "late_0", Geometry: geom.NewSquare(3, 5, 0.5), Confidence: 1.0,
		AcquiredAt: p.AcquiredAt, Sensor: "MSG1", Chain: "test", Producer: "noa",
	})
	done := make(chan struct{})
	go func() {
		sh.InsertAll(p.Triples())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("insert after closed cursor deadlocked: read locks leaked")
	}
}
