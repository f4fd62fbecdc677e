package stsparql

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
)

// countingSource wraps a Source and counts the triples its scans visit,
// so tests can pin that pull-based early termination actually stops the
// index scans (not just the row flow).
type countingSource struct {
	Source
	visited int
}

func (c *countingSource) MatchIDs(s, p, o rdf.ID, visit func(rdf.EncodedTriple) bool) bool {
	return c.Source.MatchIDs(s, p, o, func(t rdf.EncodedTriple) bool {
		c.visited++
		return visit(t)
	})
}

// wideStore builds a store with n triples under one predicate.
func wideStore(n int) *rdf.Store {
	s := rdf.NewStore()
	p := rdf.NewIRI("http://e/p")
	for i := 0; i < n; i++ {
		s.Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://e/s%d", i)),
			P: p,
			O: rdf.NewIRI(fmt.Sprintf("http://e/o%d", i)),
		})
	}
	return s
}

// TestRunCursorMatchesSelect checks the streaming cursor yields exactly
// the rows ReadAll materialises from it.
func TestRunCursorMatchesSelect(t *testing.T) {
	src := clcFixture()
	q := mustParse(t, `SELECT ?h ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . }`)

	want, err := selectAll(NewEvaluator(src), q)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := openSelect(NewEvaluator(src), q)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if fmt.Sprint(cur.Vars()) != fmt.Sprint(want.Vars) {
		t.Fatalf("vars = %v, want %v", cur.Vars(), want.Vars)
	}
	got := &Result{Vars: cur.Vars()}
	for row, ok := cur.Next(); ok; row, ok = cur.Next() {
		got.Rows = append(got.Rows, row.Clone())
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows = %d, want %d", len(got.Rows), len(want.Rows))
	}
	seen := map[string]bool{}
	for i := range want.Rows {
		seen[want.at(i, "h").Value+"|"+want.at(i, "c").Value] = true
	}
	for i, row := range got.Rows {
		if !seen[got.at(i, "h").Value+"|"+got.at(i, "c").Value] {
			t.Fatalf("unexpected row %v", row)
		}
	}
}

// TestCursorLimitStopsScan pins LIMIT pushdown at the scan level: a
// LIMIT 10 over a 10k-triple pattern must abandon the index scan after
// a handful of visits instead of enumerating the store.
func TestCursorLimitStopsScan(t *testing.T) {
	const n = 10000
	src := &countingSource{Source: wideStore(n)}
	q := mustParse(t, `PREFIX e: <http://e/> SELECT ?s ?o WHERE { ?s e:p ?o } LIMIT 10`)
	cur, err := openSelect(NewEvaluator(src), q)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, ok := cur.Next(); ok; _, ok = cur.Next() {
		rows++
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if rows != 10 {
		t.Fatalf("rows = %d, want 10", rows)
	}
	if src.visited >= n/10 {
		t.Fatalf("scan visited %d of %d triples; LIMIT pushdown should stop it near 10", src.visited, n)
	}
}

// TestCursorEarlyCloseStopsScan pins that abandoning a cursor stops the
// underlying scan (the streamed-client-went-away case).
func TestCursorEarlyCloseStopsScan(t *testing.T) {
	const n = 10000
	src := &countingSource{Source: wideStore(n)}
	q := mustParse(t, `PREFIX e: <http://e/> SELECT ?s ?o WHERE { ?s e:p ?o }`)
	cur, err := openSelect(NewEvaluator(src), q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok := cur.Next(); !ok {
			t.Fatal("exhausted early")
		}
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Next(); ok {
		t.Fatal("Next after Close yielded a row")
	}
	if src.visited >= n/10 {
		t.Fatalf("scan visited %d of %d triples after early Close", src.visited, n)
	}
}

// TestAskStopsAtFirstSolution pins that ASK terminates the scan at its
// first solution instead of materialising the full pattern extent.
func TestAskStopsAtFirstSolution(t *testing.T) {
	const n = 10000
	src := &countingSource{Source: wideStore(n)}
	q := mustParse(t, `PREFIX e: <http://e/> ASK { ?s e:p ?o }`)
	ok, err := ask(NewEvaluator(src), q)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("ask = false, want true")
	}
	if src.visited >= n/10 {
		t.Fatalf("ask visited %d of %d triples; should stop at the first", src.visited, n)
	}
}

// TestCompiledPlanReuse runs one compiled SELECT several times (and from
// several evaluators) over the same source, as the plan cache does, and
// checks the runs are independent and identical.
func TestCompiledPlanReuse(t *testing.T) {
	src := clcFixture()
	q := mustParse(t, `SELECT ?h ?m WHERE {
	  ?h a noa:Hotspot ; strdf:hasGeometry ?hGeo .
	  ?m a gag:Municipality ; strdf:hasGeometry ?mGeo .
	  FILTER( strdf:anyInteract(?hGeo, ?mGeo) ) .
	}`)
	c := NewEvaluator(src).Compile(q)
	for i := 0; i < 3; i++ {
		cur, err := NewEvaluator(src).RunCompiled(c)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := drainCursor(cur)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("run %d: rows = %d, want 2", i, len(rows))
		}
	}
}

func drainCursor(cur Cursor) ([]Row, error) {
	defer cur.Close()
	res := ReadAll(cur)
	return res.Rows, cur.Close()
}
