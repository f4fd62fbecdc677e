package stsparql

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
)

// interningSource interns term into the evaluation's dictionary once
// its scans have visited `after` triples — what a flush into another
// slice of the same topology does to a reader in mid-evaluation.
type interningSource struct {
	Source
	term    rdf.Term
	after   int
	visited int
}

func (s *interningSource) MatchIDs(sub, p, o rdf.ID, visit func(rdf.EncodedTriple) bool) bool {
	return s.Source.MatchIDs(sub, p, o, func(t rdf.EncodedTriple) bool {
		if s.visited++; s.visited == s.after {
			s.Dict().Encode(s.term)
		}
		return visit(t)
	})
}

// TestComputedTermKeepsOneID is the regression for the hazard a shared
// dictionary opens: encode is "store dictionary first", so a term the
// evaluation computes (here str(?o), the same literal for every row)
// would get an overflow ID while the dictionary does not know it and
// the store ID once a concurrent writer has interned it — one term, two
// IDs, and every ID-keyed operator splits it. The watermark pinned at
// the start of the evaluation keeps it one.
func TestComputedTermKeepsOneID(t *testing.T) {
	const n = 300
	computed := rdf.NewLiteral("http://e/o")
	// Every row computes the same literal; the term is interned after
	// the pipeline's first batch (batchSizeMin rows) has been through the
	// operator under test and before the rest has.
	const midScan = batchSizeMin + 10
	newSource := func(after int) *interningSource {
		s := rdf.NewStore()
		for i := 0; i < n; i++ {
			s.Add(rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("http://e/s%d", i)),
				P: rdf.NewIRI("http://e/p"),
				O: rdf.NewIRI("http://e/o"),
			})
		}
		return &interningSource{Source: s, term: computed, after: after}
	}
	interned := func(t *testing.T, src *interningSource) {
		t.Helper()
		if _, ok := src.Dict().Lookup(computed); !ok {
			t.Fatal("the fixture never interned the computed term: the test exercised nothing")
		}
	}
	const computedJoin = `?s e:p ?o . { SELECT DISTINCT (str(?z) AS ?x) WHERE { e:s0 e:p ?z } }`

	t.Run("distinct", func(t *testing.T) {
		src := newSource(midScan)
		q := mustParse(t, `PREFIX e: <http://e/> SELECT DISTINCT (str(?o) AS ?x) WHERE { ?s e:p ?o }`)
		res, err := NewEvaluator(src).Select(q.Select)
		if err != nil {
			t.Fatal(err)
		}
		interned(t, src)
		if len(res.Rows) != 1 || !res.Rows[0]["x"].Equal(computed) {
			t.Fatalf("DISTINCT over one computed value gave %d rows: %v", len(res.Rows), res.Rows)
		}
	})
	t.Run("group by", func(t *testing.T) {
		src := newSource(midScan)
		q := mustParse(t, `PREFIX e: <http://e/> SELECT ?x (COUNT(?s) AS ?n) WHERE { `+computedJoin+` } GROUP BY ?x`)
		res, err := NewEvaluator(src).Select(q.Select)
		if err != nil {
			t.Fatal(err)
		}
		interned(t, src)
		if len(res.Rows) != 1 || res.Rows[0]["n"].Value != fmt.Sprint(n) {
			t.Fatalf("GROUP BY one computed value gave %v, want one group of %d", res.Rows, n)
		}
	})
	// A literal comparison goes by value, not by ID: it held without the
	// watermark and must hold with it.
	t.Run("filter", func(t *testing.T) {
		src := newSource(midScan)
		q := mustParse(t, `PREFIX e: <http://e/> SELECT ?s WHERE { `+computedJoin+` FILTER( ?x = "http://e/o" ) }`)
		res, err := NewEvaluator(src).Select(q.Select)
		if err != nil {
			t.Fatal(err)
		}
		interned(t, src)
		if len(res.Rows) != n {
			t.Fatalf("filter on the computed value kept %d of %d rows", len(res.Rows), n)
		}
	})
	// An update's joins are buffered: the first scan runs to its end (n
	// visits) and the second hands its first batch on before it resumes.
	t.Run("update dedup", func(t *testing.T) {
		src := newSource(n + midScan)
		q := mustParse(t, `PREFIX e: <http://e/> INSERT { e:a e:q ?x } WHERE { ?s e:p ?o2 . `+computedJoin+` }`)
		plan, err := NewEvaluator(src).PlanUpdate(q.Update)
		if err != nil {
			t.Fatal(err)
		}
		interned(t, src)
		if plan.Matched != n || plan.InsertCount() != 1 {
			t.Fatalf("matched %d, %d distinct inserts; want %d and 1", plan.Matched, plan.InsertCount(), n)
		}
	})
}
