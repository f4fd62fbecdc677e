package stsparql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// interningSource interns term into the evaluation's dictionary once
// its scans have visited `after` triples — what a flush into another
// slice of the same topology does to a reader in mid-evaluation. Its
// statistics count one triple per pattern: every join plans as a bind
// join, the patterns in source order within a class, so the scan
// positions `after` counts are fixed by the query text.
type interningSource struct {
	*rdf.Store
	term    rdf.Term
	after   int
	visited int
}

func (s *interningSource) CountIDs(_, _, _ rdf.ID) int { return 1 }

func (s *interningSource) MatchIDs(sub, p, o rdf.ID, visit func(rdf.EncodedTriple) bool) bool {
	return s.Store.MatchIDs(sub, p, o, func(t rdf.EncodedTriple) bool {
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
		return &interningSource{Store: s, term: computed, after: after}
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
		res, err := selectAll(NewEvaluator(src), q)
		if err != nil {
			t.Fatal(err)
		}
		interned(t, src)
		if len(res.Rows) != 1 || !res.at(0, "x").Equal(computed) {
			t.Fatalf("DISTINCT over one computed value gave %d rows: %v", len(res.Rows), res.Rows)
		}
	})
	t.Run("group by", func(t *testing.T) {
		src := newSource(midScan)
		q := mustParse(t, `PREFIX e: <http://e/> SELECT ?x (COUNT(?s) AS ?n) WHERE { `+computedJoin+` } GROUP BY ?x`)
		res, err := selectAll(NewEvaluator(src), q)
		if err != nil {
			t.Fatal(err)
		}
		interned(t, src)
		if len(res.Rows) != 1 || res.at(0, "n").Value != fmt.Sprint(n) {
			t.Fatalf("GROUP BY one computed value gave %v, want one group of %d", res.Rows, n)
		}
	})
	// A literal comparison goes by value, not by ID: it held without the
	// watermark and must hold with it.
	t.Run("filter", func(t *testing.T) {
		src := newSource(midScan)
		q := mustParse(t, `PREFIX e: <http://e/> SELECT ?s WHERE { `+computedJoin+` FILTER( ?x = "http://e/o" ) }`)
		res, err := selectAll(NewEvaluator(src), q)
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

// flushingSource commits, once its scans have visited `after` triples,
// what a flush into another member of the topology commits beside a
// running reader: it interns new terms into the shared dictionary and
// adds the triples carrying them. Its statistics count one triple per
// pattern, like interningSource's: a hash join would scan each side
// once, whatever a scan caches, and hide what the test pins.
type flushingSource struct {
	*rdf.Store
	flush   []rdf.Triple
	after   int
	visited int
}

func (s *flushingSource) CountIDs(_, _, _ rdf.ID) int { return 1 }

func (s *flushingSource) MatchIDs(sub, p, o rdf.ID, visit func(rdf.EncodedTriple) bool) bool {
	return s.Store.MatchIDs(sub, p, o, func(t rdf.EncodedTriple) bool {
		if s.visited++; s.visited == s.after {
			for _, tr := range s.flush {
				s.Add(tr)
			}
		}
		return visit(t)
	})
}

// TestPatternConstantMissesUntilNextEvaluation pins what lets a scan
// resolve its pattern's constants once per open: a constant the
// dictionary learns in mid-evaluation stays a miss for that evaluation,
// whichever side of the flush a scan opens on — no row appears half-way
// — and the next evaluation of the same compiled plan finds it, so the
// resolution cannot have been cached on the shared operator.
func TestPatternConstantMissesUntilNextEvaluation(t *testing.T) {
	const n = 300
	const midScan = batchSizeMin + 10
	iri := func(format string, a ...any) rdf.Term { return rdf.NewIRI("http://e/" + fmt.Sprintf(format, a...)) }
	for name, tc := range map[string]struct {
		query string
		bound func(Row) bool // after the flush: is the row complete
		first int            // rows of the evaluation the flush interrupts
	}{
		// One scan object serves every probe row of the join.
		"bind join": {`SELECT ?s WHERE { ?s e:p ?o . ?s e:q e:fresh }`, func(Row) bool { return true }, 0},
		// OPTIONAL re-opens its sub-plan, and with it the scan, per outer
		// row: some opens precede the flush and some follow it.
		"optional": {`SELECT ?s ?f WHERE { ?s e:p ?o . OPTIONAL { ?s e:q ?f . ?f e:r e:fresh } }`,
			func(row Row) bool { return !row[1].IsZero() }, n}, // ?s ?f
	} {
		t.Run(name, func(t *testing.T) {
			src := &flushingSource{Store: rdf.NewStore(), after: midScan}
			for i := 0; i < n; i++ {
				src.Add(rdf.Triple{S: iri("s%d", i), P: iri("p"), O: iri("o")})
				src.flush = append(src.flush,
					rdf.Triple{S: iri("s%d", i), P: iri("q"), O: iri("fresh")},
					rdf.Triple{S: iri("fresh"), P: iri("r"), O: iri("fresh")})
			}
			plan := NewEvaluator(src).Compile(mustParse(t, `PREFIX e: <http://e/> `+tc.query))
			var out planText
			plan.sel.explain(&out, "")
			if strings.Contains(out.String(), "join[hash]") {
				t.Fatalf("the fixture plans a hash join, which scans once whatever the scan caches:\n%s", &out)
			}
			run := func() []Row {
				cur, err := NewEvaluator(src).RunCompiled(plan)
				if err != nil {
					t.Fatal(err)
				}
				defer cur.Close()
				var rows []Row
				for row, ok := cur.Next(); ok; row, ok = cur.Next() {
					rows = append(rows, row.Clone())
				}
				if err := cur.Err(); err != nil {
					t.Fatal(err)
				}
				return rows
			}
			rows := run()
			if _, ok := src.Dict().Lookup(iri("fresh")); !ok {
				t.Fatal("the fixture never flushed: the test exercised nothing")
			}
			if len(rows) != tc.first {
				t.Fatalf("the interrupted evaluation returned %d rows, want %d", len(rows), tc.first)
			}
			for _, row := range rows {
				if tc.bound(row) {
					t.Fatalf("a row of the interrupted evaluation carries the flush: %v", row)
				}
			}
			rows = run()
			if len(rows) != n {
				t.Fatalf("the next evaluation returned %d rows, want %d", len(rows), n)
			}
			for _, row := range rows {
				if !tc.bound(row) {
					t.Fatalf("the next evaluation misses the flushed constant: %v", row)
				}
			}
		})
	}
}
