package strabon

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/stsparql"
)

const acqTime = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#hasAcquisitionDateTime"

// stamped is a one-hotspot group acquired at the given literal.
func stamped(i int, at rdf.Term) []rdf.Triple {
	g := hotspotGroup(i, float64(i))
	return append(g, rdf.Triple{S: g[0].S, P: rdf.NewIRI(acqTime), O: at})
}

func verified(t *testing.T, s *Store, when string) {
	t.Helper()
	if err := s.VerifyTimeIndexes(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// sliceSpan reports the time index of the store's one slice: its
// entries and the instants of its first and last.
func sliceSpan(s *Store) (entries int, minUnix, maxUnix int64) {
	st := s.ShardStats()[1]
	return st.TimeEntries, st.MinUnix, st.MaxUnix
}

// TestTimeIndexFollowsEveryWritePath: the index is exact after a bulk
// load of out-of-order groups, single adds and removes, an ad-hoc
// update and a flush commit, and the observed range is its first and
// last entry.
func TestTimeIndexFollowsEveryWritePath(t *testing.T) {
	s := New()
	minute := func(m int) rdf.Term { return rdf.NewDateTime(fmt.Sprintf("2007-08-24T18:%02d:00", m)) }
	var groups [][]rdf.Triple
	for _, m := range []int{30, 10, 50, 20, 40, 20} { // out of order, one instant twice
		groups = append(groups, stamped(len(groups), minute(m)))
	}
	s.InsertAll(groups...)
	verified(t, s, "after an out-of-order bulk load")
	unix := func(m int) int64 { u, _, _ := stsparql.TimeKey(minute(m)); return u }
	if n, lo, hi := sliceSpan(s); n != 6 || lo != unix(10) || hi != unix(50) {
		t.Fatalf("slice time index = %d [%d, %d], want 6 [%d, %d]", n, lo, hi, unix(10), unix(50))
	}

	s.InsertAll(stamped(6, minute(5))) // older than everything held
	verified(t, s, "after a late group")
	if _, err := s.Update(`DELETE { ?h ?p ?o } WHERE { ?h noa:hasAcquisitionDateTime ?at ; ?p ?o . FILTER( str(?at) <= "2007-08-24T18:10:00" ) }`); err != nil {
		t.Fatal(err)
	}
	verified(t, s, "after a delete of the two oldest")
	if n, lo, hi := sliceSpan(s); n != 5 || lo != unix(20) || hi != unix(50) {
		t.Fatalf("slice time index = %d [%d, %d], want 5 [%d, %d]", n, lo, hi, unix(20), unix(50))
	}

	rule, err := stsparql.Prepare(`DELETE { ?h ?p ?o } WHERE { ?h ?p ?o }`, s.Namespaces(), "h")
	if err != nil {
		t.Fatal(err)
	}
	err = s.ApplyFlush(Flush{Groups: [][]rdf.Triple{stamped(7, minute(55)), stamped(8, minute(15))}}, func(tx *FlushTx) error {
		plan, err := tx.Plan(rule, []stsparql.Row{{groups[2][0].S}, {stamped(8, minute(15))[0].S}})
		if err == nil {
			tx.Apply(plan)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	verified(t, s, "after a flush that inserts two groups and deletes one old, one new hotspot")
	if n, lo, hi := sliceSpan(s); n != 5 || lo != unix(20) || hi != unix(55) {
		t.Fatalf("slice time index = %d [%d, %d], want 5 [%d, %d]", n, lo, hi, unix(20), unix(55))
	}
}

// TestTimeRangeServedOnlyWhenExact pins when the store answers a range
// from the index: never while the predicate carries an object the index
// cannot key, for typed windows whatever the literals' form, for
// lexical windows only while every literal is canonical — and again
// once the offending triple is gone. MatchTimeRangeIDs stays a superset
// either way.
func TestTimeRangeServedOnlyWhenExact(t *testing.T) {
	s := New()
	p := rdf.NewIRI(acqTime)
	for i, at := range []string{"2007-08-24T18:00:00", "2007-08-24T18:05:00", "2007-08-24T18:10:00"} {
		s.InsertAll(stamped(i, rdf.NewDateTime(at)))
	}
	lo, _, _ := stsparql.TimeKey(rdf.NewDateTime("2007-08-24T18:05:00"))
	typed := stsparql.TimeWindow{Lo: lo, Hi: math.MaxInt64}
	lexical := typed
	lexical.Lexical = true
	// The members answer through the union view, under their locks. A
	// predicate the store never saw is interned for the call: an ID no
	// triple carries.
	countTimeRange := func(p rdf.Term, w stsparql.TimeWindow) (int, bool) {
		defer s.lockAllRead()()
		return s.viewAll().CountTimeRange(s.dict.Encode(p), w)
	}
	visits := func(w stsparql.TimeWindow) int {
		defer s.lockAllRead()()
		n := 0
		if pid, ok := s.dict.Lookup(p); ok {
			s.viewAll().MatchTimeRangeIDs(pid, w, func(rdf.EncodedTriple) bool { n++; return true })
		}
		return n
	}
	check := func(when string, w stsparql.TimeWindow, wantN int, wantOK bool, wantVisits int) {
		t.Helper()
		n, ok := countTimeRange(p, w)
		if ok != wantOK || (ok && n != wantN) {
			t.Errorf("%s: CountTimeRange = %d, %v; want %d, %v", when, n, ok, wantN, wantOK)
		}
		if got := visits(w); got != wantVisits {
			t.Errorf("%s: MatchTimeRangeIDs visited %d triples, want %d", when, got, wantVisits)
		}
	}
	check("canonical, typed", typed, 2, true, 2)
	check("canonical, lexical", lexical, 2, true, 2)

	zoned := stamped(3, rdf.NewDateTime("2007-08-24T20:07:00+02:00"))
	s.InsertAll(zoned)
	check("zoned literal, typed", typed, 3, true, 3)
	check("zoned literal, lexical", lexical, 0, false, 4)
	if _, err := s.Update(`DELETE { ?h ?p ?o } WHERE { ?h ?p ?o . FILTER( ?h = <` + zoned[0].S.Value + `> ) }`); err != nil {
		t.Fatal(err)
	}
	check("zoned literal removed, lexical", lexical, 2, true, 2)

	bad := stamped(4, rdf.NewDateTime("24/08/2007 18:07"))
	s.InsertAll(bad)
	// A literal that is no time routes to the static member, which no
	// longer serves the range and scans its predicate; the slice still
	// answers from its index.
	check("malformed literal, typed", typed, 0, false, 3)
	check("malformed literal, lexical", lexical, 0, false, 3)
	if _, err := s.Update(`DELETE { ?h ?p ?o } WHERE { ?h ?p ?o . FILTER( ?h = <` + bad[0].S.Value + `> ) }`); err != nil {
		t.Fatal(err)
	}
	check("malformed literal removed, typed", typed, 2, true, 2)
	verified(t, s, "at the end")

	if n, ok := countTimeRange(rdf.NewIRI("http://e/never-seen"), typed); !ok || n != 0 {
		t.Errorf("a predicate the store never saw: CountTimeRange = %d, %v; want 0, true", n, ok)
	}
	if _, ok := countTimeRange(rdf.NewIRI(rdf.RDFType), typed); ok {
		t.Error("a predicate without dateTime objects claims a time range")
	}
}

// TestStoreTimeRangePlans: on a one-slice store the typed, str(), mirrored and equality forms all open with the same
// time-range scan, whose actual rows are the window's, not the
// predicate's.
func TestStoreTimeRangePlans(t *testing.T) {
	s := New()
	for i := 0; i < 12; i++ {
		s.InsertAll(stamped(i, rdf.NewDateTime(fmt.Sprintf("2007-08-24T18:%02d:00", 5*i))))
	}
	for name, tc := range map[string]struct {
		filter string
		rows   int
	}{
		"str":      {`FILTER( str(?at) >= "2007-08-24T18:10:00" ) FILTER( str(?at) < "2007-08-24T18:20:00" )`, 2},
		"typed":    {`FILTER( ?at >= "2007-08-24T18:10:00"^^xsd:dateTime && ?at <= "2007-08-24T18:20:00"^^xsd:dateTime )`, 3},
		"mirrored": {`FILTER( "2007-08-24T18:50:00" <= str(?at) )`, 2},
		"equality": {`FILTER( str(?at) = "2007-08-24T18:25:00" )`, 1},
	} {
		q := `SELECT ?h ?g WHERE { ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?g . ` + tc.filter + ` }`
		res, err := runQuery(s, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Rows) != tc.rows {
			t.Errorf("%s: %d rows, want %d", name, len(res.Rows), tc.rows)
		}
		plan, err := s.ExplainAnalyze(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var first string
		for _, line := range strings.Split(plan, "\n") {
			if strings.Contains(line, "actual rows=") {
				first = strings.TrimSpace(line)
				break
			}
		}
		if !strings.HasPrefix(first, "scan[time-range] {?h <"+acqTime+"> ?at} [") {
			t.Errorf("%s: first operator is not the time-range scan:\n%s", name, plan)
		}
		// Strict bounds relax to inclusive ones: at most one extra row.
		if !strings.Contains(first, fmt.Sprintf("(actual rows=%d ", tc.rows)) &&
			!strings.Contains(first, fmt.Sprintf("(actual rows=%d ", tc.rows+1)) {
			t.Errorf("%s: the scan read more than its window:\n%s", name, first)
		}
	}
}
