package shard

import (
	"fmt"
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

// classWindowQueries each plan a window join whose BGP types the
// window's subject: against municipalities (the benchmark's shape, in
// one slice and across four), against hotspots, against the static
// coastline only, inside an OPTIONAL, and around a constant area for one
// chain's hotspots of one hour — the confirm rule's class, chain and time
// filters.
var classWindowQueries = map[string]string{
	"chain-hotspots-of-an-hour": `
SELECT ?h ?at WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ;
     noa:isFromProcessingChain "test"^^<http://www.w3.org/2001/XMLSchema#string> ; strdf:hasGeometry ?hg .
  FILTER( str(?at) >= "2007-08-25T11:00:00" && str(?at) < "2007-08-25T12:00:00" )
  FILTER( strdf:anyInteract(?hg, "POLYGON ((4 0, 10 0, 10 10, 4 10, 4 0))"^^strdf:WKT) )
}`,
	"municipality-one-acquisition": corpusQuery("spatial-join-municipality"),
	"municipality-four-slices":     spatialJoinFourSlices,
	"hotspots-of-a-municipality": `
SELECT ?m ?h WHERE {
  ?m a gag:Municipality ; strdf:hasGeometry ?mg .
  ?h a noa:Hotspot ; strdf:hasGeometry ?hg .
  FILTER( ?m = <http://example.org/mun1> || ?m = <http://example.org/cross> )
  FILTER( strdf:anyInteract(?mg, ?hg) )
}`,
	"static-only": `
SELECT ?c ?m WHERE {
  ?c a coast:Coastline ; strdf:hasGeometry ?cg .
  ?m a gag:Municipality ; strdf:hasGeometry ?mg .
  FILTER( strdf:anyInteract(?cg, ?mg) )
}`,
	"optional-coast": `
SELECT ?h ?c WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?hg .
  FILTER( str(?at) >= "2007-08-25T12:00:00" )
  OPTIONAL {
    ?c a coast:Coastline ; strdf:hasGeometry ?cg .
    FILTER( strdf:anyInteract(?hg, ?cg) )
  }
}`,
}

func corpusQuery(name string) string {
	for _, tc := range corpus {
		if tc.name == name {
			return tc.query
		}
	}
	panic("no corpus query " + name)
}

// renderSorted renders a result's rows canonically, as a sorted list.
func renderSorted(res *stsparql.Result) []string {
	_, rows := renderRows(res)
	sort.Strings(rows)
	return rows
}

// flatCopy copies every triple of st into a plain rdf.Store: a source
// with no R-tree, no time index and no class sets, over which the
// capability-free engine is the reference a class-filtered window join
// is held to.
func flatCopy(t *testing.T, st *Store) *rdf.Store {
	t.Helper()
	res, err := runQuery(st, `SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	flat := rdf.NewStore()
	for _, row := range res.Rows {
		flat.Add(rdf.Triple{S: row[0], P: row[1], O: row[2]})
	}
	return flat
}

// referenceRows evaluates text over src with the capability-free
// engine.
func referenceRows(t *testing.T, src stsparql.Source, text string) []string {
	t.Helper()
	q, err := stsparql.Parse(text, rdf.NewNamespaces())
	if err != nil {
		t.Fatal(err)
	}
	res, err := selectAll(stsparql.NewEvaluator(capabilityFree{src}), q)
	if err != nil {
		t.Fatal(err)
	}
	return renderSorted(res)
}

// flatWindows serves a window join's capabilities over a flat copy by
// brute force, so the subject filters run against sets and ranges the
// store's indexes had no hand in: a window visits every geometry triple
// (a superset, as SpatialSource allows) and the subject sets are the
// copy's own. chainBlind widens the set of every (p, o) but rdf:type to
// all of p's subjects, so a filter such as the seeded chain's passes any
// subject carrying p. Without the time methods of flatTimes it is
// time-blind: no time filter resolves.
type flatWindows struct {
	*rdf.Store
	chainBlind bool
}

// WindowSkip: the copy is one member, always searched.
func (f flatWindows) WindowSkip(rdf.ID, [][]rdf.IDSet) (uint64, int) { return 0, 1 }

func (f flatWindows) MatchGeometryWindowIDs(_ geom.Envelope, skip uint64, visit func(rdf.EncodedTriple) bool) bool {
	if skip&1 != 0 {
		return true
	}
	for p := range stsparql.GeometryPredicates {
		if id, ok := f.Dict().Lookup(iri(p)); ok && !f.MatchIDs(rdf.Wildcard, id, rdf.Wildcard, visit) {
			return false
		}
	}
	return true
}

func (f flatWindows) SubjectSets(p, o rdf.ID, dst []rdf.IDSet) []rdf.IDSet {
	if !f.chainBlind || f.Dict().Decode(p).Value == rdf.RDFType {
		return append(dst, f.SubjectSet(p, o))
	}
	seen := make(map[rdf.ID]bool)
	f.MatchIDs(rdf.Wildcard, p, rdf.Wildcard, func(t rdf.EncodedTriple) bool {
		if !seen[t.O] {
			seen[t.O] = true
			dst = append(dst, f.SubjectSet(p, t.O))
		}
		return true
	})
	return dst
}

// flatTimes adds time ranges to flatWindows: p's triples whose instant
// lies in the window, when every object of p is a time literal (and a
// canonical one, for a lexical window).
type flatTimes struct{ flatWindows }

var _ stsparql.SpatialSource = flatWindows{}
var _ stsparql.TimeRangeSource = flatTimes{}

func (f flatTimes) CountTimeRange(p rdf.ID, w stsparql.TimeWindow) (int, bool) {
	n, served := 0, true
	f.MatchIDs(rdf.Wildcard, p, rdf.Wildcard, func(t rdf.EncodedTriple) bool {
		unix, canonical, ok := stsparql.TimeKey(f.Dict().Decode(t.O))
		if served = ok && (canonical || !w.Lexical); served && unix >= w.Lo && unix <= w.Hi {
			n++
		}
		return served
	})
	return n, served
}

func (f flatTimes) MatchTimeRangeIDs(p rdf.ID, w stsparql.TimeWindow, visit func(rdf.EncodedTriple) bool) bool {
	_, served := f.CountTimeRange(p, w)
	return f.MatchIDs(rdf.Wildcard, p, rdf.Wildcard, func(t rdf.EncodedTriple) bool {
		if unix, _, _ := stsparql.TimeKey(f.Dict().Decode(t.O)); served && (unix < w.Lo || unix > w.Hi) {
			return true
		}
		return visit(t)
	})
}

// filteredSources are the flat copy behind every combination of subject
// filters a window scan can run with, by name.
func filteredSources(flat *rdf.Store) map[string]stsparql.Source {
	return map[string]stsparql.Source{
		"all filters": flatTimes{flatWindows{flat, false}},
		"time-blind":  flatWindows{flat, false},
		"chain-blind": flatTimes{flatWindows{flat, true}},
	}
}

// checkFilteredSources evaluates text over each of filteredSources and
// compares the rows with want, the capability-free engine's.
func checkFilteredSources(t *testing.T, flat *rdf.Store, text, where string, want []string) {
	t.Helper()
	q, err := stsparql.Parse(text, rdf.NewNamespaces())
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range filteredSources(flat) {
		res, err := selectAll(stsparql.NewEvaluator(src), q)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderSorted(res); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s over the %s copy: rows differ from the reference's:\n got  %v\n want %v", where, name, got, want)
		}
	}
}

// crossMemberSubject is a municipality whose type triple carries no
// acquisition time (it lands in the static store) and whose geometry
// comes in a timestamped group (it lands in a slice): its type and its
// geometry sit in different members.
func crossMemberSubject() [][]rdf.Triple {
	x := iri("http://example.org/cross")
	return [][]rdf.Triple{
		{{S: x, P: iri(rdf.RDFType), O: iri(nsGAG + "Municipality")}},
		{
			{S: x, P: iri(nsStRDF + "hasGeometry"), O: rdf.NewGeometry("POLYGON ((0 4, 20 4, 20 6, 0 6, 0 4))")},
			{S: x, P: iri(nsNOA + "hasAcquisitionDateTime"), O: rdf.NewDateTime("2007-08-25T12:00:00")},
		},
	}
}

// TestClassWindowMatchesTypeProbe: a class-filtered window join finds
// exactly the rows the capability-free engine finds, on every topology
// — including a subject typed in one member and located in another, and
// a flush overlay that moved a geometry into its private store while
// the type stayed in the base.
func TestClassWindowMatchesTypeProbe(t *testing.T) {
	type topo struct {
		name string
		st   *Store
	}
	var topos []topo
	for _, n := range []int{1, 2, 4} {
		sh := newSharded(n)
		loadFixture(sh)
		topos = append(topos, topo{fmt.Sprintf("sharded%d", n), sh})
	}
	split := newSharded(4)
	loadFixture(split)
	for _, g := range crossMemberSubject() {
		split.InsertAll(g)
	}
	if plan, err := split.Explain(corpusQuery("window-select")); err != nil || !strings.HasPrefix(plan, "shard union") {
		t.Fatalf("the cross-member subject did not latch the union-view fallback (%v):\n%s", err, plan)
	}
	topos = append(topos, topo{"union-fallback", split})

	for _, tp := range topos {
		flat := flatCopy(t, tp.st)
		for name, text := range classWindowQueries {
			plan, err := tp.st.Explain(text)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, "join[window class=") {
				t.Fatalf("%s on %s: no class-filtered window in the plan:\n%s", name, tp.name, plan)
			}
			if name == "chain-hotspots-of-an-hour" && !strings.Contains(plan, `isFromProcessingChain>="test" time=[2007-08-25T11:00:00, 2007-08-25T12:00:00]] {?h `) {
				t.Fatalf("%s on %s: the window does not filter by chain and hour:\n%s", name, tp.name, plan)
			}
			got, err := runQuery(tp.st, text)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceRows(t, flat, text)
			if g := renderSorted(got); strings.Join(g, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s on %s: class-filtered rows differ from the reference's:\n got  %v\n want %v", name, tp.name, g, want)
			}
			if len(want) == 0 && name != "optional-coast" {
				t.Errorf("%s on %s: no rows; the comparison shows nothing", name, tp.name)
			}
			checkFilteredSources(t, flat, text, name+" on "+tp.name, want)
		}
	}
	for _, name := range []string{"hotspots-of-a-municipality", "municipality-four-slices"} {
		got, err := runQuery(split, classWindowQueries[name])
		if err != nil {
			t.Fatal(err)
		}
		if rows := strings.Join(renderSorted(got), "\n"); !strings.Contains(rows, "m=<http://example.org/cross>") {
			t.Errorf("%s: the cross-member municipality lost its hotspots:\n%s", name, rows)
		}
	}

	// A flush overlay: the base keeps mun2's type, the flush replaces its
	// geometry (a clipped one, say) — the new geometry lives in the
	// overlay's private store, the type in the base. The same flush
	// deletes an in-window hotspot of the chain and adds a virtual one
	// of another chain in the window. The rules query the overlay, then
	// discard the flush.
	sh := newSharded(2)
	loadFixture(sh)
	swap := `DELETE { <http://example.org/mun2> strdf:hasGeometry ?g }
INSERT { <http://example.org/mun2> strdf:hasGeometry "POLYGON ((10 0, 15 0, 15 7, 10 7, 10 0))"^^strdf:WKT }
WHERE { <http://example.org/mun2> strdf:hasGeometry ?g . }`
	flat := flatCopy(t, sh)
	mun2, hasGeom := iri("http://example.org/mun2"), iri(nsStRDF+"hasGeometry")
	if !flat.Remove(rdf.Triple{S: mun2, P: hasGeom, O: rdf.NewGeometry("POLYGON ((10 0, 15 0, 15 10, 10 10, 10 0))")}) ||
		!flat.Add(rdf.Triple{S: mun2, P: hasGeom, O: rdf.NewGeometry("POLYGON ((10 0, 15 0, 15 7, 10 7, 10 0))")}) {
		t.Fatal("the reference copy did not take the geometry swap")
	}
	prepare := func(src string, seed ...string) *stsparql.Prepared {
		p, err := stsparql.Prepare(src, sh.Namespaces(), seed...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	gone := fixtureProducts()[7].Hotspots[0]
	virtual := gone
	virtual.ID, virtual.Chain, virtual.AcquiredAt = "virtual", "persistence", gone.AcquiredAt.Add(-5*time.Minute)
	goneID, _ := flat.Dict().Lookup(iri(products.HotspotURI(gone)))
	var goneTriples []rdf.Triple
	flat.MatchIDs(goneID, rdf.Wildcard, rdf.Wildcard, func(t rdf.EncodedTriple) bool {
		goneTriples = append(goneTriples, rdf.Triple{S: flat.Dict().Decode(t.S), P: flat.Dict().Decode(t.P), O: flat.Dict().Decode(t.O)})
		return true
	})
	for _, tr := range goneTriples {
		flat.Remove(tr)
	}
	for _, tr := range virtual.Triples() {
		flat.Add(tr)
	}
	noSeed := []stsparql.Row{{}}
	f := strabon.Flush{At: []time.Time{day.Add(13 * time.Hour)}, Since: day}
	err := sh.ApplyFlush(f, func(tx *strabon.FlushTx) error {
		plan, err := tx.Plan(prepare(swap), noSeed)
		if err != nil {
			return err
		}
		if st := tx.Apply(plan); st.Deleted != 1 || st.Inserted != 1 {
			t.Fatalf("the overlay took %+v of the geometry swap", st)
		}
		plan, err = tx.Plan(prepare(`DELETE { ?h ?p ?o } WHERE { ?h ?p ?o }`, "h"), []stsparql.Row{{iri(products.HotspotURI(gone))}})
		if err != nil {
			return err
		}
		plan.Insert(virtual.Triples()...)
		if st := tx.Apply(plan); st.Deleted != len(goneTriples) || st.Inserted != len(virtual.Triples()) {
			t.Fatalf("the overlay took %+v of the hotspot swap", st)
		}
		for name, text := range classWindowQueries {
			res, err := tx.Select(prepare(text), noSeed)
			if err != nil {
				return err
			}
			got, want := renderSorted(res), referenceRows(t, flat, text)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s on the overlay: class-filtered rows differ from the reference's:\n got  %v\n want %v", name, got, want)
			}
			if name == "municipality-four-slices" && !strings.Contains(strings.Join(got, "\n"), "m=<http://example.org/mun2>") {
				t.Errorf("the municipality whose geometry moved into the overlay lost its hotspots:\n%v", got)
			}
			checkFilteredSources(t, flat, text, name+" on the overlay", want)
		}
		return errDiscard
	})
	if err != errDiscard {
		t.Fatalf("ApplyFlush = %v, want the discarding rules' error", err)
	}
}
