package shard

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// classBlind is a source whose subject sets hold every subject it
// knows: its window scans' class check passes every candidate, so its
// plans are the class-filtered plans with the filter off.
type classBlind struct {
	blindSource
}

type blindSource interface {
	stsparql.StatSource
	stsparql.SpatialSource
	stsparql.TimeRangeSource
}

func (b classBlind) SubjectSets(p, o rdf.ID, dst []rdf.IDSet) []rdf.IDSet {
	all := rdf.NewStore()
	b.MatchIDs(rdf.Wildcard, rdf.Wildcard, rdf.Wildcard, func(t rdf.EncodedTriple) bool {
		all.AddEncoded(rdf.EncodedTriple{S: t.S, P: p, O: o})
		return true
	})
	return append(dst, all.SubjectSet(p, o))
}

// classWindowQueries each plan a window join whose BGP types the
// window's subject: against municipalities (the benchmark's shape, in
// one slice and across four), against hotspots, against the static
// coastline only, and inside an OPTIONAL.
var classWindowQueries = map[string]string{
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

// blindRows evaluates text over src with the class filter off, holding
// whatever locks release frees.
func blindRows(t *testing.T, src blindSource, text string, release func()) []string {
	t.Helper()
	defer release()
	q, err := stsparql.Parse(text, rdf.NewNamespaces())
	if err != nil {
		t.Fatal(err)
	}
	res, err := selectAll(stsparql.NewEvaluator(classBlind{src}), q)
	if err != nil {
		t.Fatal(err)
	}
	return renderSorted(res)
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
// exactly the rows of the same plan with the filter off, on every
// topology — including a subject typed in one member and located in
// another, and a flush overlay that moved a geometry into its private
// store while the type stayed in the base.
func TestClassWindowMatchesTypeProbe(t *testing.T) {
	type topo struct {
		name  string
		api   strabon.API
		blind func() (blindSource, func())
	}
	var topos []topo
	single := strabon.New()
	loadFixture(single)
	topos = append(topos, topo{"single", single, func() (blindSource, func()) {
		single.RLock()
		return strabon.View{single}, single.RUnlock
	}})
	for _, n := range []int{1, 2, 4} {
		sh := newSharded(n)
		loadFixture(sh)
		topos = append(topos, topo{fmt.Sprintf("sharded%d", n), sh, func() (blindSource, func()) {
			return sh.viewAll(), sh.lockAllRead()
		}})
	}
	split := newSharded(4)
	loadFixture(split)
	for _, g := range crossMemberSubject() {
		split.InsertAll(g)
	}
	if !split.split.Load() {
		t.Fatal("the cross-member subject did not latch the union-view fallback")
	}
	topos = append(topos, topo{"union-fallback", split, func() (blindSource, func()) {
		return split.viewAll(), split.lockAllRead()
	}})

	for _, tp := range topos {
		for name, text := range classWindowQueries {
			plan, err := tp.api.Explain(text)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, "join[window class=") {
				t.Fatalf("%s on %s: no class-filtered window in the plan:\n%s", name, tp.name, plan)
			}
			got, err := runQuery(tp.api, text)
			if err != nil {
				t.Fatal(err)
			}
			src, release := tp.blind()
			want := blindRows(t, src, text, release)
			if g := renderSorted(got); strings.Join(g, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s on %s: class-filtered rows differ from the type probe's:\n got  %v\n want %v", name, tp.name, g, want)
			}
			if len(want) == 0 && name != "optional-coast" {
				t.Errorf("%s on %s: no rows; the comparison shows nothing", name, tp.name)
			}
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
	// overlay's private store, the type in the base.
	sh := newSharded(2)
	loadFixture(sh)
	release := sh.lockAllRead()
	defer release()
	o, _ := strabon.NewOverlay(sh.viewAll(), nil)
	mun2, hasGeom := iri("http://example.org/mun2"), iri(nsStRDF+"hasGeometry")
	if !o.Remove(rdf.Triple{S: mun2, P: hasGeom, O: rdf.NewGeometry("POLYGON ((10 0, 15 0, 15 10, 10 10, 10 0))")}) ||
		!o.Add(rdf.Triple{S: mun2, P: hasGeom, O: rdf.NewGeometry("POLYGON ((10 0, 15 0, 15 7, 10 7, 10 0))")}) {
		t.Fatal("overlay did not take the geometry swap")
	}
	for name, text := range classWindowQueries {
		q, err := stsparql.Parse(text, sh.ns)
		if err != nil {
			t.Fatal(err)
		}
		res, err := selectAll(stsparql.NewEvaluator(o), q)
		if err != nil {
			t.Fatal(err)
		}
		got := renderSorted(res)
		want := blindRows(t, o, text, func() {})
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s on the overlay: class-filtered rows differ from the type probe's:\n got  %v\n want %v", name, got, want)
		}
	}
	q, err := stsparql.Parse(spatialJoinFourSlices, sh.ns)
	if err != nil {
		t.Fatal(err)
	}
	res, err := selectAll(stsparql.NewEvaluator(o), q)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Join(renderSorted(res), "\n"); !strings.Contains(rows, "m=<http://example.org/mun2>") {
		t.Errorf("the municipality whose geometry moved into the overlay lost its hotspots:\n%s", rows)
	}
}
