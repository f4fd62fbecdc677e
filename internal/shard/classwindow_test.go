package shard

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

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
func referenceRows(t *testing.T, src stsparql.StatSource, text string) []string {
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
	// overlay's private store, the type in the base. The rules query the
	// overlay, then discard the flush.
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
	prepare := func(src string) *stsparql.Prepared {
		p, err := stsparql.Prepare(src, sh.Namespaces())
		if err != nil {
			t.Fatal(err)
		}
		return p
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
		}
		return errDiscard
	})
	if err != errDiscard {
		t.Fatalf("ApplyFlush = %v, want the discarding rules' error", err)
	}
}
