package strabon

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/stsparql"
)

// TestWindowSkipChecksFromTheSmallerSide covers the member check behind
// a window scan's narrowing: with fewer subjects in the sets than p
// triples in the member it probes the member's SPO index once per
// subject, otherwise it walks the member's p triples and looks each
// subject up in the sets — stopping at the first hit either way, and
// holding nothing on an empty list of sets. A view skips exactly the
// members the check refuses; nil sets narrow nothing.
func TestWindowSkipChecksFromTheSmallerSide(t *testing.T) {
	dict := rdf.NewDictionary()
	hasGeom := rdf.NewIRI(ontology.StRDF + "hasGeometry")
	p := dict.Encode(hasGeom)
	ids := func(prefix string, n int) []rdf.ID {
		var out []rdf.ID
		for i := range n {
			out = append(out, dict.Encode(rdf.NewIRI(fmt.Sprintf("http://example.org/%s%d", prefix, i))))
		}
		return out
	}
	located, elsewhere := ids("located", 8), ids("elsewhere", 20)
	m := newMember(dict, stsparql.NewCache(dict))
	for i, s := range located {
		m.addEncoded(rdf.EncodedTriple{S: s, P: p, O: dict.Encode(rdf.NewGeometry(fmt.Sprintf("POINT (%d 0)", i)))})
	}
	// A type triple of an outside subject: holding it does not make the
	// member hold that subject's geometry.
	m.addEncoded(rdf.EncodedTriple{S: elsewhere[0], P: dict.Encode(rdf.NewIRI(rdf.RDFType)), O: dict.Encode(rdf.NewIRI(ontology.GAG + "Municipality"))})
	set := func(xs ...rdf.ID) rdf.IDSet {
		xs = slices.Clone(xs)
		slices.Sort(xs)
		return rdf.SortedIDSet(slices.Compact(xs))
	}

	for _, tc := range []struct {
		name   string
		sets   []rdf.IDSet
		held   bool
		looked int
	}{
		// 3 subjects < 8 triples: SPO probes, in set order (the IDs of
		// elsewhere are above those of located).
		{"probe, first subject hits", []rdf.IDSet{set(located[2], elsewhere[1], elsewhere[2])}, true, 1},
		{"probe, the second set hits", []rdf.IDSet{set(elsewhere[1]), set(elsewhere[2], located[5])}, true, 2},
		{"probe, every subject misses", []rdf.IDSet{set(elsewhere[0], elsewhere[1]), set(elsewhere[2])}, false, 3},
		// 12 subjects ≥ 8 triples: a walk of the member's p triples.
		{"walk, every triple hits", []rdf.IDSet{set(located...), set(elsewhere[:4]...)}, true, 1},
		{"walk, every triple misses", []rdf.IDSet{set(elsewhere[:12]...)}, false, 8},
		{"no sets", []rdf.IDSet{}, false, 0},
		{"nil sets", nil, true, 0},
	} {
		held, looked := m.holdsSubject(p, tc.sets)
		if held != tc.held || looked != tc.looked {
			t.Errorf("%s: held=%v after %d lookups, want held=%v after %d", tc.name, held, looked, tc.held, tc.looked)
		}
	}
	if held, looked := m.holdsSubject(dict.Encode(rdf.NewIRI(ontology.NOA+"hasGeometry")), []rdf.IDSet{set(located...)}); held || looked != 0 {
		t.Errorf("a predicate the member does not hold: held=%v after %d lookups", held, looked)
	}

	empty, other := newMember(dict, stsparql.NewCache(dict)), newMember(dict, stsparql.NewCache(dict))
	other.addEncoded(rdf.EncodedTriple{S: elsewhere[3], P: p, O: dict.Encode(rdf.NewGeometry("POINT (9 9)"))})
	v := View{empty, m, other}
	for _, tc := range []struct {
		name  string
		fixed [][]rdf.IDSet
		skip  uint64
	}{
		{"no filter", nil, 0},
		{"an unresolved filter", [][]rdf.IDSet{nil}, 0},
		{"located only", [][]rdf.IDSet{{set(located[0])}}, 0b101},
		{"both", [][]rdf.IDSet{{set(located[0]), set(elsewhere[3])}}, 0b001},
		{"every filter must hold", [][]rdf.IDSet{{set(located[0])}, {set(elsewhere[3])}}, 0b111},
		{"a term no triple carries", [][]rdf.IDSet{{}}, 0b111},
	} {
		skip, members := v.WindowSkip(p, tc.fixed)
		if skip != tc.skip || members != 3 {
			t.Errorf("%s: skip=%03b of %d members, want %03b of 3", tc.name, skip, members, tc.skip)
		}
	}
}
