package rdf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestTermConstructors(t *testing.T) {
	iri := NewIRI("http://example.org/a")
	if !iri.IsIRI() || iri.IsLiteral() || iri.IsBlank() {
		t.Fatal("IRI kind flags wrong")
	}
	b := NewBlank("n1")
	if !b.IsBlank() {
		t.Fatal("blank kind wrong")
	}
	lit := NewLiteral("hello")
	if !lit.IsLiteral() {
		t.Fatal("literal kind wrong")
	}
	n := NewInteger(42)
	if !n.IsLiteral() || n.Value != "42" || n.Datatype != XSDInteger {
		t.Fatalf("NewInteger(42) = %v", n)
	}
	f := NewFloat(2.5)
	if v, ok := f.Float(); !ok || v != 2.5 {
		t.Fatalf("Float() = %v, %v", v, ok)
	}
	bo := NewBoolean(true)
	if v, ok := bo.Bool(); !ok || !v {
		t.Fatalf("Bool() = %v, %v", v, ok)
	}
	g := NewGeometry("POINT (1 2)")
	if !g.IsGeometry() {
		t.Fatal("geometry literal not recognized")
	}
	wkt := NewTypedLiteral("POINT (1 2)", StRDFWKT)
	if !wkt.IsGeometry() {
		t.Fatal("strdf:WKT literal not recognized as geometry")
	}
	if NewLiteral("POINT (1 2)").IsGeometry() {
		t.Fatal("plain literal must not be geometry")
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://e/x"), "<http://e/x>"},
		{NewBlank("b0"), "_:b0"},
		{NewLiteral("hi"), `"hi"`},
		{NewLangLiteral("Patras", "en"), `"Patras"@en`},
		{NewInteger(7), `"7"^^<` + XSDInteger + `>`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String() = %s, want %s", got, c.want)
		}
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	d := NewDictionary()
	terms := []Term{
		NewIRI("http://e/a"),
		NewIRI("http://e/b"),
		NewBlank("x"),
		NewLiteral("lit"),
		NewTypedLiteral("lit", XSDString),
		NewLangLiteral("lit", "el"),
		NewGeometry("POINT (1 1)"),
	}
	ids := make([]ID, len(terms))
	for i, tm := range terms {
		ids[i] = d.Encode(tm)
		if ids[i] == Wildcard {
			t.Fatal("encode returned wildcard id")
		}
	}
	// Re-encoding returns identical IDs.
	for i, tm := range terms {
		if got := d.Encode(tm); got != ids[i] {
			t.Fatalf("re-encode changed id: %d vs %d", got, ids[i])
		}
	}
	for i, id := range ids {
		if got := d.Decode(id); !got.Equal(terms[i]) {
			t.Fatalf("decode(%d) = %v, want %v", id, got, terms[i])
		}
	}
	if _, ok := d.Lookup(NewIRI("http://nowhere/")); ok {
		t.Fatal("lookup of unseen term succeeded")
	}
	if !d.Decode(Wildcard).IsZero() {
		t.Fatal("decoding wildcard should be zero term")
	}
	if !d.Decode(9999).IsZero() {
		t.Fatal("decoding unknown id should be zero term")
	}
	// Distinct literals with same lexical form must get distinct IDs.
	a := d.Encode(NewLiteral("v"))
	b := d.Encode(NewLangLiteral("v", "en"))
	c := d.Encode(NewTypedLiteral("v", XSDInteger))
	if a == b || b == c || a == c {
		t.Fatal("literal variants collided in dictionary")
	}
}

func tr(s, p, o string) Triple {
	return Triple{S: NewIRI(s), P: NewIRI(p), O: NewIRI(o)}
}

func TestStoreAddRemove(t *testing.T) {
	s := NewStore()
	t1 := tr("http://e/s1", "http://e/p", "http://e/o1")
	if !s.Add(t1) {
		t.Fatal("first add should be new")
	}
	if s.Add(t1) {
		t.Fatal("duplicate add should report false")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	enc := s.Dict().EncodeTriple(t1)
	if s.CountIDs(enc.S, enc.P, enc.O) != 1 {
		t.Fatal("Has should find the triple")
	}
	if !s.Remove(t1) {
		t.Fatal("remove failed")
	}
	if s.Remove(t1) {
		t.Fatal("second remove should fail")
	}
	if s.Len() != 0 || s.CountIDs(enc.S, enc.P, enc.O) != 0 {
		t.Fatal("store should be empty")
	}
}

func TestStoreMatchPatterns(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		s.Add(tr(fmt.Sprintf("http://e/s%d", i%3), "http://e/p1", fmt.Sprintf("http://e/o%d", i)))
	}
	s.Add(tr("http://e/s0", "http://e/p2", "http://e/o0"))

	d := s.Dict()
	s0, _ := d.Lookup(NewIRI("http://e/s0"))
	p1, _ := d.Lookup(NewIRI("http://e/p1"))
	p2, _ := d.Lookup(NewIRI("http://e/p2"))
	o0, _ := d.Lookup(NewIRI("http://e/o0"))

	// Every pattern is enumerated through its index ordering and must
	// agree with the O(1) count.
	count := func(a, b, c ID) int {
		n := 0
		s.MatchIDs(a, b, c, func(EncodedTriple) bool { n++; return true })
		if fast := s.CountIDs(a, b, c); fast != n {
			t.Fatalf("Count(%d,%d,%d) = %d, MatchIDs visited %d", a, b, c, fast, n)
		}
		return n
	}

	if got := count(s0, Wildcard, Wildcard); got != 5 {
		t.Fatalf("S-bound count = %d, want 5", got)
	}
	if got := count(Wildcard, p1, Wildcard); got != 10 {
		t.Fatalf("P-bound count = %d, want 10", got)
	}
	if got := count(Wildcard, Wildcard, o0); got != 2 {
		t.Fatalf("O-bound count = %d, want 2", got)
	}
	if got := count(s0, p2, Wildcard); got != 1 {
		t.Fatalf("SP-bound count = %d, want 1", got)
	}
	if got := count(s0, Wildcard, o0); got != 2 {
		t.Fatalf("SO-bound count = %d, want 2", got)
	}
	if got := count(Wildcard, p1, o0); got != 1 {
		t.Fatalf("PO-bound count = %d, want 1", got)
	}
	if got := count(s0, p1, o0); got != 1 {
		t.Fatalf("SPO-bound count = %d, want 1", got)
	}
	if got := count(Wildcard, Wildcard, Wildcard); got != 11 {
		t.Fatalf("full scan count = %d, want 11", got)
	}
}

// TestStoreMatchIDsReportsEarlyStop pins the return value composite
// sources concatenate scans by: true for a scan that ran to its end
// (an empty one included), false once the visitor stopped it.
func TestStoreMatchIDsReportsEarlyStop(t *testing.T) {
	s := NewStore()
	s.Add(tr("http://e/s", "http://e/p", "http://e/o"))
	s.Add(tr("http://e/s", "http://e/p", "http://e/o2"))
	p, _ := s.Dict().Lookup(NewIRI("http://e/p"))
	var seen int
	if !s.MatchIDs(Wildcard, p, Wildcard, func(EncodedTriple) bool { seen++; return true }) || seen != 2 {
		t.Fatalf("full scan: visited %d, want 2 and a true return", seen)
	}
	if s.MatchIDs(Wildcard, p, Wildcard, func(EncodedTriple) bool { return false }) {
		t.Fatal("a stopped scan reported running to its end")
	}
	if !s.MatchIDs(p, Wildcard, Wildcard, func(EncodedTriple) bool { return false }) {
		t.Fatal("an empty scan reported being stopped")
	}
}

func TestStoreSubjects(t *testing.T) {
	s := NewStore()
	typ := NewIRI(RDFType)
	hotspot := NewIRI("http://e/Hotspot")
	for i := 0; i < 5; i++ {
		s.Add(Triple{S: NewIRI(fmt.Sprintf("http://e/h%d", i)), P: typ, O: hotspot})
	}
	tid, _ := s.Dict().Lookup(typ)
	hid, _ := s.Dict().Lookup(hotspot)
	subs := s.SubjectSet(tid, hid)
	if subs.Len() != 5 || s.CountIDs(Wildcard, tid, hid) != 5 {
		t.Fatalf("subjects = %d, want 5", subs.Len())
	}
	for i := 0; i < 5; i++ {
		if id, _ := s.Dict().Lookup(NewIRI(fmt.Sprintf("http://e/h%d", i))); !subs.Has(id) {
			t.Fatalf("subject h%d missing from the set", i)
		}
	}
}

func TestNamespaces(t *testing.T) {
	ns := NewNamespaces()
	iri, err := ns.Expand("noa:Hotspot")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(iri, "#Hotspot") {
		t.Fatalf("expanded = %q", iri)
	}
	if _, err := ns.Expand("nope:X"); err == nil {
		t.Fatal("unknown prefix should error")
	}
	if _, err := ns.Expand("noprefix"); err == nil {
		t.Fatal("name without colon should error")
	}
	ns.Bind("ex", "http://example.org/")
	if got, _ := ns.Expand("ex:a"); got != "http://example.org/a" {
		t.Fatalf("custom prefix expand = %q", got)
	}
}

// allTriples decodes every triple of s.
func allTriples(s *Store) []Triple {
	var out []Triple
	d := s.Dict()
	s.MatchIDs(Wildcard, Wildcard, Wildcard, func(t EncodedTriple) bool {
		out = append(out, Triple{S: d.Decode(t.S), P: d.Decode(t.P), O: d.Decode(t.O)})
		return true
	})
	return out
}

func TestStoreRandomizedAgainstMap(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s := NewStore()
	ref := make(map[string]Triple)
	key := func(t Triple) string { return t.String() }
	mk := func() Triple {
		return tr(
			fmt.Sprintf("http://e/s%d", r.Intn(20)),
			fmt.Sprintf("http://e/p%d", r.Intn(5)),
			fmt.Sprintf("http://e/o%d", r.Intn(30)),
		)
	}
	for i := 0; i < 5000; i++ {
		t3 := mk()
		if r.Float64() < 0.7 {
			added := s.Add(t3)
			_, existed := ref[key(t3)]
			if added == existed {
				t.Fatalf("add mismatch for %v: added=%v existed=%v", t3, added, existed)
			}
			ref[key(t3)] = t3
		} else {
			removed := s.Remove(t3)
			_, existed := ref[key(t3)]
			if removed != existed {
				t.Fatalf("remove mismatch for %v", t3)
			}
			delete(ref, key(t3))
		}
		if s.Len() != len(ref) {
			t.Fatalf("size drift: store %d vs ref %d", s.Len(), len(ref))
		}
	}
	for _, t3 := range allTriples(s) {
		if _, ok := ref[key(t3)]; !ok {
			t.Fatalf("store has phantom triple %v", t3)
		}
	}
}

// brutePredicateCard recomputes PredicateCard by full scan, the oracle
// for the incrementally-maintained statistics.
func brutePredicateCard(s *Store, pred Term) (int, int, int) {
	n := 0
	subj := make(map[string]bool)
	obj := make(map[string]bool)
	pid, _ := s.Dict().Lookup(pred)
	for _, t := range allTriples(s) {
		if got, _ := s.Dict().Lookup(t.P); got != pid {
			continue
		}
		n++
		subj[t.S.String()] = true
		obj[t.O.String()] = true
	}
	return n, len(subj), len(obj)
}

func TestCountPattern(t *testing.T) {
	s := NewStore()
	for _, t3 := range []Triple{
		tr("http://e/a", "http://e/p", "http://e/x"),
		tr("http://e/a", "http://e/p", "http://e/y"),
		tr("http://e/b", "http://e/p", "http://e/x"),
		tr("http://e/b", "http://e/q", "http://e/x"),
	} {
		s.Add(t3)
	}
	i := func(v string) Term { return NewIRI(v) }
	// A zero Term is a wildcard; a term the store never saw is interned,
	// so it has an ID no triple carries.
	id := func(t Term) ID {
		if t.IsZero() {
			return Wildcard
		}
		return s.Dict().Encode(t)
	}
	for _, tc := range []struct {
		s, p, o Term
		want    int
	}{
		{Term{}, Term{}, Term{}, 4},
		{i("http://e/a"), Term{}, Term{}, 2},
		{Term{}, i("http://e/p"), Term{}, 3},
		{Term{}, Term{}, i("http://e/x"), 3},
		{i("http://e/a"), i("http://e/p"), Term{}, 2},
		{Term{}, i("http://e/p"), i("http://e/x"), 2},
		{i("http://e/b"), Term{}, i("http://e/x"), 2},
		{i("http://e/a"), i("http://e/p"), i("http://e/x"), 1},
		{i("http://e/a"), i("http://e/q"), i("http://e/x"), 0},
		{i("http://e/nope"), Term{}, Term{}, 0},
	} {
		if got := s.CountIDs(id(tc.s), id(tc.p), id(tc.o)); got != tc.want {
			t.Errorf("CountIDs(%v %v %v) = %d, want %d", tc.s, tc.p, tc.o, got, tc.want)
		}
	}
	triples, subjects, predicates, objects := s.StoreCard()
	if triples != 4 || subjects != 2 || predicates != 2 || objects != 2 {
		t.Fatalf("StoreCard = %d %d %d %d", triples, subjects, predicates, objects)
	}
}

func TestPredicateCardMaintainedUnderChurn(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := NewStore()
	preds := []Term{NewIRI("http://e/p0"), NewIRI("http://e/p1"), NewIRI("http://e/p2")}
	var live []Triple
	for i := 0; i < 3000; i++ {
		t3 := tr(
			fmt.Sprintf("http://e/s%d", r.Intn(15)),
			fmt.Sprintf("http://e/p%d", r.Intn(3)),
			fmt.Sprintf("http://e/o%d", r.Intn(25)),
		)
		if r.Float64() < 0.65 {
			s.Add(t3)
			live = append(live, t3)
		} else {
			s.Remove(t3)
		}
		if i%500 == 0 {
			for _, p := range preds {
				wn, ws, wo := brutePredicateCard(s, p)
				gn, gs, go_ := s.PredicateCard(s.Dict().Encode(p))
				if gn != wn || gs != ws || go_ != wo {
					t.Fatalf("step %d pred %v: got (%d,%d,%d), want (%d,%d,%d)",
						i, p, gn, gs, go_, wn, ws, wo)
				}
			}
		}
	}
	// Drain and verify the counters return to zero.
	for _, t3 := range live {
		s.Remove(t3)
	}
	for _, p := range preds {
		if n, ds, do := s.PredicateCard(s.Dict().Encode(p)); n != 0 || ds != 0 || do != 0 {
			t.Fatalf("after drain, pred %v card = (%d,%d,%d)", p, n, ds, do)
		}
	}
}
