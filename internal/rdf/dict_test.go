package rdf

import (
	"fmt"
	"sync"
	"testing"
)

// TestDictionaryAppendOnly pins the contract the ID-native execution
// engine relies on: IDs are dense, stable and never reused, and Decode
// of any previously returned ID keeps returning the same term no matter
// how many terms are interned afterwards.
func TestDictionaryAppendOnly(t *testing.T) {
	d := NewDictionary()
	terms := []Term{
		NewIRI("http://example.org/a"),
		NewBlank("b0"),
		NewLiteral("plain"),
		NewLangLiteral("bonjour", "fr"),
		NewTypedLiteral("42", XSDInteger),
		NewGeometry("POINT(1 2)"),
	}
	ids := make([]ID, len(terms))
	for i, tm := range terms {
		ids[i] = d.Encode(tm)
		if ids[i] != ID(i+1) {
			t.Fatalf("Encode(%v) = %d, want dense id %d", tm, ids[i], i+1)
		}
	}
	// Re-encoding is idempotent.
	for i, tm := range terms {
		if got := d.Encode(tm); got != ids[i] {
			t.Fatalf("re-Encode(%v) = %d, want %d", tm, got, ids[i])
		}
	}
	// Interning more terms never disturbs existing IDs.
	for i := 0; i < 1000; i++ {
		d.Encode(NewIRI(fmt.Sprintf("http://example.org/extra/%d", i)))
	}
	for i, tm := range terms {
		if got := d.Decode(ids[i]); !got.Equal(tm) {
			t.Fatalf("Decode(%d) = %v after growth, want %v", ids[i], got, tm)
		}
		if got, ok := d.Lookup(tm); !ok || got != ids[i] {
			t.Fatalf("Lookup(%v) = %d,%v after growth, want %d,true", tm, got, ok, ids[i])
		}
	}
	if d.Len() != len(terms)+1000 {
		t.Fatalf("Len = %d, want %d", d.Len(), len(terms)+1000)
	}
	if d.ApproxBytes() <= 0 {
		t.Fatalf("ApproxBytes = %d, want > 0", d.ApproxBytes())
	}
}

// readWhileAppending runs n readers beside the calling appender until
// the returned stop function is called: each keeps reading the length,
// decoding every ID it covers — across chunk boundaries — and looking
// the term up again, which must lead back to the ID. Under -race this is
// the concurrency contract: lock-free Decode/Len and read-locked Lookup
// beside one Encode.
func readWhileAppending(t *testing.T, d *Dictionary, n int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for id := ID(d.Len()); id >= 1; id-- {
					tm := d.Decode(id)
					if got, ok := d.Lookup(tm); !ok || got != id {
						t.Errorf("id %d decodes to %#v, which looks up as %d,%v", id, tm, got, ok)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	return func() { close(done); wg.Wait() }
}

// TestDictionaryConcurrentReaders pins what one dictionary per store
// topology needs: an appender working under one member's lock while
// readers holding other members' locks decode and look up.
func TestDictionaryConcurrentReaders(t *testing.T) {
	d := NewDictionary()
	stop := readWhileAppending(t, d, 4)
	const n = 3<<dictChunkBits + 17 // several chunks, the last one partial
	for i := 0; i < n; i++ {
		want := ID(i + 1)
		if got := d.Encode(NewIRI(fmt.Sprintf("http://example.org/t/%d", i))); got != want {
			t.Fatalf("Encode #%d = %d, want dense id %d", i, got, want)
		}
	}
	stop()
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
	if got := d.Decode(ID(n + 1)); !got.IsZero() {
		t.Fatalf("Decode past the end = %v, want zero term", got)
	}
}

// TestDictionaryZeroAndUnknown pins the wildcard/unknown edges.
func TestDictionaryZeroAndUnknown(t *testing.T) {
	d := NewDictionary()
	if got := d.Decode(Wildcard); !got.IsZero() {
		t.Fatalf("Decode(Wildcard) = %v, want zero term", got)
	}
	if got := d.Decode(99); !got.IsZero() {
		t.Fatalf("Decode(unknown) = %v, want zero term", got)
	}
	if _, ok := d.Lookup(NewIRI("http://never/seen")); ok {
		t.Fatal("Lookup of unseen term reported ok")
	}
}

// TestDictionaryDistinguishesLiteralShapes checks that a lexical form
// shared across plain, language-tagged and datatyped literals (and an
// IRI and a blank node of the same text) interns to distinct IDs.
func TestDictionaryDistinguishesLiteralShapes(t *testing.T) {
	d := NewDictionary()
	shapes := []Term{
		NewLiteral("x"),
		NewLangLiteral("x", "en"),
		NewLangLiteral("x", "de"),
		NewTypedLiteral("x", XSDString),
		NewTypedLiteral("x", XSDInteger),
		NewIRI("x"),
		NewBlank("x"),
	}
	seen := make(map[ID]Term)
	for _, tm := range shapes {
		id := d.Encode(tm)
		if prev, dup := seen[id]; dup {
			t.Fatalf("terms %v and %v collided on id %d", prev, tm, id)
		}
		seen[id] = tm
	}
}

// FuzzDictionaryRoundTrip fuzzes encode/decode round-trips over every
// term shape, including language-tagged and datatyped literals: Encode
// then Decode must reproduce the exact term, Lookup must agree with
// Encode, and distinct terms must never share an ID — all beside two
// concurrent readers.
func FuzzDictionaryRoundTrip(f *testing.F) {
	f.Add(uint8(0), "http://example.org/x", "", "")
	f.Add(uint8(1), "b1", "", "")
	f.Add(uint8(2), "plain text", "", "")
	f.Add(uint8(2), "bonjour", "", "fr")
	f.Add(uint8(2), "42", XSDInteger, "")
	f.Add(uint8(2), "POLYGON((0 0,1 0,1 1,0 0))", StRDFGeometry, "")
	f.Add(uint8(2), "a\x00b", "dt\x00x", "l\x00g") // NUL bytes must not confuse keys
	f.Fuzz(func(t *testing.T, kind uint8, value, datatype, lang string) {
		var tm Term
		switch kind % 3 {
		case 0:
			tm = NewIRI(value)
		case 1:
			tm = NewBlank(value)
		default:
			tm = Term{Kind: TermLiteral, Value: value, Datatype: datatype, Lang: lang}
		}
		if tm.IsZero() {
			// The zero term is not a valid dictionary entry; the engine
			// never encodes it (0 is the unbound sentinel).
			t.Skip()
		}
		d := NewDictionary()
		defer readWhileAppending(t, d, 2)()
		// Pre-populate with near-miss terms so collisions would surface.
		d.Encode(NewLiteral(value))
		d.Encode(NewIRI(value))
		d.Encode(Term{Kind: TermLiteral, Value: value, Datatype: lang, Lang: datatype})

		id := d.Encode(tm)
		if id == 0 {
			t.Fatal("Encode returned the wildcard id")
		}
		if got := d.Decode(id); !got.Equal(tm) {
			t.Fatalf("Decode(Encode(%#v)) = %#v", tm, got)
		}
		if got, ok := d.Lookup(tm); !ok || got != id {
			t.Fatalf("Lookup(%#v) = %d,%v; Encode gave %d", tm, got, ok, id)
		}
		if got := d.Encode(tm); got != id {
			t.Fatalf("second Encode(%#v) = %d, want %d", tm, got, id)
		}
		// Every interned term decodes back to something that re-encodes
		// to its own ID — pairwise distinctness.
		for i := 1; i <= d.Len(); i++ {
			back := d.Decode(ID(i))
			if got, ok := d.Lookup(back); !ok || got != ID(i) {
				t.Fatalf("id %d decodes to %#v which looks up as %d,%v", i, back, got, ok)
			}
		}
	})
}
