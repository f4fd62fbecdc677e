package stsparql

import "testing"

// TestPlanCacheEmptiesOnGenerationChange: plans pinned to a generation
// that has passed are dropped at once, not left for the LRU — under live
// writes a cache would otherwise fill with the dead plans of one-off
// texts. A plan enters on the second compile of its text, and a text
// seen before enters at its first compile of a new generation.
func TestPlanCacheEmptiesOnGenerationChange(t *testing.T) {
	pc := NewPlanCache(8)
	ev := NewEvaluator(fixtureStore())
	compile := func(text string, gen uint64) {
		t.Helper()
		if _, err := ev.CompileCached(text, nil, pc, gen); err != nil {
			t.Fatal(err)
		}
	}
	texts := []string{
		`SELECT ?h WHERE { ?h a noa:Hotspot . }`,
		`SELECT ?m WHERE { ?m a gag:Municipality . }`,
		`ASK { ?h a noa:Hotspot . }`,
	}
	for _, text := range texts {
		compile(text, 1)
	}
	if st := pc.Stats(); st.Entries != 0 || st.Declined != 3 || st.Misses != 3 {
		t.Fatalf("after first sightings: %+v", st)
	}
	for _, text := range texts {
		compile(text, 1)
	}
	if st := pc.Stats(); st.Entries != 3 || st.Evictions != 0 || st.Declined != 3 || st.Hits != 0 {
		t.Fatalf("at generation 1: %+v", st)
	}
	compile(texts[0], 2)
	if st := pc.Stats(); st.Entries != 1 || st.Evictions != 3 || st.Hits != 0 || st.Declined != 3 {
		t.Fatalf("after the generation moved: %+v", st)
	}
	compile(texts[0], 2)
	if st := pc.Stats(); st.Hits != 1 {
		t.Fatalf("repeat at the same generation missed: %+v", st)
	}
}

// TestPlanCacheForgetsOldestDeclined: the declined keys it remembers
// are bounded by the cache size, the oldest forgotten first.
func TestPlanCacheForgetsOldestDeclined(t *testing.T) {
	pc := NewPlanCache(2)
	ev := NewEvaluator(fixtureStore())
	compile := func(text string) {
		t.Helper()
		if _, err := ev.CompileCached(text, nil, pc, 1); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c := `ASK { ?h a noa:Hotspot . }`, `ASK { ?m a gag:Municipality . }`, `ASK { ?x a noa:Nothing . }`
	compile(a)
	compile(b)
	compile(c) // a is forgotten
	compile(a)
	if st := pc.Stats(); st.Entries != 0 || st.Declined != 4 {
		t.Fatalf("a first sighting past the bound was admitted: %+v", st)
	}
	compile(c)
	if st := pc.Stats(); st.Entries != 1 || st.Declined != 4 {
		t.Fatalf("a remembered key was declined again: %+v", st)
	}
}
