package stsparql

import "testing"

// TestPlanCacheEmptiesOnGenerationChange: plans pinned to a generation
// that has passed are dropped at once, not left for the LRU — under live
// writes a cache would otherwise fill with the dead plans of one-off
// texts.
func TestPlanCacheEmptiesOnGenerationChange(t *testing.T) {
	pc := NewPlanCache(8)
	ev := NewEvaluator(fixtureStore())
	for _, text := range []string{
		`SELECT ?h WHERE { ?h a noa:Hotspot . }`,
		`SELECT ?m WHERE { ?m a gag:Municipality . }`,
		`ASK { ?h a noa:Hotspot . }`,
	} {
		if _, err := ev.CompileCached(text, nil, pc, 1); err != nil {
			t.Fatal(err)
		}
	}
	if st := pc.Stats(); st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("at generation 1: %+v", st)
	}
	if _, err := ev.CompileCached(`SELECT ?h WHERE { ?h a noa:Hotspot . }`, nil, pc, 2); err != nil {
		t.Fatal(err)
	}
	if st := pc.Stats(); st.Entries != 1 || st.Evictions != 3 || st.Hits != 0 {
		t.Fatalf("after the generation moved: %+v", st)
	}
	if _, err := ev.CompileCached(`SELECT ?h WHERE { ?h a noa:Hotspot . }`, nil, pc, 2); err != nil {
		t.Fatal(err)
	}
	if st := pc.Stats(); st.Hits != 1 {
		t.Fatalf("repeat at the same generation missed: %+v", st)
	}
}
