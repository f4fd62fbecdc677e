package stsparql

import "testing"

// These tests pin the solution-modifier semantics — ORDER BY, LIMIT,
// OFFSET, DISTINCT and their interactions — so the plan/operator engine
// can be validated against the exact behaviour of the tree-walking
// evaluator they were first run against.

func TestOffsetPastEnd(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT ?h WHERE { ?h a noa:Hotspot . } OFFSET 10`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d, want 0 (offset past end)", len(res.Rows))
	}
}

func TestOffsetExactlyAtEnd(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT ?h WHERE { ?h a noa:Hotspot . } OFFSET 3`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d, want 0 (offset == row count)", len(res.Rows))
	}
}

func TestLimitZero(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT ?h WHERE { ?h a noa:Hotspot . } LIMIT 0`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d, want 0 (LIMIT 0)", len(res.Rows))
	}
	// The projection header survives even when no rows do.
	if len(res.Vars) != 1 || res.Vars[0] != "h" {
		t.Fatalf("vars = %v", res.Vars)
	}
}

func TestLimitLargerThanResult(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT ?h WHERE { ?h a noa:Hotspot . } LIMIT 100`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
}

func TestOrderByWithOffsetAndLimit(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT ?h ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . }
ORDER BY DESC(?c) ?h OFFSET 1 LIMIT 1`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	// Full order: (1.0, Hotspot_coast), (1.0, Hotspot_land), (0.5, Hotspot_sea);
	// OFFSET 1 LIMIT 1 picks the middle row.
	if got := res.at(0, "h").Value; got != noaNS+"Hotspot_land" {
		t.Fatalf("row = %v", res.at(0, "h"))
	}
}

func TestOrderOverUnboundVars(t *testing.T) {
	// ?pop is unbound for every hotspot: ordering must neither error nor
	// drop rows — unbound comparisons are treated as ties, preserving the
	// stable order.
	res := runSelect(t, fixtureStore(), `
SELECT ?h ?pop WHERE {
  ?h a noa:Hotspot .
  OPTIONAL { ?h gag:hasPopulation ?pop . }
} ORDER BY ?pop`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
}

func TestOrderMixedBoundUnbound(t *testing.T) {
	// Municipalities have populations, hotspots do not; ordering by ?pop
	// must keep all five rows.
	res := runSelect(t, fixtureStore(), `
SELECT ?x ?pop WHERE {
  { ?x a noa:Hotspot . } UNION { ?x a gag:Municipality . }
  OPTIONAL { ?x gag:hasPopulation ?pop . }
} ORDER BY DESC(?pop)`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	// The two bound rows compare against each other; 2500 sorts before
	// 1000 under DESC wherever the unbound block ends up.
	var popOrder []float64
	for i := range res.Rows {
		if v, ok := res.at(i, "pop").Float(); ok {
			popOrder = append(popOrder, v)
		}
	}
	if len(popOrder) != 2 || popOrder[0] != 2500 || popOrder[1] != 1000 {
		t.Fatalf("bound populations in order: %v", popOrder)
	}
}

func TestDistinctOnProjectedSubset(t *testing.T) {
	// DISTINCT applies to the projected columns only: three hotspots share
	// one sensor, so projecting just ?sensor collapses them.
	res := runSelect(t, fixtureStore(), `
SELECT DISTINCT ?sensor WHERE {
  ?h a noa:Hotspot ; noa:isDerivedFromSensor ?sensor .
}`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	// Projecting the hotspot too keeps all three rows distinct.
	res2 := runSelect(t, fixtureStore(), `
SELECT DISTINCT ?h ?sensor WHERE {
  ?h a noa:Hotspot ; noa:isDerivedFromSensor ?sensor .
}`)
	if len(res2.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res2.Rows))
	}
}

func TestDistinctOverExpressionProjection(t *testing.T) {
	// Both municipalities have area 50, so DISTINCT over the computed
	// column yields one row.
	res := runSelect(t, fixtureStore(), `
SELECT DISTINCT (strdf:area(?g) AS ?a) WHERE {
  ?m a gag:Municipality ; strdf:hasGeometry ?g .
}`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

func TestDistinctWithOrderAndLimit(t *testing.T) {
	res := runSelect(t, fixtureStore(), `
SELECT DISTINCT ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . }
ORDER BY ?c LIMIT 1`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if v, _ := res.at(0, "c").Float(); v != 0.5 {
		t.Fatalf("min confidence = %v", res.at(0, "c"))
	}
}

func TestDistinctUnboundVsBound(t *testing.T) {
	// A row where ?pop is unbound must stay distinct from rows where it is
	// bound, and two all-unbound rows collapse.
	res := runSelect(t, fixtureStore(), `
SELECT DISTINCT ?pop WHERE {
  ?x a noa:Hotspot .
  OPTIONAL { ?x gag:hasPopulation ?pop . }
}`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (three unbound rows collapse)", len(res.Rows))
	}
}

func TestOffsetAfterDistinctAndOrder(t *testing.T) {
	// Modifier order is DISTINCT -> ORDER -> OFFSET/LIMIT: offset applies
	// to the deduplicated, sorted rows.
	res := runSelect(t, fixtureStore(), `
SELECT DISTINCT ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . }
ORDER BY DESC(?c) OFFSET 1`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (two distinct confidences, skip one)", len(res.Rows))
	}
	if v, _ := res.at(0, "c").Float(); v != 0.5 {
		t.Fatalf("row = %v", res.at(0, "c"))
	}
}

func TestDuplicateLimitOffsetRejected(t *testing.T) {
	for _, src := range []string{
		`SELECT ?h WHERE { ?h a noa:Hotspot . } LIMIT 5 LIMIT 0`,
		`SELECT ?h WHERE { ?h a noa:Hotspot . } OFFSET 1 OFFSET 2`,
		`SELECT ?h WHERE { ?h a noa:Hotspot . } LIMIT 5 OFFSET 1 LIMIT 2`,
	} {
		if _, err := Parse(src, nil); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}
