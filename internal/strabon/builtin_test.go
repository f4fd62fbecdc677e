package strabon

import (
	"math"
	"testing"
)

// TestBinaryUnionProbes: strdf:union of two geometries is the per-row
// union, an aggregate only with one argument. Over the fixture's two
// hotspots (1×1 squares), a projected binary union keeps one row per
// hotspot, and the area of a hotspot's union with a disjoint 5×5 box
// reads 26 on each row.
func TestBinaryUnionProbes(t *testing.T) {
	s := New()
	if _, err := s.LoadTurtle(fixtureTurtle); err != nil {
		t.Fatal(err)
	}
	res, err := runQuery(s, `SELECT ?s (strdf:union(?g, ?g) AS ?u) WHERE { ?s a noa:Hotspot ; strdf:hasGeometry ?g }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("binary union projected: %d rows, want 2", len(res.Rows))
	}
	res, err = runQuery(s, `SELECT ?s (strdf:area(strdf:union(?g, "POLYGON ((100 100, 105 100, 105 105, 100 105, 100 100))"^^strdf:WKT)) AS ?a)
WHERE { ?s a noa:Hotspot ; strdf:hasGeometry ?g }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("area of binary union: %d rows, want 2", len(res.Rows))
	}
	for i := range res.Rows {
		if a, ok := res.Rows[i][res.Col("a")].Float(); !ok || math.Abs(a-26) > 1e-6 {
			t.Errorf("row %d: area %v, want 26", i, res.Rows[i][res.Col("a")])
		}
	}
}
