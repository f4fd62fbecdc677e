package geom

import (
	"math"
	"testing"
)

func TestPointBasics(t *testing.T) {
	p := Point{2, 3}
	if p.Kind() != KindPoint {
		t.Fatalf("kind = %v", p.Kind())
	}
	if p.Dimension() != 0 {
		t.Fatalf("dimension = %d", p.Dimension())
	}
	if got := p.DistanceTo(Point{5, 7}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("distance = %g, want 5", got)
	}
	if !p.Equals(Point{2 + 1e-12, 3}) {
		t.Fatal("Equals should tolerate sub-epsilon noise")
	}
	if p.Equals(Point{2.1, 3}) {
		t.Fatal("Equals accepted distinct point")
	}
}

func TestEnvelopeOperations(t *testing.T) {
	e := EmptyEnvelope()
	if !e.IsEmpty() {
		t.Fatal("EmptyEnvelope not empty")
	}
	e = e.Expand(Point{1, 2}.Envelope()).Expand(Point{4, 6}.Envelope())
	if e.Width() != 3 || e.Height() != 4 {
		t.Fatalf("extent = %gx%g, want 3x4", e.Width(), e.Height())
	}
	if e.Area() != 12 {
		t.Fatalf("area = %g", e.Area())
	}
	if c := e.Center(); c.X != 2.5 || c.Y != 4 {
		t.Fatalf("center = %v", c)
	}
	o := Envelope{MinX: 3, MinY: 5, MaxX: 10, MaxY: 10}
	if !e.Intersects(o) {
		t.Fatal("envelopes should intersect")
	}
	far := Envelope{MinX: 100, MinY: 100, MaxX: 101, MaxY: 101}
	if e.Intersects(far) {
		t.Fatal("disjoint envelopes reported intersecting")
	}
	if !e.Buffer(1).ContainsPoint(Point{0.5, 1.5}) {
		t.Fatal("buffered envelope should contain nearby point")
	}
	if !e.Contains(Envelope{MinX: 2, MinY: 3, MaxX: 3, MaxY: 4}) {
		t.Fatal("Contains failed for nested envelope")
	}
}

func TestRingAreaAndWinding(t *testing.T) {
	ccwRing := Ring{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}}
	if !ccwRing.Valid() {
		t.Fatal("ring should be valid")
	}
	if a := ccwRing.SignedArea(); math.Abs(a-16) > 1e-12 {
		t.Fatalf("signed area = %g, want 16", a)
	}
	if !ccwRing.IsCCW() {
		t.Fatal("ring should be CCW")
	}
	rev := ccwRing.Reversed()
	if rev.IsCCW() {
		t.Fatal("reversed ring should be CW")
	}
	if a := rev.Area(); math.Abs(a-16) > 1e-12 {
		t.Fatalf("area after reversal = %g", a)
	}
	c := ccwRing.Centroid()
	if math.Abs(c.X-2) > 1e-12 || math.Abs(c.Y-2) > 1e-12 {
		t.Fatalf("centroid = %v, want (2,2)", c)
	}
}

func TestPolygonAreaWithHole(t *testing.T) {
	poly := Polygon{
		Shell: Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}},
		Holes: []Ring{{{2, 2}, {2, 4}, {4, 4}, {4, 2}, {2, 2}}},
	}
	if a := poly.Area(); math.Abs(a-96) > 1e-9 {
		t.Fatalf("area = %g, want 96", a)
	}
	n := poly.Normalized()
	if !n.Shell.IsCCW() {
		t.Fatal("normalized shell should be CCW")
	}
	if n.Holes[0].IsCCW() {
		t.Fatal("normalized hole should be CW")
	}
}

func TestNewSquare(t *testing.T) {
	sq := NewSquare(10, 20, 4)
	if a := sq.Area(); math.Abs(a-16) > 1e-9 {
		t.Fatalf("area = %g, want 16", a)
	}
	c := sq.Centroid()
	if math.Abs(c.X-10) > 1e-9 || math.Abs(c.Y-20) > 1e-9 {
		t.Fatalf("centroid = %v", c)
	}
}

func TestWKTRoundTrip(t *testing.T) {
	cases := []string{
		"POINT (21.73 38.24)",
		"LINESTRING (0 0, 1 1, 2 0)",
		"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
		"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 2 4, 4 4, 4 2, 2 2))",
		"MULTIPOINT (1 1, 2 2)",
		"MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))",
		"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 5)))",
		"GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1))",
	}
	for _, src := range cases {
		g, err := ParseWKT(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		out := WKT(g)
		g2, err := ParseWKT(out)
		if err != nil {
			t.Fatalf("reparse %q: %v", out, err)
		}
		if g.Kind() != g2.Kind() {
			t.Fatalf("kind changed: %v -> %v", g.Kind(), g2.Kind())
		}
		e1, e2 := g.Envelope(), g2.Envelope()
		if !almostEq(e1.MinX, e2.MinX) || !almostEq(e1.MaxY, e2.MaxY) {
			t.Fatalf("envelope changed for %q", src)
		}
	}
}

func TestWKTPaperLiterals(t *testing.T) {
	// Geometries quoted verbatim from the paper's triples, including the
	// "x,y" comma-separated coordinate style of the gag dataset.
	cases := []string{
		"POLYGON ((21.52 37.91,21.57 37.91,21.56 37.88,21.56 37.88,21.52 37.87,21.52 37.91))",
		"POINT(23.8778 40.4003)",
		"POINT(21.73 38.24)",
		"POLYGON((23.74,38.03, 23.80,38.03, 23.80,38.08, 23.74,38.08, 23.74,38.03))",
		"POLYGON((21.027 38.36, 23.77 38.36, 23.77 36.05, 21.027 36.05, 21.027 38.36))",
	}
	for _, src := range cases {
		if _, err := ParseWKT(src); err != nil {
			t.Errorf("parse %q: %v", src, err)
		}
	}
}

func TestWKTEmptyForms(t *testing.T) {
	for _, src := range []string{
		"POLYGON EMPTY", "MULTIPOLYGON EMPTY", "LINESTRING EMPTY",
		"MULTIPOINT EMPTY", "GEOMETRYCOLLECTION EMPTY",
	} {
		g, err := ParseWKT(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if !g.IsEmpty() {
			t.Fatalf("%q should be empty", src)
		}
	}
}

func TestWKTErrors(t *testing.T) {
	for _, src := range []string{
		"", "FOO (1 2)", "POINT (1)", "POINT (1 2", "POINT (1 2) garbage",
		"POLYGON ((0 0, 1 1))", "LINESTRING (1 1)",
	} {
		if _, err := ParseWKT(src); err == nil {
			t.Errorf("parse %q: expected error", src)
		}
	}
}

func TestPointInPolygon(t *testing.T) {
	poly := MustParseWKT("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 4 6, 6 6, 6 4, 4 4))").(Polygon)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{1, 1}, true},
		{Point{5, 5}, false}, // inside hole
		{Point{11, 5}, false},
		{Point{0, 5}, true}, // on boundary
		{Point{4, 5}, true}, // on hole boundary
		{Point{9.99, 9.99}, true},
		{Point{-0.01, 5}, false},
	}
	for _, c := range cases {
		if got := PointInPolygon(c.p, poly); got != c.want {
			t.Errorf("PointInPolygon(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestIntersectsBasic(t *testing.T) {
	a := MustParseWKT("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	b := MustParseWKT("POLYGON ((2 2, 6 2, 6 6, 2 6, 2 2))")
	c := MustParseWKT("POLYGON ((10 10, 12 10, 12 12, 10 12, 10 10))")
	if !Intersects(a, b) {
		t.Fatal("overlapping polygons should intersect")
	}
	if Intersects(a, c) {
		t.Fatal("disjoint polygons should not intersect")
	}
	if !Disjoint(a, c) {
		t.Fatal("Disjoint is inverted")
	}
	pt := Point{1, 1}
	if !Intersects(pt, a) || !Intersects(a, pt) {
		t.Fatal("point in polygon should intersect both ways")
	}
	line := LineString{{-1, 2}, {5, 2}}
	if !Intersects(line, a) {
		t.Fatal("crossing line should intersect polygon")
	}
	outside := LineString{{-5, -5}, {-1, -1}}
	if Intersects(outside, a) {
		t.Fatal("outside line should not intersect")
	}
}

func TestIntersectsNestedPolygon(t *testing.T) {
	outer := MustParseWKT("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))")
	inner := MustParseWKT("POLYGON ((3 3, 5 3, 5 5, 3 5, 3 3))")
	if !Intersects(outer, inner) || !Intersects(inner, outer) {
		t.Fatal("nested polygons should intersect")
	}
}

func TestContainsWithin(t *testing.T) {
	outer := MustParseWKT("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))")
	inner := MustParseWKT("POLYGON ((3 3, 5 3, 5 5, 3 5, 3 3))")
	partial := MustParseWKT("POLYGON ((8 8, 12 8, 12 12, 8 12, 8 8))")
	if !Contains(outer, inner) {
		t.Fatal("outer should contain inner")
	}
	if Contains(inner, outer) {
		t.Fatal("inner must not contain outer")
	}
	if Contains(outer, partial) {
		t.Fatal("partially overlapping polygon is not contained")
	}
	if !Within(inner, outer) {
		t.Fatal("Within is the converse of Contains")
	}
	if !Contains(outer, Point{5, 5}) {
		t.Fatal("polygon should contain interior point")
	}
	if Contains(outer, Point{15, 5}) {
		t.Fatal("polygon must not contain exterior point")
	}
	line := LineString{{1, 1}, {9, 9}}
	if !Contains(outer, line) {
		t.Fatal("polygon should contain interior line")
	}
	crossing := LineString{{5, 5}, {15, 5}}
	if Contains(outer, crossing) {
		t.Fatal("polygon must not contain escaping line")
	}
}

func TestContainsHonoursHoles(t *testing.T) {
	donut := MustParseWKT("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 4 6, 6 6, 6 4, 4 4))")
	if Contains(donut, Point{5, 5}) {
		t.Fatal("point in hole must not be contained")
	}
	inHole := MustParseWKT("POLYGON ((4.5 4.5, 5.5 4.5, 5.5 5.5, 4.5 5.5, 4.5 4.5))")
	if Contains(donut, inHole) {
		t.Fatal("polygon inside hole must not be contained")
	}
	solidPart := MustParseWKT("POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))")
	if !Contains(donut, solidPart) {
		t.Fatal("polygon in solid part should be contained")
	}
}

func TestIntersectionAreas(t *testing.T) {
	a := MustParseWKT("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	b := MustParseWKT("POLYGON ((2 2, 6 2, 6 6, 2 6, 2 2))")
	inter := Intersection(a, b)
	if got := inter.Area(); math.Abs(got-4) > 1e-6 {
		t.Fatalf("intersection area = %g, want 4", got)
	}
	// Nested case.
	inner := MustParseWKT("POLYGON ((1 1, 2 1, 2 2, 1 2, 1 1))")
	inter2 := Intersection(a, inner)
	if got := inter2.Area(); math.Abs(got-1) > 1e-6 {
		t.Fatalf("nested intersection area = %g, want 1", got)
	}
	// Disjoint case.
	far := MustParseWKT("POLYGON ((100 100, 101 100, 101 101, 100 101, 100 100))")
	if got := Intersection(a, far); !got.IsEmpty() {
		t.Fatalf("disjoint intersection not empty: %v", got)
	}
}

func TestUnionAreas(t *testing.T) {
	a := MustParseWKT("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	b := MustParseWKT("POLYGON ((2 2, 6 2, 6 6, 2 6, 2 2))")
	u := Union(a, b)
	if got := u.Area(); math.Abs(got-28) > 1e-5 {
		t.Fatalf("union area = %g, want 28", got)
	}
	far := MustParseWKT("POLYGON ((100 100, 102 100, 102 102, 100 102, 100 100))")
	u2 := Union(a, far)
	if got := u2.Area(); math.Abs(got-20) > 1e-5 {
		t.Fatalf("disjoint union area = %g, want 20", got)
	}
	if len(u2) != 2 {
		t.Fatalf("disjoint union should keep 2 polygons, got %d", len(u2))
	}
}

func TestDifferenceAreas(t *testing.T) {
	a := MustParseWKT("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	b := MustParseWKT("POLYGON ((2 2, 6 2, 6 6, 2 6, 2 2))")
	d := Difference(a, b)
	if got := d.Area(); math.Abs(got-12) > 1e-5 {
		t.Fatalf("difference area = %g, want 12", got)
	}
	// Subtracting a nested polygon punches a hole.
	inner := MustParseWKT("POLYGON ((1 1, 2 1, 2 2, 1 2, 1 1))")
	d2 := Difference(a, inner)
	if got := d2.Area(); math.Abs(got-15) > 1e-5 {
		t.Fatalf("hole difference area = %g, want 15", got)
	}
	// Subtracting the container leaves nothing.
	d3 := Difference(inner, a)
	if !d3.IsEmpty() && d3.Area() > 1e-9 {
		t.Fatalf("difference with container should be empty, area %g", d3.Area())
	}
	// Disjoint subtraction is identity.
	far := MustParseWKT("POLYGON ((100 100, 101 100, 101 101, 100 101, 100 100))")
	d4 := Difference(a, far)
	if got := d4.Area(); math.Abs(got-16) > 1e-9 {
		t.Fatalf("disjoint difference area = %g, want 16", got)
	}
}

func TestDifferenceSharedEdge(t *testing.T) {
	// Adjacent squares sharing an edge: classic Greiner-Hormann degeneracy,
	// resolved by perturbation.
	a := MustParseWKT("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))")
	b := MustParseWKT("POLYGON ((2 0, 4 0, 4 2, 2 2, 2 0))")
	d := Difference(a, b)
	if got := d.Area(); math.Abs(got-4) > 1e-4 {
		t.Fatalf("shared-edge difference area = %g, want ~4", got)
	}
	inter := Intersection(a, b)
	if got := inter.Area(); got > 1e-4 {
		t.Fatalf("shared-edge intersection area = %g, want ~0", got)
	}
}

// TestHoleAlgebraAreas pins the boolean operations on polygons with
// holes — a donut losing rings nested in its body used to recurse until
// the stack overflowed — against areas worked out by hand.
func TestHoleAlgebraAreas(t *testing.T) {
	donut := Polygon{Shell: NewSquare(0, 0, 10).Shell, Holes: []Ring{NewSquare(-2, 0, 2).Shell.Reversed()}} // 96
	other := Polygon{Shell: NewSquare(1, 1, 10).Shell, Holes: []Ring{NewSquare(3, 3, 2).Shell.Reversed()}}  // 96
	twoHoles := Difference(donut, NewSquare(3, 0.3, 2))
	uShape := Ring{{4, 4}, {12, 4}, {12, 10}, {10, 10}, {10, 6}, {6, 6}, {6, 10}, {4, 10}, {4, 4}} // 32
	cupped := Polygon{Shell: NewSquare(10, 10, 20).Shell, Holes: []Ring{uShape.Reversed()}}
	for _, tc := range []struct {
		name string
		got  MultiPolygon
		want float64
	}{
		{"donut - ring in its body", twoHoles, 96 - 4},
		{"donut - ring overlapping its hole", Difference(donut, NewSquare(-1.5, 0.5, 2)), 100 - (4 + 4 - 2.25)},
		{"donut - ring across shell and hole", Difference(donut, NewSquare(-4.2, 0.2, 3)), 96 - (6.9 - 0.6)},
		{"two holes - a third ring", Difference(twoHoles, NewSquare(0, 3, 2)), 92 - 4},
		{"donut ∩ holed", Intersection(donut, other), 81 - 4 - 4},
		{"donut ∪ holed", Union(donut, other), 100 + 100 - 81},
		{"ring in the hole - donut", Difference(NewSquare(-2, 0, 1), donut), 1},
		{"ring in the hole ∩ donut", Intersection(NewSquare(-2, 0, 1), donut), 0},
		// Concentric shells: each interior point lies in the other shell.
		{"square - concentric square", Difference(NewSquare(0, 0, 10), NewSquare(0, 0, 2)), 96},
		{"square ∩ concentric square", Intersection(NewSquare(0, 0, 10), NewSquare(0, 0, 2)), 4},
		// The lid and the U-shaped hole enclose a pocket of the polygon.
		{"U-shaped hole - a lid", Difference(cupped, Polygon{Shell: Ring{{3.5, 9}, {12.5, 9}, {12.5, 14}, {3.5, 14}, {3.5, 9}}}), 400 - (32 + 45 - 4)},
	} {
		if got := tc.got.Area(); math.Abs(got-tc.want) > 1e-6 {
			t.Errorf("%s: area %g, want %g (%s)", tc.name, got, tc.want, WKT(tc.got))
		}
	}
}

func TestIdenticalPolygonsOps(t *testing.T) {
	a := MustParseWKT("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	if got := Intersection(a, a).Area(); math.Abs(got-16) > 1e-3 {
		t.Fatalf("self intersection area = %g, want 16", got)
	}
	if got := Difference(a, a).Area(); got > 1e-3 {
		t.Fatalf("self difference area = %g, want 0", got)
	}
	if got := Union(a, a).Area(); math.Abs(got-16) > 1e-3 {
		t.Fatalf("self union area = %g, want 16", got)
	}
}

func TestConcavePolygonClipping(t *testing.T) {
	// L-shaped subject, convex clip.
	l := MustParseWKT("POLYGON ((0 0, 4 0, 4 2, 2 2, 2 4, 0 4, 0 0))")
	clipPoly := MustParseWKT("POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))")
	inter := Intersection(l, clipPoly)
	// L area in clip window: the clip square is 2x2=4; the part of the L
	// inside it excludes the (2..3)x(2..3) notch square of area 1 => 3.
	if got := inter.Area(); math.Abs(got-3) > 1e-5 {
		t.Fatalf("concave intersection area = %g, want 3", got)
	}
	d := Difference(l, clipPoly)
	// L area = 12; minus 3 => 9.
	if got := d.Area(); math.Abs(got-9) > 1e-5 {
		t.Fatalf("concave difference area = %g, want 9", got)
	}
}

func TestUnionAllPolygons(t *testing.T) {
	var polys []Polygon
	// A row of overlapping squares.
	for i := 0; i < 5; i++ {
		polys = append(polys, NewSquare(float64(i)*1.5, 0, 2))
	}
	u := UnionAllPolygons(polys)
	// Total footprint: from -1 to 7 in X, -1..1 in Y = 8*2 = 16.
	if got := u.Area(); math.Abs(got-16) > 1e-3 {
		t.Fatalf("union-all area = %g, want 16", got)
	}
}

func TestIntersectionGMixedDimensions(t *testing.T) {
	poly := MustParseWKT("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	pts := MultiPoint{{1, 1}, {9, 9}, {2, 2}}
	got := IntersectionG(pts, poly)
	mp, ok := got.(MultiPoint)
	if !ok || len(mp) != 2 {
		t.Fatalf("point intersection = %#v, want 2 points", got)
	}
	line := LineString{{-2, 2}, {6, 2}}
	lres := IntersectionG(line, poly)
	mls, ok := lres.(MultiLineString)
	if !ok || len(mls) != 1 {
		t.Fatalf("line intersection = %#v", lres)
	}
	if got := mls[0].Length(); math.Abs(got-4) > 1e-6 {
		t.Fatalf("clipped line length = %g, want 4", got)
	}
}

func TestOverlaps(t *testing.T) {
	a := MustParseWKT("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	b := MustParseWKT("POLYGON ((2 2, 6 2, 6 6, 2 6, 2 2))")
	inner := MustParseWKT("POLYGON ((1 1, 2 1, 2 2, 1 2, 1 1))")
	far := MustParseWKT("POLYGON ((10 10, 12 10, 12 12, 10 12, 10 10))")
	if !Overlaps(a, b) {
		t.Fatal("partially overlapping polygons should Overlap")
	}
	if Overlaps(a, inner) {
		t.Fatal("contained polygon should not Overlap")
	}
	if Overlaps(a, far) {
		t.Fatal("disjoint polygons should not Overlap")
	}
}

func TestTouches(t *testing.T) {
	a := MustParseWKT("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))")
	pt := Point{2, 1} // on edge
	if !Touches(pt, a) {
		t.Fatal("boundary point should touch")
	}
	interior := Point{1, 1}
	if Touches(interior, a) {
		t.Fatal("interior point should not touch")
	}
}

func TestEqualsPredicate(t *testing.T) {
	a := MustParseWKT("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	// Same ring, rotated start vertex.
	b := MustParseWKT("POLYGON ((4 0, 4 4, 0 4, 0 0, 4 0))")
	c := MustParseWKT("POLYGON ((0 0, 5 0, 5 4, 0 4, 0 0))")
	if !Equals(a, b) {
		t.Fatal("rotated polygons should be Equal")
	}
	if Equals(a, c) {
		t.Fatal("different polygons must not be Equal")
	}
	if !Equals(Point{1, 2}, Point{1, 2}) {
		t.Fatal("identical points should be Equal")
	}
}

func TestDistance(t *testing.T) {
	a := MustParseWKT("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))")
	b := MustParseWKT("POLYGON ((5 0, 7 0, 7 2, 5 2, 5 0))")
	if got := Distance(a, b); math.Abs(got-3) > 1e-9 {
		t.Fatalf("polygon distance = %g, want 3", got)
	}
	if got := Distance(a, a); got != 0 {
		t.Fatalf("self distance = %g", got)
	}
	p := Point{4, 1}
	if got := Distance(p, a); math.Abs(got-2) > 1e-9 {
		t.Fatalf("point-polygon distance = %g, want 2", got)
	}
	l1 := LineString{{0, 5}, {2, 5}}
	if got := Distance(l1, a); math.Abs(got-3) > 1e-9 {
		t.Fatalf("line-polygon distance = %g, want 3", got)
	}
	if got := Distance(Point{0, 0}, Point{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("point distance = %g", got)
	}
}

func TestBoundary(t *testing.T) {
	poly := MustParseWKT("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	b := Boundary(poly)
	ls, ok := b.(LineString)
	if !ok {
		t.Fatalf("boundary type = %T", b)
	}
	if got := ls.Length(); math.Abs(got-16) > 1e-9 {
		t.Fatalf("boundary length = %g, want 16", got)
	}
	line := LineString{{0, 0}, {1, 0}}
	lb := Boundary(line).(MultiPoint)
	if len(lb) != 2 {
		t.Fatalf("line boundary has %d points", len(lb))
	}
	if pb := Boundary(Point{1, 1}); !pb.IsEmpty() {
		t.Fatal("point boundary should be empty")
	}
}

func TestConvexHull(t *testing.T) {
	pts := []Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {2, 2}, {1, 1}, {3, 2}}
	hull := ConvexHull(pts)
	if !hull.Valid() {
		t.Fatal("hull ring invalid")
	}
	if got := hull.Area(); math.Abs(got-16) > 1e-9 {
		t.Fatalf("hull area = %g, want 16", got)
	}
	if !hull.IsCCW() {
		t.Fatal("hull should be CCW")
	}
	// Degenerate inputs.
	if h := ConvexHull([]Point{{1, 1}}); len(h) == 0 {
		t.Fatal("single point hull empty")
	}
	if h := ConvexHull(nil); h != nil {
		t.Fatal("nil hull should be nil")
	}
}

func TestCentroidVariants(t *testing.T) {
	sq := NewSquare(2, 2, 2)
	c := Centroid(sq)
	if math.Abs(c.X-2) > 1e-9 || math.Abs(c.Y-2) > 1e-9 {
		t.Fatalf("square centroid = %v", c)
	}
	mp := MultiPolygon{NewSquare(0, 0, 2), NewSquare(10, 0, 2)}
	cm := Centroid(mp)
	if math.Abs(cm.X-5) > 1e-9 {
		t.Fatalf("multipolygon centroid = %v", cm)
	}
	cl := Centroid(LineString{{0, 0}, {4, 0}})
	if math.Abs(cl.X-2) > 1e-9 {
		t.Fatalf("line centroid = %v", cl)
	}
}

func TestAreaDispatch(t *testing.T) {
	if Area(Point{1, 1}) != 0 {
		t.Fatal("point area should be 0")
	}
	if got := Area(NewSquare(0, 0, 3)); math.Abs(got-9) > 1e-9 {
		t.Fatalf("square area = %g", got)
	}
	col := Collection{NewSquare(0, 0, 1), NewSquare(5, 5, 2)}
	if got := Area(col); math.Abs(got-5) > 1e-9 {
		t.Fatalf("collection area = %g", got)
	}
}
