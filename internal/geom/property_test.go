package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// boundedPoint produces coordinates in a Greece-like window so random
// geometries are numerically representative of the service data.
func boundedPoint(r *rand.Rand) Point {
	return Point{
		X: 19 + r.Float64()*10, // 19..29 deg E
		Y: 34 + r.Float64()*8,  // 34..42 deg N
	}
}

func randomSquare(r *rand.Rand) Polygon {
	c := boundedPoint(r)
	side := 0.01 + r.Float64()*2
	return NewSquare(c.X, c.Y, side)
}

// randomConvex builds a random convex polygon from a point cloud hull.
func randomConvex(r *rand.Rand) Polygon {
	n := 4 + r.Intn(8)
	c := boundedPoint(r)
	radius := 0.05 + r.Float64()*1.5
	pts := make([]Point, n)
	for i := range pts {
		ang := r.Float64() * 2 * math.Pi
		rad := radius * (0.3 + 0.7*r.Float64())
		pts[i] = Point{c.X + rad*math.Cos(ang), c.Y + rad*math.Sin(ang)}
	}
	hull := ConvexHull(pts)
	return Polygon{Shell: hull}
}

func quickCfg(seed int64) *quick.Config {
	return &quick.Config{
		MaxCount: 150,
		Rand:     rand.New(rand.NewSource(seed)),
		Values:   nil,
	}
}

func TestPropertyWKTRoundTripPreservesArea(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		p := randomConvex(r)
		if p.Shell == nil || !p.Shell.Valid() {
			continue
		}
		g, err := ParseWKT(WKT(p))
		if err != nil {
			t.Fatalf("roundtrip parse: %v", err)
		}
		if math.Abs(Area(g)-p.Area()) > 1e-9*math.Max(1, p.Area()) {
			t.Fatalf("area changed in WKT roundtrip: %g vs %g", Area(g), p.Area())
		}
	}
}

func TestPropertyIntersectionCommutesOnArea(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 150; i++ {
		a := randomSquare(r)
		b := randomConvex(r)
		if !b.Shell.Valid() {
			continue
		}
		ab := Intersection(a, b).Area()
		ba := Intersection(b, a).Area()
		tol := 1e-6 * math.Max(1, math.Max(a.Area(), b.Area()))
		if math.Abs(ab-ba) > tol {
			t.Fatalf("intersection area not symmetric: %g vs %g\nA=%s\nB=%s", ab, ba, WKT(a), WKT(b))
		}
	}
}

func TestPropertyInclusionExclusion(t *testing.T) {
	// area(A) + area(B) == area(A∪B) + area(A∩B)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 150; i++ {
		a := randomSquare(r)
		b := randomSquare(r)
		u := Union(a, b).Area()
		inter := Intersection(a, b).Area()
		lhs := a.Area() + b.Area()
		rhs := u + inter
		tol := 1e-4 * math.Max(1e-6, lhs)
		if math.Abs(lhs-rhs) > tol {
			t.Fatalf("inclusion-exclusion violated: %g vs %g\nA=%s\nB=%s", lhs, rhs, WKT(a), WKT(b))
		}
	}
}

func TestPropertyDifferencePartition(t *testing.T) {
	// area(A-B) + area(A∩B) == area(A)
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 150; i++ {
		a := randomConvex(r)
		b := randomSquare(r)
		if !a.Shell.Valid() {
			continue
		}
		d := Difference(a, b).Area()
		inter := Intersection(a, b).Area()
		tol := 1e-4 * math.Max(1e-6, a.Area())
		if math.Abs(d+inter-a.Area()) > tol {
			t.Fatalf("difference partition violated: %g + %g != %g\nA=%s\nB=%s",
				d, inter, a.Area(), WKT(a), WKT(b))
		}
	}
}

func TestPropertyIntersectionWithinOperands(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		a := randomSquare(r)
		b := randomConvex(r)
		if !b.Shell.Valid() {
			continue
		}
		inter := Intersection(a, b)
		if inter.Area() > a.Area()+1e-6 || inter.Area() > b.Area()+1e-6 {
			t.Fatalf("intersection bigger than operand")
		}
		// Every intersection polygon centroid must lie in both operands
		// (convex clip of convex-ish shapes; centroid is interior).
		for _, p := range inter {
			c := interiorPoint(p)
			if !PointInPolygon(c, a) && Distance(c, a) > 1e-6 {
				t.Fatalf("intersection point %v escapes A", c)
			}
			if !PointInPolygon(c, b) && Distance(c, b) > 1e-6 {
				t.Fatalf("intersection point %v escapes B", c)
			}
		}
	}
}

func TestPropertyEnvelopeConsistency(t *testing.T) {
	err := quick.Check(func(x1, y1, x2, y2 float64) bool {
		// Map raw floats into a sane range.
		f := func(v float64) float64 { return math.Mod(math.Abs(v), 100) }
		a := Point{f(x1), f(y1)}
		b := Point{f(x2), f(y2)}
		e := LineString{a, b}.Envelope()
		return e.ContainsPoint(a) && e.ContainsPoint(b) &&
			e.Width() >= 0 && e.Height() >= 0
	}, quickCfg(6))
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyConvexHullContainsInput(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		n := 3 + r.Intn(30)
		pts := make([]Point, n)
		for j := range pts {
			pts[j] = boundedPoint(r)
		}
		hull := ConvexHull(pts)
		if !hull.Valid() {
			continue // collinear degenerate cloud
		}
		poly := Polygon{Shell: hull}
		for _, p := range pts {
			if locateInPolygon(p, poly) == locOutside {
				t.Fatalf("hull excludes input point %v", p)
			}
		}
	}
}

func TestPropertyContainsImpliesIntersects(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 150; i++ {
		a := randomConvex(r)
		b := randomSquare(r)
		if !a.Shell.Valid() {
			continue
		}
		if Contains(a, b) && !Intersects(a, b) {
			t.Fatalf("Contains without Intersects:\nA=%s\nB=%s", WKT(a), WKT(b))
		}
		if Contains(a, b) && Disjoint(a, b) {
			t.Fatal("Contains with Disjoint")
		}
	}
}

func TestPropertyDistanceSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 80; i++ {
		a := randomSquare(r)
		b := randomSquare(r)
		d1 := Distance(a, b)
		d2 := Distance(b, a)
		if math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("distance not symmetric: %g vs %g", d1, d2)
		}
		if d1 > 0 && Intersects(a, b) {
			t.Fatal("positive distance but intersecting")
		}
	}
}
