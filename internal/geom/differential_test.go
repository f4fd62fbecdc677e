package geom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The differential test of the predicate kernel: every fast path in
// predicates.go / algorithms.go / geom.go must return what the verbatim
// copies in oracle_test.go return, on random simple polygons,
// multipolygons and 0.04-degree pixel squares and on the degenerate
// families the tolerance code exists for. A fast path that disagrees
// once is dropped, not special-cased.

// pixelSide is the SEVIRI pixel footprint the service emits hotspots as.
const pixelSide = 0.04

type diffGen struct{ r *rand.Rand }

// centre keeps everything inside one degree so random pairs interact.
func (g diffGen) centre() Point {
	return Point{22 + g.r.Float64(), 38 + g.r.Float64()}
}

// star returns a simple (star-shaped) closed ring of n vertices.
func (g diffGen) star(c Point, radius float64, n int) Ring {
	ring := make(Ring, 0, n+1)
	for i := 0; i < n; i++ {
		ang := (float64(i) + 0.8*g.r.Float64()) * 2 * math.Pi / float64(n)
		rad := radius * (0.4 + 0.6*g.r.Float64())
		ring = append(ring, Point{c.X + rad*math.Cos(ang), c.Y + rad*math.Sin(ang)})
	}
	return append(ring, ring[0])
}

func (g diffGen) polygon() Polygon {
	c := g.centre()
	radius := 0.03 + 0.5*g.r.Float64()
	p := Polygon{Shell: g.star(c, radius, 3+g.r.Intn(30))}
	if g.r.Intn(3) == 0 {
		// A hole well inside the shell's inner radius.
		p.Holes = []Ring{g.star(c, 0.3*radius, 3+g.r.Intn(6)).Reversed()}
	}
	return p
}

func (g diffGen) multi() MultiPolygon {
	m := make(MultiPolygon, 1+g.r.Intn(3))
	for i := range m {
		m[i] = g.polygon()
	}
	return m
}

// pixel returns a square whose corners sit on the 0.04-degree grid of a
// small neighbourhood, so two pixels are often equal, edge- or
// corner-adjacent.
func (g diffGen) pixel() Polygon {
	i, j := g.r.Intn(8), g.r.Intn(8)
	x, y := 22.4+float64(i)*pixelSide, 38.4+float64(j)*pixelSide
	return Envelope{MinX: x, MinY: y, MaxX: x + pixelSide, MaxY: y + pixelSide}.ToPolygon()
}

func (g diffGen) line() LineString {
	c := g.centre()
	l := make(LineString, 2+g.r.Intn(5))
	for i := range l {
		l[i] = Point{c.X + 0.4*(g.r.Float64()-0.5), c.Y + 0.4*(g.r.Float64()-0.5)}
	}
	return l
}

// geometry draws any kind, areas most often.
func (g diffGen) geometry() Geometry {
	switch g.r.Intn(10) {
	case 0:
		return g.centre()
	case 1:
		return MultiPoint{g.centre(), g.centre()}
	case 2:
		return g.line()
	case 3:
		return MultiLineString{g.line(), g.line()}
	case 4:
		return Collection{g.centre(), g.line(), g.polygon()}
	case 5, 6:
		return g.multi()
	case 7:
		return g.pixel()
	default:
		return g.polygon()
	}
}

func translate(p Polygon, d Point) Polygon {
	out := Polygon{Shell: make(Ring, len(p.Shell))}
	for i, v := range p.Shell {
		out.Shell[i] = v.Add(d)
	}
	for _, h := range p.Holes {
		hh := make(Ring, len(h))
		for i, v := range h {
			hh[i] = v.Add(d)
		}
		out.Holes = append(out.Holes, hh)
	}
	return out
}

// jitter moves every vertex by 0, 0.5, 1 or 2 x Epsilon per axis.
func (g diffGen) jitter(r Ring) Ring {
	steps := []float64{0, 0.5, -0.5, 1, -1, 2, -2}
	out := make(Ring, len(r))
	for i, v := range r[:len(r)-1] {
		out[i] = Point{v.X + steps[g.r.Intn(len(steps))]*Epsilon, v.Y + steps[g.r.Intn(len(steps))]*Epsilon}
	}
	out[len(r)-1] = out[0]
	return out
}

// edgeOf picks one edge of the shell.
func (g diffGen) edgeOf(p Polygon) (a, b Point) {
	i := 1 + g.r.Intn(len(p.Shell)-1)
	return p.Shell[i-1], p.Shell[i]
}

// pair draws the two operands of one comparison from family f.
func (g diffGen) pair(f int) (Geometry, Geometry) {
	switch f {
	case 0: // anything against anything
		return g.geometry(), g.geometry()
	case 1: // the service's shape: a pixel against a municipality-like area
		if g.r.Intn(2) == 0 {
			return g.pixel(), MultiPolygon{Polygon{Shell: g.star(Point{22.55, 38.55}, 0.4, 20+g.r.Intn(60))}}
		}
		return g.pixel(), g.multi()
	case 2: // pixels on one grid: equal, touching along an edge, at a corner
		return g.pixel(), g.pixel()
	case 3: // shared vertex
		a, b := g.polygon(), g.polygon()
		va := a.Shell[g.r.Intn(len(a.Shell))]
		vb := b.Shell[g.r.Intn(len(b.Shell))]
		return a, translate(b, va.Sub(vb))
	case 4: // collinear overlapping edges: a box standing on part of an edge
		a := g.polygon()
		p, q := g.edgeOf(a)
		s, e := p.Add(q.Sub(p).Scale(0.25)), p.Add(q.Sub(p).Scale(0.75+0.5*g.r.Float64()))
		n := Point{-(q.Y - p.Y), q.X - p.X}.Scale(0.5 * (g.r.Float64() - 0.5))
		return a, Polygon{Shell: Ring{s, e, e.Add(n), s.Add(n), s}}
	case 5: // a vertex of b on an edge of a
		a, b := g.polygon(), g.polygon()
		p, q := g.edgeOf(a)
		on := p.Add(q.Sub(p).Scale(g.r.Float64()))
		return a, translate(b, on.Sub(b.Shell[0]))
	case 6: // a square equal to (or within 2 Epsilon of) a hole
		c := g.centre()
		hole := NewSquare(c.X, c.Y, pixelSide).Shell
		a := Polygon{Shell: NewSquare(c.X, c.Y, 3*pixelSide).Shell, Holes: []Ring{hole.Reversed()}}
		if g.r.Intn(2) == 0 {
			return a, Polygon{Shell: hole}
		}
		return a, Polygon{Shell: g.jitter(hole)}
	case 7: // the same ring moved by 0.5-2 x Epsilon per coordinate
		a := g.polygon()
		if g.r.Intn(2) == 0 {
			a = g.pixel()
		}
		return a, Polygon{Shell: g.jitter(a.Shell), Holes: a.Holes}
	case 8: // squares a side apart, give or take a few Epsilon
		a := g.pixel()
		k := float64(g.r.Intn(9)-4) * 0.5 * Epsilon
		return a, translate(a, Point{pixelSide + k, float64(g.r.Intn(3)-1) * pixelSide})
	default: // points and lines a few Epsilon off an edge: inside orient's band, maybe outside the segment's box
		a := g.polygon()
		p, q := g.edgeOf(a)
		d := q.Sub(p)
		n := Point{-d.Y, d.X}.Scale(1 / math.Hypot(d.X, d.Y))
		near := p.Add(d.Scale(g.r.Float64())).Add(n.Scale(float64(g.r.Intn(61)-30) * Epsilon))
		if g.r.Intn(2) == 0 {
			return a, near
		}
		return a, LineString{near, near.Add(n.Scale(0.1 * (g.r.Float64() - 0.5)))}
	}
}

const diffFamilies = 10

func compareEnvelopes(t testing.TB, gs ...Geometry) {
	t.Helper()
	for _, g := range gs {
		if got, want := g.Envelope(), oracleEnvelope(g); got != want {
			t.Fatalf("Envelope = %+v, oracle %+v\n%s", got, want, WKT(g))
		}
	}
}

// comparePredicates holds the production predicates to the oracle on
// one pair, in both argument orders. Touches, Overlaps and the union
// fallback of Contains run the boolean operations, holed pairs included.
func comparePredicates(t testing.TB, a, b Geometry) {
	t.Helper()
	compareEnvelopes(t, a, b)
	for _, o := range [][2]Geometry{{a, b}, {b, a}} {
		x, y := o[0], o[1]
		check := func(name string, got, want bool) {
			if got != want {
				t.Fatalf("%s = %v, oracle %v\nA=%s\nB=%s", name, got, want, WKT(x), WKT(y))
			}
		}
		check("Intersects", Intersects(x, y), oracleIntersects(x, y))
		check("Contains", Contains(x, y), oracleContains(x, y))
		check("Within", Within(x, y), oracleContains(y, x))
		check("CoveredBy", CoveredBy(x, y), oracleContains(y, x))
		check("Touches", Touches(x, y), oracleTouches(x, y))
		check("Overlaps", Overlaps(x, y), oracleOverlaps(x, y))
	}
}

// runOperations sends one pair through the three boolean operations in
// both argument orders: each must return. (Their areas are held to the
// hole algebra by TestHoleAlgebraAreas; on these random rings the shell
// clipping itself still misses configurations, holes or not.)
func runOperations(a, b Geometry) {
	for _, o := range [][2]Geometry{{a, b}, {b, a}} {
		Intersection(o[0], o[1])
		Difference(o[0], o[1])
		Union(o[0], o[1])
	}
}

func TestPredicatesMatchOracle(t *testing.T) {
	pairs := 20000
	if testing.Short() {
		pairs = 2000
	}
	g := diffGen{rand.New(rand.NewSource(20))}
	hits, holed := 0, 0
	for i := 0; i < pairs; i++ {
		a, b := g.pair(i % diffFamilies)
		comparePredicates(t, a, b)
		runOperations(a, b)
		if oracleIntersects(a, b) {
			hits++
		}
		for _, p := range append(toPolys(a), toPolys(b)...) {
			if len(p.Holes) > 0 {
				holed++
				break
			}
		}
	}
	t.Logf("%d pairs, %d with a hole, %d intersecting", pairs, holed, hits)
	// The generator must exercise both outcomes and holes, or agreement
	// means nothing.
	if hits < pairs/5 || hits > pairs*19/20 || holed < pairs/10 {
		t.Fatalf("the generator is lopsided")
	}
}

// TestKernelPrimitivesMatchOracle compares the primitives pointwise,
// concentrating the third point inside and around orient's tolerance
// band — also where the constructive operations (which have no oracle
// copy) call them.
func TestKernelPrimitivesMatchOracle(t *testing.T) {
	n := 200000
	if testing.Short() {
		n = 20000
	}
	g := diffGen{rand.New(rand.NewSource(21))}
	scales := []float64{1e-6, 1e-3, pixelSide, 1, 50, 1e4, 1e9}
	for i := 0; i < n; i++ {
		s := scales[g.r.Intn(len(scales))]
		a := Point{(g.r.Float64() - 0.5) * s, (g.r.Float64() - 0.5) * s}
		b := Point{(g.r.Float64() - 0.5) * s, (g.r.Float64() - 0.5) * s}
		if g.r.Intn(4) == 0 {
			b.Y = a.Y // axis-parallel, as pixel edges are
		}
		d := b.Sub(a)
		length := math.Max(math.Hypot(d.X, d.Y), 1e-300)
		// c: along the line through a and b, then off it by a multiple of
		// the tolerance the exact form would apply there.
		tol := Epsilon * math.Max(1, length) / length
		off := []float64{0, 0.5, 0.999, 1, 1.001, 1.5, 2, 3, 30}[g.r.Intn(9)] * tol
		if g.r.Intn(2) == 0 {
			off = -off
		}
		along := -0.5 + 2*g.r.Float64()
		c := Point{a.X + along*d.X - off*d.Y/length, a.Y + along*d.Y + off*d.X/length}
		e := Point{c.X + (g.r.Float64()-0.5)*s, c.Y + (g.r.Float64()-0.5)*s}

		if got, want := orient(a, b, c), oracleOrient(a, b, c); got != want {
			t.Fatalf("orient(%v, %v, %v) = %d, oracle %d", a, b, c, got, want)
		}
		if got, want := onSegment(a, b, c), oracleOnSegment(a, b, c); got != want {
			t.Fatalf("onSegment(%v, %v, %v) = %v, oracle %v", a, b, c, got, want)
		}
		r1, p1 := segmentIntersect(a, b, c, e)
		r2, p2 := oracleSegmentIntersect(a, b, c, e)
		if r1 != r2 || p1 != p2 {
			t.Fatalf("segmentIntersect(%v, %v, %v, %v) = %d %v, oracle %d %v", a, b, c, e, r1, p1, r2, p2)
		}
		ring := Ring{a, b, e, a}
		if got, want := locateInRing(c, ring), oracleLocateInRing(c, ring); got != want {
			t.Fatalf("locateInRing(%v, %v) = %d, oracle %d", c, ring, got, want)
		}
	}
}

// TestSegmentBoxRejectIsNotEquivalent pins why lineLineIntersect keeps
// no per-segment envelope reject: a vertex within orient's band of a
// short segment's line (the band is Epsilon in cross-product units, so
// Epsilon/length in distance) touches it although the two segments'
// boxes are 20 Epsilon apart.
func TestSegmentBoxRejectIsNotEquivalent(t *testing.T) {
	a, b := Point{0, 0}, Point{pixelSide, 0}
	c, d := Point{pixelSide / 2, 20 * Epsilon}, Point{pixelSide / 2, 1}
	if res, _ := segmentIntersect(a, b, c, d); res != segTouch {
		t.Fatalf("segmentIntersect = %d, want a touch", res)
	}
	if (LineString{a, b}).Envelope().Intersects(LineString{c, d}.Envelope()) {
		t.Fatal("the boxes meet: the case no longer shows what it is pinned for")
	}
}

// fuzzGeometry decodes one geometry from fuzz bytes: vertices on a
// 0.02-degree lattice, each moved by up to +-32 quarter-Epsilons, so
// shared vertices, collinear edges and near-coincident coordinates are
// what the fuzzer finds first. Rings are closed but need not be simple:
// the kernel must agree with the oracle on invalid input too.
func fuzzGeometry(data []byte) (Geometry, []byte) {
	if len(data) < 2 {
		return nil, nil
	}
	kind, n := data[0]%5, 1+int(data[1]%7)
	data = data[2:]
	points := func(n int) []Point {
		pts := make([]Point, 0, n)
		for len(pts) < n && len(data) >= 4 {
			pts = append(pts, Point{
				X: 22 + float64(data[0]%16)*0.02 + float64(int8(data[1]))*0.25*Epsilon,
				Y: 38 + float64(data[2]%16)*0.02 + float64(int8(data[3]))*0.25*Epsilon,
			})
			data = data[4:]
		}
		return pts
	}
	ring := func(n int) Ring {
		pts := points(n + 2)
		if len(pts) == 0 {
			return nil
		}
		return append(Ring(pts), pts[0])
	}
	switch kind {
	case 0:
		pts := points(1)
		if len(pts) == 0 {
			return nil, nil
		}
		return pts[0], data
	case 1:
		return LineString(points(n + 1)), data
	case 2:
		return Polygon{Shell: ring(n)}, data
	case 3:
		return Polygon{Shell: ring(n), Holes: []Ring{ring(2)}}, data
	default:
		return MultiPolygon{{Shell: ring(n)}, {Shell: ring(3)}}, data
	}
}

func FuzzIntersectsMatchesOracle(f *testing.F) {
	g := diffGen{rand.New(rand.NewSource(22))}
	for i := 0; i < 32; i++ {
		seed := make([]byte, 8+g.r.Intn(72))
		g.r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, rest := fuzzGeometry(data)
		b, _ := fuzzGeometry(rest)
		if a == nil || b == nil {
			return
		}
		compareEnvelopes(t, a, b)
		for _, o := range [][2]Geometry{{a, b}, {b, a}} {
			x, y := o[0], o[1]
			if got, want := Intersects(x, y), oracleIntersects(x, y); got != want {
				t.Fatalf("Intersects = %v, oracle %v\nA=%s\nB=%s", got, want, WKT(x), WKT(y))
			}
			// Contains over several cover polygons may fall back to the
			// boolean operations, which are not hardened against the
			// self-intersecting rings the decoder can produce.
			if _, multi := x.(MultiPolygon); multi {
				continue
			}
			if got, want := Contains(x, y), oracleContains(x, y); got != want {
				t.Fatalf("Contains = %v, oracle %v\nA=%s\nB=%s", got, want, WKT(x), WKT(y))
			}
		}
	})
}

func TestParseWKTRejectsNonFinite(t *testing.T) {
	// The comparison-built envelopes skip a NaN where math.Min spread it,
	// so a non-finite coordinate must never get past the parser.
	for _, src := range []string{
		"POINT (NaN 1)", "POINT (1 nan)", "POINT (Inf 1)", "POINT (1 -Inf)", "POINT (+Infinity 0)",
		"POINT (1e999 0)", "POINT (0 -1e999)",
		"LINESTRING (0 0, 1e400 1)", "POLYGON ((0 0, 1 0, 1 NaN, 0 0))",
		"MULTIPOLYGON (((0 0, 1 0, 1 1e309, 0 0)))",
	} {
		if g, err := ParseWKT(src); err == nil {
			t.Errorf("ParseWKT(%q) = %v, want an error", src, g)
		}
	}
	// The largest finite magnitudes still parse.
	if _, err := ParseWKT(fmt.Sprintf("POINT (%g %g)", math.MaxFloat64, -math.MaxFloat64)); err != nil {
		t.Errorf("finite extremes rejected: %v", err)
	}
}
