package geom

import (
	"math"
	"sort"
)

// cross returns the z component of (b-a) x (c-a): positive when c is left
// of the directed line a->b.
func cross(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// orient classifies c relative to the directed segment a->b with an
// area-scaled tolerance: +1 left, -1 right, 0 collinear. The tolerance
// is Epsilon*max(1, |ab|); 1+|dx|+|dy| bounds max(1, |ab|) from above —
// in floating point too, since rounding is monotone and |dx|+|dy| never
// rounds below Hypot(dx, dy) — so a cross product outside that wider
// band has its sign decided without the square root, and only one inside
// it pays for the exact form. Both return the same value everywhere.
func orient(a, b, c Point) int {
	v := cross(a, b, c)
	band := Epsilon * (1 + math.Abs(b.X-a.X) + math.Abs(b.Y-a.Y))
	if v > band {
		return 1
	}
	if v < -band {
		return -1
	}
	scale := math.Max(1, a.DistanceTo(b))
	if v > Epsilon*scale {
		return 1
	}
	if v < -Epsilon*scale {
		return -1
	}
	return 0
}

// onSegment reports whether collinear point p lies within segment a-b:
// a box test, cheap enough to run before orient wherever both are asked.
func onSegment(a, b, p Point) bool {
	loX, hiX := a.X, b.X
	if loX > hiX {
		loX, hiX = hiX, loX
	}
	loY, hiY := a.Y, b.Y
	if loY > hiY {
		loY, hiY = hiY, loY
	}
	return loX-Epsilon <= p.X && p.X <= hiX+Epsilon &&
		loY-Epsilon <= p.Y && p.Y <= hiY+Epsilon
}

// segIntersection classifies the intersection of segments a-b and c-d.
type segResult int

const (
	segNone    segResult = iota // disjoint
	segCross                    // proper crossing at a single point
	segTouch                    // single shared point at an endpoint
	segOverlap                  // collinear overlap
)

// segmentIntersect computes the intersection between segments a-b and c-d.
// For segCross and segTouch, pt is the shared point; for segOverlap pt is
// one point of the shared sub-segment.
func segmentIntersect(a, b, c, d Point) (res segResult, pt Point) {
	o1 := orient(a, b, c)
	o2 := orient(a, b, d)
	o3 := orient(c, d, a)
	o4 := orient(c, d, b)

	if o1 != o2 && o3 != o4 && o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 {
		// Proper crossing: solve the 2x2 system.
		t := segParam(a, b, c, d)
		return segCross, Point{a.X + t*(b.X-a.X), a.Y + t*(b.Y-a.Y)}
	}
	// Collinear / touching cases.
	touches := make([]Point, 0, 4)
	if o1 == 0 && onSegment(a, b, c) {
		touches = append(touches, c)
	}
	if o2 == 0 && onSegment(a, b, d) {
		touches = append(touches, d)
	}
	if o3 == 0 && onSegment(c, d, a) {
		touches = append(touches, a)
	}
	if o4 == 0 && onSegment(c, d, b) {
		touches = append(touches, b)
	}
	switch {
	case len(touches) == 0:
		if o1 != o2 && o3 != o4 {
			// Endpoint-grazing crossing where one orientation is zero but
			// the zero point fell outside the segment box: treat as touch.
			t := segParam(a, b, c, d)
			if t >= -Epsilon && t <= 1+Epsilon {
				return segTouch, Point{a.X + t*(b.X-a.X), a.Y + t*(b.Y-a.Y)}
			}
		}
		return segNone, Point{}
	case len(touches) == 1:
		return segTouch, touches[0]
	default:
		// Distinct touch points mean collinear overlap; coincident ones a touch.
		first := touches[0]
		for _, p := range touches[1:] {
			if !p.Equals(first) {
				return segOverlap, first
			}
		}
		return segTouch, first
	}
}

// segParam returns parameter t along a->b of the line intersection with c->d.
func segParam(a, b, c, d Point) float64 {
	den := (b.X-a.X)*(d.Y-c.Y) - (b.Y-a.Y)*(d.X-c.X)
	if math.Abs(den) < 1e-30 {
		return 0
	}
	return ((c.X-a.X)*(d.Y-c.Y) - (c.Y-a.Y)*(d.X-c.X)) / den
}

// ringLocation classifies a point relative to a ring.
type ringLocation int

const (
	locOutside ringLocation = iota
	locInside
	locBoundary
)

// locateInRing classifies p against ring r using the winding/crossing rule
// with explicit boundary detection.
func locateInRing(p Point, r Ring) ringLocation {
	if len(r) < 4 {
		return locOutside
	}
	inside := false
	for i := 1; i < len(r); i++ {
		a, b := r[i-1], r[i]
		if onSegment(a, b, p) && orient(a, b, p) == 0 {
			return locBoundary
		}
		// Standard ray-casting: count edges crossing the horizontal ray to +X.
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xAt := a.X + (p.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
			if xAt > p.X {
				inside = !inside
			}
		}
	}
	if inside {
		return locInside
	}
	return locOutside
}

// locateInPolygon classifies p against polygon poly, honouring holes.
func locateInPolygon(p Point, poly Polygon) ringLocation {
	switch locateInRing(p, poly.Shell) {
	case locOutside:
		return locOutside
	case locBoundary:
		return locBoundary
	}
	for _, h := range poly.Holes {
		switch locateInRing(p, h) {
		case locInside:
			return locOutside
		case locBoundary:
			return locBoundary
		}
	}
	return locInside
}

// PointInPolygon reports whether p is inside or on the boundary of poly.
func PointInPolygon(p Point, poly Polygon) bool {
	return locateInPolygon(p, poly) != locOutside
}

// pointSegmentDistance returns the distance from p to segment a-b.
func pointSegmentDistance(p, a, b Point) float64 {
	ab := b.Sub(a)
	l2 := ab.X*ab.X + ab.Y*ab.Y
	if l2 < 1e-30 {
		return p.DistanceTo(a)
	}
	t := ((p.X-a.X)*ab.X + (p.Y-a.Y)*ab.Y) / l2
	t = math.Max(0, math.Min(1, t))
	return p.DistanceTo(Point{a.X + t*ab.X, a.Y + t*ab.Y})
}

// segmentDistance returns the minimal distance between segments a-b and c-d.
func segmentDistance(a, b, c, d Point) float64 {
	if res, _ := segmentIntersect(a, b, c, d); res != segNone {
		return 0
	}
	return math.Min(
		math.Min(pointSegmentDistance(a, c, d), pointSegmentDistance(b, c, d)),
		math.Min(pointSegmentDistance(c, a, b), pointSegmentDistance(d, a, b)),
	)
}

// Distance returns the minimal Euclidean distance between two geometries
// (0 when they intersect). This implements strdf:distance.
func Distance(g1, g2 Geometry) float64 {
	if Intersects(g1, g2) {
		return 0
	}
	s1 := boundarySegments(g1)
	s2 := boundarySegments(g2)
	p1 := loosePoints(g1)
	p2 := loosePoints(g2)
	best := math.Inf(1)
	for _, s := range s1 {
		for _, t := range s2 {
			best = math.Min(best, segmentDistance(s[0], s[1], t[0], t[1]))
		}
		for _, p := range p2 {
			best = math.Min(best, pointSegmentDistance(p, s[0], s[1]))
		}
	}
	for _, t := range s2 {
		for _, p := range p1 {
			best = math.Min(best, pointSegmentDistance(p, t[0], t[1]))
		}
	}
	for _, p := range p1 {
		for _, q := range p2 {
			best = math.Min(best, p.DistanceTo(q))
		}
	}
	return best
}

// boundarySegments returns every line segment of g's boundary/path.
func boundarySegments(g Geometry) [][2]Point {
	var out [][2]Point
	add := func(pts []Point) {
		for i := 1; i < len(pts); i++ {
			out = append(out, [2]Point{pts[i-1], pts[i]})
		}
	}
	switch v := g.(type) {
	case LineString:
		add(v)
	case MultiLineString:
		for _, l := range v {
			add(l)
		}
	case Polygon:
		for _, r := range v.Rings() {
			add(r)
		}
	case MultiPolygon:
		for _, p := range v {
			for _, r := range p.Rings() {
				add(r)
			}
		}
	case Collection:
		for _, m := range v {
			out = append(out, boundarySegments(m)...)
		}
	}
	return out
}

// loosePoints returns the point members of g (for distance computation).
func loosePoints(g Geometry) []Point {
	switch v := g.(type) {
	case Point:
		return []Point{v}
	case MultiPoint:
		return v
	case Collection:
		var out []Point
		for _, m := range v {
			out = append(out, loosePoints(m)...)
		}
		return out
	default:
		return nil
	}
}

// ConvexHull returns the convex hull of the input points (Andrew's
// monotone chain). The result ring is counter-clockwise and closed.
func ConvexHull(pts []Point) Ring {
	if len(pts) == 0 {
		return nil
	}
	sorted := append([]Point(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		return sorted[i].Y < sorted[j].Y
	})
	// Deduplicate.
	uniq := sorted[:1]
	for _, p := range sorted[1:] {
		if !p.Equals(uniq[len(uniq)-1]) {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) == 1 {
		return Ring{uniq[0], uniq[0], uniq[0], uniq[0]}
	}
	if len(uniq) == 2 {
		return Ring{uniq[0], uniq[1], uniq[0], uniq[0]}
	}
	var lower, upper []Point
	for _, p := range uniq {
		for len(lower) >= 2 && cross(lower[len(lower)-2], lower[len(lower)-1], p) <= 0 {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	for i := len(uniq) - 1; i >= 0; i-- {
		p := uniq[i]
		for len(upper) >= 2 && cross(upper[len(upper)-2], upper[len(upper)-1], p) <= 0 {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	hull := append(lower[:len(lower)-1], upper[:len(upper)-1]...)
	hull = append(hull, hull[0])
	return Ring(hull)
}

// interiorPoint returns a point strictly inside the polygon; used by the
// boolean-op classifier. It probes the centroid first, then midpoints of a
// horizontal scan through the ring's vertical middle.
func interiorPoint(p Polygon) Point {
	c := p.Shell.Centroid()
	if locateInPolygon(c, p) == locInside {
		return c
	}
	env := p.Envelope()
	// Scan a few horizontal lines; find a segment midpoint inside.
	for _, f := range []float64{0.5, 0.25, 0.75, 0.37, 0.61, 0.13, 0.87} {
		y := env.MinY + f*(env.MaxY-env.MinY)
		xs := ringScanXs(p.Shell, y)
		for _, h := range p.Holes {
			xs = append(xs, ringScanXs(h, y)...)
		}
		sort.Float64s(xs)
		for i := 1; i < len(xs); i++ {
			mid := Point{(xs[i-1] + xs[i]) / 2, y}
			if locateInPolygon(mid, p) == locInside {
				return mid
			}
		}
	}
	return c
}

// ringScanXs returns x coordinates where the horizontal line at y crosses r.
func ringScanXs(r Ring, y float64) []float64 {
	var xs []float64
	for i := 1; i < len(r); i++ {
		a, b := r[i-1], r[i]
		if (a.Y > y) != (b.Y > y) {
			xs = append(xs, a.X+(y-a.Y)/(b.Y-a.Y)*(b.X-a.X))
		}
	}
	return xs
}
