package geom

import "math"

// The oracle: the predicate kernel exactly as it stood before the
// sqrt-free orient, the box-before-orient boundary tests, the
// containment-first polygonPolygonIntersect, the Polygon x MultiPolygon
// dispatch and the comparison-built envelopes — kept verbatim (names
// prefixed, nothing else touched) so differential_test.go can hold the
// production kernel to "returns what that code returned" on generated
// input. Constructive operations (Intersection, Difference) have no copy
// here: the oracle predicates call the production ones, which reach the
// kernel only through the primitives compared pointwise below.

func oracleOrient(a, b, c Point) int {
	v := cross(a, b, c)
	scale := math.Max(1, a.DistanceTo(b))
	if v > Epsilon*scale {
		return 1
	}
	if v < -Epsilon*scale {
		return -1
	}
	return 0
}

func oracleOnSegment(a, b, p Point) bool {
	return math.Min(a.X, b.X)-Epsilon <= p.X && p.X <= math.Max(a.X, b.X)+Epsilon &&
		math.Min(a.Y, b.Y)-Epsilon <= p.Y && p.Y <= math.Max(a.Y, b.Y)+Epsilon
}

func oracleSegmentIntersect(a, b, c, d Point) (res segResult, pt Point) {
	o1 := oracleOrient(a, b, c)
	o2 := oracleOrient(a, b, d)
	o3 := oracleOrient(c, d, a)
	o4 := oracleOrient(c, d, b)

	if o1 != o2 && o3 != o4 && o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 {
		t := segParam(a, b, c, d)
		return segCross, Point{a.X + t*(b.X-a.X), a.Y + t*(b.Y-a.Y)}
	}
	touches := make([]Point, 0, 4)
	if o1 == 0 && oracleOnSegment(a, b, c) {
		touches = append(touches, c)
	}
	if o2 == 0 && oracleOnSegment(a, b, d) {
		touches = append(touches, d)
	}
	if o3 == 0 && oracleOnSegment(c, d, a) {
		touches = append(touches, a)
	}
	if o4 == 0 && oracleOnSegment(c, d, b) {
		touches = append(touches, b)
	}
	switch {
	case len(touches) == 0:
		if o1 != o2 && o3 != o4 {
			t := segParam(a, b, c, d)
			if t >= -Epsilon && t <= 1+Epsilon {
				return segTouch, Point{a.X + t*(b.X-a.X), a.Y + t*(b.Y-a.Y)}
			}
		}
		return segNone, Point{}
	case len(touches) == 1:
		return segTouch, touches[0]
	default:
		first := touches[0]
		for _, p := range touches[1:] {
			if !p.Equals(first) {
				return segOverlap, first
			}
		}
		return segTouch, first
	}
}

func oracleLocateInRing(p Point, r Ring) ringLocation {
	if len(r) < 4 {
		return locOutside
	}
	inside := false
	for i := 1; i < len(r); i++ {
		a, b := r[i-1], r[i]
		if oracleOrient(a, b, p) == 0 && oracleOnSegment(a, b, p) {
			return locBoundary
		}
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

func oracleLocateInPolygon(p Point, poly Polygon) ringLocation {
	switch oracleLocateInRing(p, poly.Shell) {
	case locOutside:
		return locOutside
	case locBoundary:
		return locBoundary
	}
	for _, h := range poly.Holes {
		switch oracleLocateInRing(p, h) {
		case locInside:
			return locOutside
		case locBoundary:
			return locBoundary
		}
	}
	return locInside
}

func oracleExpandPoint(e Envelope, p Point) Envelope {
	return Envelope{
		MinX: math.Min(e.MinX, p.X), MinY: math.Min(e.MinY, p.Y),
		MaxX: math.Max(e.MaxX, p.X), MaxY: math.Max(e.MaxY, p.Y),
	}
}

// oracleEnvelopeIntersection is the old Envelope.Intersection.
func oracleEnvelopeIntersection(e, o Envelope) Envelope {
	r := Envelope{
		MinX: math.Max(e.MinX, o.MinX), MinY: math.Max(e.MinY, o.MinY),
		MaxX: math.Min(e.MaxX, o.MaxX), MaxY: math.Min(e.MaxY, o.MaxY),
	}
	if r.IsEmpty() {
		return EmptyEnvelope()
	}
	return r
}

// oracleRingEnvelope is the old Ring.Envelope and LineString.Envelope.
func oracleRingEnvelope(r []Point) Envelope {
	e := EmptyEnvelope()
	for _, p := range r {
		e = oracleExpandPoint(e, p)
	}
	return e
}

// oracleEnvelope is Geometry.Envelope over the old per-type methods.
func oracleEnvelope(g Geometry) Envelope {
	e := EmptyEnvelope()
	switch v := g.(type) {
	case Point:
		return v.Envelope()
	case MultiPoint:
		return oracleRingEnvelope(v)
	case LineString:
		return oracleRingEnvelope(v)
	case MultiLineString:
		for _, l := range v {
			e = e.Expand(oracleRingEnvelope(l))
		}
	case Polygon:
		return oracleRingEnvelope(v.Shell)
	case MultiPolygon:
		for _, p := range v {
			e = e.Expand(oracleRingEnvelope(p.Shell))
		}
	case Collection:
		for _, m := range v {
			e = e.Expand(oracleEnvelope(m))
		}
	}
	return e
}

func oracleIntersects(g1, g2 Geometry) bool {
	if g1 == nil || g2 == nil || g1.IsEmpty() || g2.IsEmpty() {
		return false
	}
	if !oracleEnvelope(g1).Intersects(oracleEnvelope(g2)) {
		return false
	}
	switch a := g1.(type) {
	case Polygon:
		switch b := g2.(type) {
		case Polygon:
			return oraclePolygonPolygonIntersect(a, b)
		case Point:
			return oracleLocateInPolygon(b, a) != locOutside
		case LineString:
			return oracleLinePolygonIntersect(b, a)
		}
	case Point:
		switch b := g2.(type) {
		case Polygon:
			return oracleLocateInPolygon(a, b) != locOutside
		case Point:
			return a.Equals(b)
		case LineString:
			return oraclePointOnLine(a, b)
		}
	case LineString:
		switch b := g2.(type) {
		case Polygon:
			return oracleLinePolygonIntersect(a, b)
		case Point:
			return oraclePointOnLine(b, a)
		case LineString:
			return oracleLineLineIntersect(a, b)
		}
	}
	p1, l1, a1 := flatten(g1)
	p2, l2, a2 := flatten(g2)

	for _, p := range p1 {
		if oracleAnyPointHit(p, p2, l2, a2) {
			return true
		}
	}
	for _, p := range p2 {
		if oracleAnyPointHit(p, nil, l1, a1) {
			return true
		}
	}
	for _, la := range l1 {
		for _, lb := range l2 {
			if oracleLineLineIntersect(la, lb) {
				return true
			}
		}
		for _, pb := range a2 {
			if oracleLinePolygonIntersect(la, pb) {
				return true
			}
		}
	}
	for _, lb := range l2 {
		for _, pa := range a1 {
			if oracleLinePolygonIntersect(lb, pa) {
				return true
			}
		}
	}
	for _, pa := range a1 {
		for _, pb := range a2 {
			if oraclePolygonPolygonIntersect(pa, pb) {
				return true
			}
		}
	}
	return false
}

func oracleAnyPointHit(p Point, pts []Point, lines []LineString, polys []Polygon) bool {
	for _, q := range pts {
		if p.Equals(q) {
			return true
		}
	}
	for _, l := range lines {
		if oraclePointOnLine(p, l) {
			return true
		}
	}
	for _, poly := range polys {
		if oracleLocateInPolygon(p, poly) != locOutside {
			return true
		}
	}
	return false
}

func oraclePointOnLine(p Point, l LineString) bool {
	for i := 1; i < len(l); i++ {
		if oracleOrient(l[i-1], l[i], p) == 0 && oracleOnSegment(l[i-1], l[i], p) {
			return true
		}
	}
	return len(l) == 1 && p.Equals(l[0])
}

func oracleLineLineIntersect(a, b LineString) bool {
	if !oracleRingEnvelope(a).Intersects(oracleRingEnvelope(b)) {
		return false
	}
	for i := 1; i < len(a); i++ {
		for j := 1; j < len(b); j++ {
			if res, _ := oracleSegmentIntersect(a[i-1], a[i], b[j-1], b[j]); res != segNone {
				return true
			}
		}
	}
	return false
}

func oracleLinePolygonIntersect(l LineString, p Polygon) bool {
	if !oracleRingEnvelope(l).Intersects(oracleRingEnvelope(p.Shell)) {
		return false
	}
	for _, v := range l {
		if oracleLocateInPolygon(v, p) != locOutside {
			return true
		}
	}
	for i := 0; i < ringCount(p); i++ {
		if oracleLineLineIntersect(l, LineString(ringAt(p, i))) {
			return true
		}
	}
	return false
}

func oraclePolygonPolygonIntersect(a, b Polygon) bool {
	if !oracleRingEnvelope(a.Shell).Intersects(oracleRingEnvelope(b.Shell)) {
		return false
	}
	// Boundary crossing?
	for i := 0; i < ringCount(a); i++ {
		ra := LineString(ringAt(a, i))
		for j := 0; j < ringCount(b); j++ {
			if oracleLineLineIntersect(ra, LineString(ringAt(b, j))) {
				return true
			}
		}
	}
	// One fully inside the other?
	if oracleLocateInPolygon(a.Shell[0], b) != locOutside {
		return true
	}
	if oracleLocateInPolygon(b.Shell[0], a) != locOutside {
		return true
	}
	return false
}

func oracleContains(g1, g2 Geometry) bool {
	if g1 == nil || g2 == nil || g1.IsEmpty() || g2.IsEmpty() {
		return false
	}
	if !oracleEnvelope(g1).Contains(oracleEnvelopeIntersection(oracleEnvelope(g2), oracleEnvelope(g1))) ||
		!oracleEnvelope(g1).Contains(oracleEnvelope(g2)) {
		return false
	}
	p2, l2, a2 := flatten(g2)
	_, l1, a1 := flatten(g1)

	for _, p := range p2 {
		if !oraclePointCoveredBy(p, l1, a1) {
			return false
		}
	}
	for _, l := range l2 {
		if !oracleLineCoveredBy(l, l1, a1) {
			return false
		}
	}
	for _, poly := range a2 {
		if !oraclePolygonCoveredByPolys(poly, a1) {
			return false
		}
	}
	return oracleIntersects(g1, g2)
}

func oraclePointCoveredBy(p Point, lines []LineString, polys []Polygon) bool {
	for _, poly := range polys {
		if oracleLocateInPolygon(p, poly) != locOutside {
			return true
		}
	}
	for _, l := range lines {
		if oraclePointOnLine(p, l) {
			return true
		}
	}
	return false
}

func oracleLineCoveredBy(l LineString, lines []LineString, polys []Polygon) bool {
	samples := make([]Point, 0, 2*len(l))
	samples = append(samples, l...)
	for i := 1; i < len(l); i++ {
		samples = append(samples, Point{(l[i-1].X + l[i].X) / 2, (l[i-1].Y + l[i].Y) / 2})
	}
	for _, p := range samples {
		if !oraclePointCoveredBy(p, lines, polys) {
			return false
		}
	}
	return true
}

func oraclePolygonCoveredByPolys(poly Polygon, cover []Polygon) bool {
	if len(cover) == 0 {
		return false
	}
	for _, c := range cover {
		if oraclePolygonInPolygon(poly, c) {
			return true
		}
	}
	if len(cover) == 1 {
		return false
	}
	samples := append(Ring{interiorPoint(poly)}, poly.Shell...)
	for _, p := range samples {
		inAny := false
		for _, c := range cover {
			if oracleLocateInPolygon(p, c) != locOutside {
				inAny = true
				break
			}
		}
		if !inAny {
			return false
		}
	}
	rem := MultiPolygon{poly}
	for _, c := range cover {
		rem = Difference(rem, c)
		if rem.IsEmpty() {
			return true
		}
	}
	return rem.Area() < Epsilon
}

func oraclePolygonInPolygon(inner, outer Polygon) bool {
	if !oracleRingEnvelope(outer.Shell).Contains(oracleRingEnvelope(inner.Shell)) {
		return false
	}
	for _, v := range inner.Shell {
		if oracleLocateInPolygon(v, outer) == locOutside {
			return false
		}
	}
	for _, ro := range outer.Rings() {
		for i := 1; i < len(inner.Shell); i++ {
			for j := 1; j < len(ro); j++ {
				if res, _ := oracleSegmentIntersect(inner.Shell[i-1], inner.Shell[i], ro[j-1], ro[j]); res == segCross {
					return false
				}
			}
		}
	}
	for _, h := range outer.Holes {
		hp := Polygon{Shell: h}
		if oraclePolygonPolygonIntersect(hp, inner) {
			ip := interiorPoint(hp)
			if oracleLocateInRing(ip, inner.Shell) == locInside && oracleLocateInPolygon(ip, outer) == locOutside {
				return false
			}
		}
	}
	return true
}

func oracleOverlaps(g1, g2 Geometry) bool {
	if g1 == nil || g2 == nil || g1.IsEmpty() || g2.IsEmpty() {
		return false
	}
	if g1.Dimension() != 2 || g2.Dimension() != 2 {
		return oracleIntersects(g1, g2) && !oracleContains(g1, g2) && !oracleContains(g2, g1)
	}
	inter := Intersection(g1, g2)
	if inter.Area() < Epsilon {
		return false
	}
	return !oracleContains(g1, g2) && !oracleContains(g2, g1)
}

func oracleTouches(g1, g2 Geometry) bool {
	if !oracleIntersects(g1, g2) {
		return false
	}
	if g1.Dimension() == 2 && g2.Dimension() == 2 {
		return Intersection(g1, g2).Area() < 1e-12
	}
	if g1.Dimension() == 0 && g2.Dimension() == 0 {
		return false
	}
	p1, l1, a1 := flatten(g1)
	_, l2, a2 := flatten(g2)
	if g1.Dimension() == 0 {
		for _, p := range p1 {
			for _, poly := range a2 {
				if oracleLocateInPolygon(p, poly) == locInside {
					return false
				}
			}
			for _, l := range l2 {
				if oraclePointOnLine(p, l) && !isLineEndpoint(p, l) {
					return false
				}
			}
		}
		return true
	}
	if g2.Dimension() == 0 {
		return oracleTouches(g2, g1)
	}
	checkLines := func(lines []LineString, polys []Polygon) bool {
		for _, l := range lines {
			for _, poly := range polys {
				for _, v := range l {
					if oracleLocateInPolygon(v, poly) == locInside {
						return false
					}
				}
				for i := 1; i < len(l); i++ {
					mid := Point{(l[i-1].X + l[i].X) / 2, (l[i-1].Y + l[i].Y) / 2}
					if oracleLocateInPolygon(mid, poly) == locInside {
						return false
					}
				}
			}
		}
		return true
	}
	return checkLines(l1, a2) && checkLines(l2, a1)
}
