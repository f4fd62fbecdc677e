package geom

import "math"

// This file implements the topological predicates exposed to stSPARQL as
// strdf:anyInteract (Intersects), strdf:contains, strdf:within,
// strdf:overlap, strdf:touches, strdf:disjoint and strdf:equals. The
// implementation decomposes every geometry into points, segments and
// polygons and evaluates the predicate pairwise, which matches the OGC
// semantics for the geometry subset used by the paper's datasets.
//
// The spatial joins run Intersects once per candidate row, so its
// evaluation order is cost order, never a change of answer (the
// differential test holds every step to the plain decomposition kept in
// oracle_test.go): envelopes first; then a dispatch on the concrete
// pair, Polygon x MultiPolygon included — a pixel against a municipality
// literal — which skips flatten's slices; and inside
// polygonPolygonIntersect the two O(n) containment probes before the
// O(n*m) boundary sweep, the three being one OR and the usual hit a
// pixel lying inside the cell. Point location asks the box test
// (onSegment) before orient, and orient takes a square root only inside
// its tolerance band (see algorithms.go). lineLineIntersect keeps its
// whole-line envelope reject and gets no per-segment one: orient's band
// is Epsilon/length wide in distance, so a vertex can touch a short
// segment's line from outside the segment's Epsilon-box
// (TestSegmentBoxRejectIsNotEquivalent).

// flatten decomposes any geometry into its atomic members.
func flatten(g Geometry) (pts []Point, lines []LineString, polys []Polygon) {
	switch v := g.(type) {
	case Point:
		pts = append(pts, v)
	case MultiPoint:
		pts = append(pts, v...)
	case LineString:
		if len(v) > 0 {
			lines = append(lines, v)
		}
	case MultiLineString:
		for _, l := range v {
			if len(l) > 0 {
				lines = append(lines, l)
			}
		}
	case Polygon:
		if !v.IsEmpty() {
			polys = append(polys, v)
		}
	case MultiPolygon:
		for _, p := range v {
			if !p.IsEmpty() {
				polys = append(polys, p)
			}
		}
	case Collection:
		for _, m := range v {
			p2, l2, g2 := flatten(m)
			pts = append(pts, p2...)
			lines = append(lines, l2...)
			polys = append(polys, g2...)
		}
	}
	return pts, lines, polys
}

// ringCount and ringAt iterate a polygon's rings (shell first, then
// holes) without materialising the slice Rings allocates — the
// predicate loops below run per candidate row of a spatial join.
func ringCount(p Polygon) int { return 1 + len(p.Holes) }

func ringAt(p Polygon, i int) Ring {
	if i == 0 {
		return p.Shell
	}
	return p.Holes[i-1]
}

// Intersects reports whether the two geometries share at least one point.
// This is the semantics of the paper's strdf:anyInteract filter function.
func Intersects(g1, g2 Geometry) bool {
	if g1 == nil || g2 == nil || g1.IsEmpty() || g2.IsEmpty() {
		return false
	}
	return g1.Envelope().Intersects(g2.Envelope()) && intersectsExact(g1, g2)
}

// intersectsExact is Intersects for two non-empty geometries whose
// envelopes meet.
func intersectsExact(g1, g2 Geometry) bool {
	// Atomic-pair fast paths: the spatial joins of the service compare one
	// stored geometry against one query geometry per candidate row, and
	// those are overwhelmingly simple polygons, points and the
	// multipolygons municipality literals parse to — dispatching on the
	// concrete pair skips the flatten decomposition (three slice
	// allocations per side) entirely. Emptiness is excluded by the caller
	// (and per member below), so these branches match flatten's non-empty
	// members exactly, in its argument order.
	switch a := g1.(type) {
	case Polygon:
		switch b := g2.(type) {
		case Polygon:
			return polygonPolygonIntersect(a, b)
		case MultiPolygon:
			for _, m := range b {
				if !m.IsEmpty() && polygonPolygonIntersect(a, m) {
					return true
				}
			}
			return false
		case Point:
			return locateInPolygon(b, a) != locOutside
		case LineString:
			return linePolygonIntersect(b, a)
		}
	case MultiPolygon:
		if b, ok := g2.(Polygon); ok {
			for _, m := range a {
				if !m.IsEmpty() && polygonPolygonIntersect(m, b) {
					return true
				}
			}
			return false
		}
	case Point:
		switch b := g2.(type) {
		case Polygon:
			return locateInPolygon(a, b) != locOutside
		case Point:
			return a.Equals(b)
		case LineString:
			return pointOnLine(a, b)
		}
	case LineString:
		switch b := g2.(type) {
		case Polygon:
			return linePolygonIntersect(a, b)
		case Point:
			return pointOnLine(b, a)
		case LineString:
			return lineLineIntersect(a, b)
		}
	}
	p1, l1, a1 := flatten(g1)
	p2, l2, a2 := flatten(g2)

	for _, p := range p1 {
		if anyPointHit(p, p2, l2, a2) {
			return true
		}
	}
	for _, p := range p2 {
		if anyPointHit(p, nil, l1, a1) {
			return true
		}
	}
	for _, la := range l1 {
		for _, lb := range l2 {
			if lineLineIntersect(la, lb) {
				return true
			}
		}
		for _, pb := range a2 {
			if linePolygonIntersect(la, pb) {
				return true
			}
		}
	}
	for _, lb := range l2 {
		for _, pa := range a1 {
			if linePolygonIntersect(lb, pa) {
				return true
			}
		}
	}
	for _, pa := range a1 {
		for _, pb := range a2 {
			if polygonPolygonIntersect(pa, pb) {
				return true
			}
		}
	}
	return false
}

func anyPointHit(p Point, pts []Point, lines []LineString, polys []Polygon) bool {
	for _, q := range pts {
		if p.Equals(q) {
			return true
		}
	}
	for _, l := range lines {
		if pointOnLine(p, l) {
			return true
		}
	}
	for _, poly := range polys {
		if locateInPolygon(p, poly) != locOutside {
			return true
		}
	}
	return false
}

func pointOnLine(p Point, l LineString) bool {
	for i := 1; i < len(l); i++ {
		if onSegment(l[i-1], l[i], p) && orient(l[i-1], l[i], p) == 0 {
			return true
		}
	}
	return len(l) == 1 && p.Equals(l[0])
}

func lineLineIntersect(a, b LineString) bool {
	if !a.Envelope().Intersects(b.Envelope()) {
		return false
	}
	for i := 1; i < len(a); i++ {
		for j := 1; j < len(b); j++ {
			if res, _ := segmentIntersect(a[i-1], a[i], b[j-1], b[j]); res != segNone {
				return true
			}
		}
	}
	return false
}

func linePolygonIntersect(l LineString, p Polygon) bool {
	if !l.Envelope().Intersects(p.Envelope()) {
		return false
	}
	for _, v := range l {
		if locateInPolygon(v, p) != locOutside {
			return true
		}
	}
	for i := 0; i < ringCount(p); i++ {
		if lineLineIntersect(l, LineString(ringAt(p, i))) {
			return true
		}
	}
	return false
}

func polygonPolygonIntersect(a, b Polygon) bool {
	if !a.Envelope().Intersects(b.Envelope()) {
		return false
	}
	// One reaching into the other? Two point locations, against a sweep
	// over every pair of edges.
	if locateInPolygon(a.Shell[0], b) != locOutside || locateInPolygon(b.Shell[0], a) != locOutside {
		return true
	}
	// Boundary crossing?
	for i := 0; i < ringCount(a); i++ {
		ra := LineString(ringAt(a, i))
		for j := 0; j < ringCount(b); j++ {
			if lineLineIntersect(ra, LineString(ringAt(b, j))) {
				return true
			}
		}
	}
	return false
}

// Disjoint is the negation of Intersects.
func Disjoint(g1, g2 Geometry) bool { return !Intersects(g1, g2) }

// Contains reports whether every point of g2 lies in g1 and the interiors
// share at least one point. This implements strdf:contains.
func Contains(g1, g2 Geometry) bool {
	if g1 == nil || g2 == nil || g1.IsEmpty() || g2.IsEmpty() {
		return false
	}
	if !g1.Envelope().Contains(g2.Envelope()) {
		return false
	}
	p2, l2, a2 := flatten(g2)
	_, l1, a1 := flatten(g1)

	// The container must be at least the dimension of the containee for the
	// cases the service uses (area contains area/line/point, line contains
	// point/line).
	for _, p := range p2 {
		if !pointCoveredBy(p, l1, a1) {
			return false
		}
	}
	for _, l := range l2 {
		if !lineCoveredBy(l, l1, a1) {
			return false
		}
	}
	for _, poly := range a2 {
		if !polygonCoveredByPolys(poly, a1) {
			return false
		}
	}
	// Both non-empty, one envelope inside the other: past Intersects' own
	// checks already.
	return intersectsExact(g1, g2)
}

// Within is the converse of Contains.
func Within(g1, g2 Geometry) bool { return Contains(g2, g1) }

// CoveredBy reports whether g1 lies entirely within g2 (boundary contact
// allowed). Used by the validation protocol's point-in-polygon tests.
func CoveredBy(g1, g2 Geometry) bool { return Contains(g2, g1) }

func pointCoveredBy(p Point, lines []LineString, polys []Polygon) bool {
	for _, poly := range polys {
		if locateInPolygon(p, poly) != locOutside {
			return true
		}
	}
	for _, l := range lines {
		if pointOnLine(p, l) {
			return true
		}
	}
	return false
}

// lineCoveredBy checks that every vertex and every segment midpoint of l
// lies in one of the cover geometries. Midpoint sampling resolves segments
// that leave and re-enter between vertices; the service's data (pixel
// squares vs municipality polygons) has no pathological re-entry cases
// below that sampling density.
func lineCoveredBy(l LineString, lines []LineString, polys []Polygon) bool {
	samples := make([]Point, 0, 2*len(l))
	samples = append(samples, l...)
	for i := 1; i < len(l); i++ {
		samples = append(samples, Point{(l[i-1].X + l[i].X) / 2, (l[i-1].Y + l[i].Y) / 2})
	}
	for _, p := range samples {
		if !pointCoveredBy(p, lines, polys) {
			return false
		}
	}
	return true
}

// polygonCoveredByPolys reports whether poly lies within the union of polys.
func polygonCoveredByPolys(poly Polygon, cover []Polygon) bool {
	if len(cover) == 0 {
		return false
	}
	// Common fast path: covered by a single polygon.
	for _, c := range cover {
		if polygonInPolygon(poly, c) {
			return true
		}
	}
	if len(cover) == 1 {
		return false
	}
	// Fast reject before the expensive union fallback: every sampled
	// point of poly (vertices + interior) must lie in some cover part —
	// a necessary condition, so failing it proves non-coverage.
	samples := append(Ring{interiorPoint(poly)}, poly.Shell...)
	for _, p := range samples {
		inAny := false
		for _, c := range cover {
			if locateInPolygon(p, c) != locOutside {
				inAny = true
				break
			}
		}
		if !inAny {
			return false
		}
	}
	// Union cover: subtract each cover polygon; empty remainder means covered.
	rem := MultiPolygon{poly}
	for _, c := range cover {
		rem = Difference(rem, c)
		if rem.IsEmpty() {
			return true
		}
	}
	return rem.Area() < Epsilon
}

// polygonInPolygon reports whether inner lies entirely inside outer
// (boundary contact allowed).
func polygonInPolygon(inner, outer Polygon) bool {
	if !outer.Envelope().Contains(inner.Envelope()) {
		return false
	}
	for _, v := range inner.Shell {
		if locateInPolygon(v, outer) == locOutside {
			return false
		}
	}
	// Boundary of inner must not cross into a hole or outside: check that
	// no inner edge properly crosses an outer ring edge.
	for _, ro := range outer.Rings() {
		for i := 1; i < len(inner.Shell); i++ {
			for j := 1; j < len(ro); j++ {
				if res, _ := segmentIntersect(inner.Shell[i-1], inner.Shell[i], ro[j-1], ro[j]); res == segCross {
					return false
				}
			}
		}
	}
	// A hole of outer must not sit inside inner with area.
	for _, h := range outer.Holes {
		hp := Polygon{Shell: h}
		if polygonPolygonIntersect(hp, inner) {
			ip := interiorPoint(hp)
			if locateInRing(ip, inner.Shell) == locInside && locateInPolygon(ip, outer) == locOutside {
				return false
			}
		}
	}
	return true
}

// Equals reports topological equality for the common case of identical
// ring vertex sets (possibly rotated/reversed) or area-equivalence.
func Equals(g1, g2 Geometry) bool {
	if g1 == nil || g2 == nil {
		return g1 == nil && g2 == nil
	}
	if g1.IsEmpty() && g2.IsEmpty() {
		return true
	}
	e1, e2 := g1.Envelope(), g2.Envelope()
	if !almostEq(e1.MinX, e2.MinX) || !almostEq(e1.MinY, e2.MinY) ||
		!almostEq(e1.MaxX, e2.MaxX) || !almostEq(e1.MaxY, e2.MaxY) {
		return false
	}
	if g1.Dimension() != g2.Dimension() {
		return false
	}
	switch g1.Dimension() {
	case 0:
		return Contains(Collection{g1, g1}, g2) || containsAllPoints(g1, g2) && containsAllPoints(g2, g1)
	case 2:
		a1 := toPolys(g1)
		a2 := toPolys(g2)
		if len(a1) == 1 && len(a2) == 1 && len(a1[0].Holes) == 0 && len(a2[0].Holes) == 0 &&
			ringsEquivalent(a1[0].Shell, a2[0].Shell) {
			return true
		}
		// Symmetric difference must be (relatively) empty; the boolean ops
		// may leave perturbation slivers on coincident boundaries.
		tol := 1e-5 * math.Max(Area(g1)+Area(g2), 1e-3)
		return Difference(g1, g2).Area() < tol && Difference(g2, g1).Area() < tol
	default:
		_, l1, _ := flatten(g1)
		_, l2, _ := flatten(g2)
		for _, l := range l1 {
			if !lineCoveredBy(l, l2, nil) {
				return false
			}
		}
		for _, l := range l2 {
			if !lineCoveredBy(l, l1, nil) {
				return false
			}
		}
		return true
	}
}

func containsAllPoints(g1, g2 Geometry) bool {
	p1, _, _ := flatten(g1)
	p2, _, _ := flatten(g2)
	for _, q := range p2 {
		found := false
		for _, p := range p1 {
			if p.Equals(q) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// ringsEquivalent reports whether two rings trace the same vertex cycle,
// possibly rotated and/or reversed.
func ringsEquivalent(a, b Ring) bool {
	if len(a) != len(b) {
		return false
	}
	n := len(a) - 1 // drop duplicate closing vertex
	if n < 3 {
		return false
	}
	try := func(b Ring) bool {
		for shift := 0; shift < n; shift++ {
			match := true
			for i := 0; i < n; i++ {
				if !a[i].Equals(b[(i+shift)%n]) {
					match = false
					break
				}
			}
			if match {
				return true
			}
		}
		return false
	}
	return try(b) || try(b.Reversed())
}

func almostEq(a, b float64) bool {
	d := a - b
	return d < 1e-7 && d > -1e-7
}

// Overlaps reports whether the interiors share area but neither contains
// the other (strdf:overlap for area geometries). For the area/area case the
// paper's HAVING strdf:overlap(...) uses this to test partial coastline
// coverage.
func Overlaps(g1, g2 Geometry) bool {
	if g1 == nil || g2 == nil || g1.IsEmpty() || g2.IsEmpty() {
		return false
	}
	if g1.Dimension() != 2 || g2.Dimension() != 2 {
		// For non-area pairs fall back to "interiors intersect but neither
		// contains the other".
		return Intersects(g1, g2) && !Contains(g1, g2) && !Contains(g2, g1)
	}
	inter := Intersection(g1, g2)
	if inter.Area() < Epsilon {
		return false
	}
	return !Contains(g1, g2) && !Contains(g2, g1)
}

// Touches reports whether the geometries share boundary points but no
// interior points.
func Touches(g1, g2 Geometry) bool {
	if !Intersects(g1, g2) {
		return false
	}
	if g1.Dimension() == 2 && g2.Dimension() == 2 {
		return Intersection(g1, g2).Area() < 1e-12
	}
	if g1.Dimension() == 0 && g2.Dimension() == 0 {
		return false
	}
	// Point/line vs area: intersects but point not interior.
	p1, l1, a1 := flatten(g1)
	_, l2, a2 := flatten(g2)
	if g1.Dimension() == 0 {
		for _, p := range p1 {
			for _, poly := range a2 {
				if locateInPolygon(p, poly) == locInside {
					return false
				}
			}
			for _, l := range l2 {
				if pointOnLine(p, l) && !isLineEndpoint(p, l) {
					return false
				}
			}
		}
		return true
	}
	if g2.Dimension() == 0 {
		return Touches(g2, g1)
	}
	// Line vs area: no line point strictly inside.
	checkLines := func(lines []LineString, polys []Polygon) bool {
		for _, l := range lines {
			for _, poly := range polys {
				for _, v := range l {
					if locateInPolygon(v, poly) == locInside {
						return false
					}
				}
				for i := 1; i < len(l); i++ {
					mid := Point{(l[i-1].X + l[i].X) / 2, (l[i-1].Y + l[i].Y) / 2}
					if locateInPolygon(mid, poly) == locInside {
						return false
					}
				}
			}
		}
		return true
	}
	return checkLines(l1, a2) && checkLines(l2, a1)
}

func isLineEndpoint(p Point, l LineString) bool {
	return len(l) > 0 && (p.Equals(l[0]) || p.Equals(l[len(l)-1]))
}
