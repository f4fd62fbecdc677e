package geom

import (
	"math"
	"sort"
)

// This file implements the constructive set operations exposed to stSPARQL
// as strdf:intersection, strdf:union (binary and aggregate) and
// strdf:difference. Area/area operations use the Greiner-Hormann clipping
// algorithm on hole-free rings with a deterministic perturbation fallback
// for degenerate configurations (shared vertices, collinear overlapping
// edges), followed by ring nesting to reassemble polygons with holes.

type boolOp int

const (
	opIntersection boolOp = iota
	opUnion
	opDifference
)

// Intersection returns the shared area of two geometries as a
// MultiPolygon. Non-area inputs contribute no area; use IntersectionG for
// mixed-dimension results.
func Intersection(g1, g2 Geometry) MultiPolygon {
	a1 := toPolys(g1)
	a2 := toPolys(g2)
	if len(a1) == 0 || len(a2) == 0 {
		return nil
	}
	var out MultiPolygon
	for _, p := range a1 {
		for _, q := range a2 {
			out = append(out, clipPolygons(p, q, opIntersection)...)
		}
	}
	return out
}

// Union returns the combined area of two geometries as a MultiPolygon.
func Union(g1, g2 Geometry) MultiPolygon {
	polys := append(toPolys(g1), toPolys(g2)...)
	return UnionAllPolygons(polys)
}

// UnionAllPolygons folds a polygon set into a union MultiPolygon. This is
// the strdf:union aggregate used by the coastline refinement query.
func UnionAllPolygons(polys []Polygon) MultiPolygon {
	var acc MultiPolygon
	for _, p := range polys {
		if p.IsEmpty() {
			continue
		}
		acc = unionInto(acc, p)
	}
	return acc
}

// unionInto merges p into the accumulated disjoint set acc, keeping members
// pairwise disjoint so later predicates stay simple.
func unionInto(acc MultiPolygon, p Polygon) MultiPolygon {
	cur := MultiPolygon{p}
	var out MultiPolygon
	for _, q := range acc {
		merged := false
		for i, c := range cur {
			if polygonPolygonIntersect(q, c) {
				u := clipPolygons(q, c, opUnion)
				// Replace c with the union members; q is consumed.
				cur = append(append(append(MultiPolygon{}, cur[:i]...), cur[i+1:]...), u...)
				merged = true
				break
			}
		}
		if !merged {
			out = append(out, q)
		}
	}
	return append(out, cur...)
}

// Difference returns the area of g1 not covered by g2 as a MultiPolygon.
func Difference(g1, g2 Geometry) MultiPolygon {
	a1 := toPolys(g1)
	a2 := toPolys(g2)
	if len(a1) == 0 {
		return nil
	}
	cur := MultiPolygon(a1)
	for _, q := range a2 {
		var next MultiPolygon
		for _, p := range cur {
			next = append(next, clipPolygons(p, q, opDifference)...)
		}
		cur = next
		if len(cur) == 0 {
			break
		}
	}
	return cur
}

// SymmetricDifference returns (g1 - g2) union (g2 - g1).
func SymmetricDifference(g1, g2 Geometry) MultiPolygon {
	d1 := Difference(g1, g2)
	d2 := Difference(g2, g1)
	return UnionAllPolygons(append([]Polygon(d1), d2...))
}

// IntersectionG is the dimension-general strdf:intersection: point inputs
// yield the contained points, line inputs the clipped line parts, and area
// inputs the clipped area.
func IntersectionG(g1, g2 Geometry) Geometry {
	if g1 == nil || g2 == nil {
		return Collection{}
	}
	d1, d2 := g1.Dimension(), g2.Dimension()
	if d1 > d2 {
		return IntersectionG(g2, g1)
	}
	switch d1 {
	case 0:
		pts, _, _ := flatten(g1)
		var out MultiPoint
		for _, p := range pts {
			if Intersects(p, g2) {
				out = append(out, p)
			}
		}
		return out
	case 1:
		if d2 == 1 {
			return lineLineIntersectionPoints(g1, g2)
		}
		_, lines, _ := flatten(g1)
		_, _, polys := flatten(g2)
		var out MultiLineString
		for _, l := range lines {
			out = append(out, clipLineToPolygons(l, polys)...)
		}
		return out
	default:
		return Intersection(g1, g2)
	}
}

func lineLineIntersectionPoints(g1, g2 Geometry) MultiPoint {
	_, l1, _ := flatten(g1)
	_, l2, _ := flatten(g2)
	var out MultiPoint
	for _, a := range l1 {
		for _, b := range l2 {
			for i := 1; i < len(a); i++ {
				for j := 1; j < len(b); j++ {
					if res, pt := segmentIntersect(a[i-1], a[i], b[j-1], b[j]); res == segCross || res == segTouch {
						out = append(out, pt)
					}
				}
			}
		}
	}
	return dedupPoints(out)
}

func dedupPoints(pts MultiPoint) MultiPoint {
	var out MultiPoint
	for _, p := range pts {
		dup := false
		for _, q := range out {
			if p.Equals(q) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}

// clipLineToPolygons keeps the parts of l inside the union of polys.
func clipLineToPolygons(l LineString, polys []Polygon) MultiLineString {
	if len(l) < 2 {
		return nil
	}
	var out MultiLineString
	var cur LineString
	flush := func() {
		if len(cur) >= 2 {
			out = append(out, cur)
		}
		cur = nil
	}
	for i := 1; i < len(l); i++ {
		a, b := l[i-1], l[i]
		// Split segment at all ring crossings.
		cuts := []float64{0, 1}
		for _, poly := range polys {
			for _, r := range poly.Rings() {
				for j := 1; j < len(r); j++ {
					if res, pt := segmentIntersect(a, b, r[j-1], r[j]); res == segCross || res == segTouch {
						t := projectParam(a, b, pt)
						cuts = append(cuts, t)
					}
				}
			}
		}
		sort.Float64s(cuts)
		for k := 1; k < len(cuts); k++ {
			t0, t1 := cuts[k-1], cuts[k]
			if t1-t0 < Epsilon {
				continue
			}
			mid := Point{a.X + (t0+t1)/2*(b.X-a.X), a.Y + (t0+t1)/2*(b.Y-a.Y)}
			p0 := Point{a.X + t0*(b.X-a.X), a.Y + t0*(b.Y-a.Y)}
			p1 := Point{a.X + t1*(b.X-a.X), a.Y + t1*(b.Y-a.Y)}
			inside := false
			for _, poly := range polys {
				if locateInPolygon(mid, poly) != locOutside {
					inside = true
					break
				}
			}
			if inside {
				if len(cur) == 0 {
					cur = append(cur, p0)
				}
				cur = append(cur, p1)
			} else {
				flush()
			}
		}
	}
	flush()
	return out
}

func projectParam(a, b, p Point) float64 {
	dx, dy := b.X-a.X, b.Y-a.Y
	l2 := dx*dx + dy*dy
	if l2 < 1e-30 {
		return 0
	}
	return ((p.X-a.X)*dx + (p.Y-a.Y)*dy) / l2
}

// toPolys extracts the polygonal members of any geometry.
func toPolys(g Geometry) []Polygon {
	if g == nil {
		return nil
	}
	_, _, polys := flatten(g)
	return polys
}

// clipPolygons applies a boolean op to two polygons (which may carry
// holes) and returns the resulting polygon set.
func clipPolygons(a, b Polygon, op boolOp) MultiPolygon {
	a = a.Normalized()
	b = b.Normalized()
	// Clip the shells alone (the hole-free case), then fold the holes
	// back in by set algebra over a = shellA - holesA and
	// b = shellB - holesB, so the shell clipper never sees a hole:
	base := clipShells(Polygon{Shell: a.Shell}, Polygon{Shell: b.Shell}, op)
	switch op {
	case opIntersection:
		// (shellA inter shellB) - holesA - holesB
		out := base
		for _, h := range append(a.Holes, b.Holes...) {
			out = subtractRing(out, h)
		}
		return out
	case opDifference:
		// a - b = (shellA - shellB) + (shellA inter holesB), all minus holesA.
		out := base
		for _, h := range b.Holes {
			out = append(out, clipShells(Polygon{Shell: a.Shell}, Polygon{Shell: holeAsShell(h)}, opIntersection)...)
		}
		for _, h := range a.Holes {
			out = subtractRing(out, h)
		}
		return out
	default: // union
		out := base
		// Holes survive where not covered by the other polygon.
		for _, h := range a.Holes {
			hp := Polygon{Shell: holeAsShell(h)}
			for _, rem := range Difference(hp, b) {
				out = subtractPolygon(out, rem)
			}
		}
		for _, h := range b.Holes {
			hp := Polygon{Shell: holeAsShell(h)}
			for _, rem := range Difference(hp, a) {
				out = subtractPolygon(out, rem)
			}
		}
		return out
	}
}

func holeAsShell(h Ring) Ring {
	if h.IsCCW() {
		return h
	}
	return h.Reversed()
}

func subtractRing(mp MultiPolygon, h Ring) MultiPolygon {
	var out MultiPolygon
	for _, m := range mp {
		out = append(out, removeRing(m, holeAsShell(h))...)
	}
	return out
}

// removeRing returns p minus the area inside the CCW ring r, handing
// clipShells hole-free operands only: through clipPolygons, every piece
// would subtract p's holes again, and pieces holding two holes trade
// them for ever. The holes r overlaps merge with it into one cut
// (pockets the merge encloses are p's area again), the cut leaves the
// bare shell, and the other holes go back into the piece that holds
// them.
func removeRing(p Polygon, r Ring) MultiPolygon {
	if len(p.Holes) == 0 {
		return clipShells(Polygon{Shell: p.Shell}, Polygon{Shell: r}, opDifference)
	}
	cut := Polygon{Shell: r}
	var keep []Ring
	var pockets MultiPolygon
	for _, h := range p.Holes {
		hp := Polygon{Shell: holeAsShell(h)}
		var u MultiPolygon
		if polygonPolygonIntersect(hp, Polygon{Shell: r}) {
			u = clipShells(hp, cut, opUnion)
		}
		if len(u) != 1 { // apart, or touching only
			keep = append(keep, h)
			continue
		}
		cut = Polygon{Shell: u[0].Shell}
		for _, ph := range u[0].Holes {
			pockets = append(pockets, clipShells(Polygon{Shell: holeAsShell(ph)}, Polygon{Shell: p.Shell}, opIntersection)...)
		}
	}
	out := append(clipShells(Polygon{Shell: p.Shell}, cut, opDifference), pockets...)
	for _, h := range keep {
		ip := interiorPoint(Polygon{Shell: holeAsShell(h)})
		for i := range out {
			if locateInPolygon(ip, out[i]) == locInside {
				out[i].Holes = append(out[i].Holes, h)
				break
			}
		}
	}
	return out
}

func subtractPolygon(mp MultiPolygon, p Polygon) MultiPolygon {
	var out MultiPolygon
	for _, m := range mp {
		out = append(out, clipPolygons(m, p, opDifference)...)
	}
	return out
}

// clipShells runs Greiner-Hormann on two hole-free polygons.
func clipShells(a, b Polygon, op boolOp) MultiPolygon {
	if a.IsEmpty() {
		if op == opUnion && !b.IsEmpty() {
			return MultiPolygon{b}
		}
		return nil
	}
	if b.IsEmpty() {
		if op == opUnion || op == opDifference {
			return MultiPolygon{a}
		}
		return nil
	}
	if !a.Envelope().Intersects(b.Envelope()) {
		return disjointResult(a, b, op)
	}
	for attempt := 0; attempt < 6; attempt++ {
		bb := b
		if attempt > 0 {
			bb = perturbPolygon(b, attempt)
		}
		rings, ok := greinerHormann(a.Shell, bb.Shell, op)
		if ok {
			return assemblePolygons(rings)
		}
	}
	// All perturbations degenerate (pathological input): fall back to the
	// containment-only approximation.
	return disjointOrNested(a, b, op)
}

// perturbPolygon translates and microscopically rotates b to break vertex
// and edge coincidences. The displacement is ~1e-7 of the envelope
// diagonal — metres at most — and deterministic per attempt.
func perturbPolygon(b Polygon, attempt int) Polygon {
	env := b.Envelope()
	diag := math.Hypot(env.Width(), env.Height())
	if diag < Epsilon {
		diag = 1
	}
	d := diag * 3e-8 * float64(attempt)
	angle := float64(attempt) * 1.2345
	dx, dy := d*math.Cos(angle), d*math.Sin(angle)
	shell := make(Ring, len(b.Shell))
	for i, p := range b.Shell {
		shell[i] = Point{p.X + dx, p.Y + dy}
	}
	return Polygon{Shell: shell}
}

func disjointResult(a, b Polygon, op boolOp) MultiPolygon {
	switch op {
	case opIntersection:
		return nil
	case opDifference:
		return MultiPolygon{a}
	default:
		return MultiPolygon{a, b}
	}
}

// disjointOrNested resolves the no-boundary-intersection cases.
func disjointOrNested(a, b Polygon, op boolOp) MultiPolygon {
	aInB := ringWithin(a.Shell, b.Shell)
	bInA := ringWithin(b.Shell, a.Shell)
	switch op {
	case opIntersection:
		if aInB {
			return MultiPolygon{a}
		}
		if bInA {
			return MultiPolygon{b}
		}
		return nil
	case opDifference:
		if aInB {
			return nil
		}
		if bInA {
			// a with hole b.
			hole := b.Shell
			if hole.IsCCW() {
				hole = hole.Reversed()
			}
			return MultiPolygon{{Shell: a.Shell, Holes: []Ring{hole}}}
		}
		return MultiPolygon{a}
	default:
		if aInB {
			return MultiPolygon{b}
		}
		if bInA {
			return MultiPolygon{a}
		}
		return MultiPolygon{a, b}
	}
}

// ghVertex is a node of the Greiner-Hormann doubly linked vertex list.
type ghVertex struct {
	pt         Point
	next, prev *ghVertex
	intersect  bool
	entry      bool
	visited    bool
	neighbor   *ghVertex
	alpha      float64 // position along the source edge, for ordering
}

// buildList converts a CCW ring into a circular linked list (dropping the
// duplicate closing vertex).
func buildList(r Ring) *ghVertex {
	n := len(r) - 1
	if n < 3 {
		return nil
	}
	var head, prev *ghVertex
	for i := 0; i < n; i++ {
		v := &ghVertex{pt: r[i]}
		if head == nil {
			head = v
		} else {
			prev.next = v
			v.prev = prev
		}
		prev = v
	}
	prev.next = head
	head.prev = prev
	return head
}

// greinerHormann clips CCW subject ring s against CCW clip ring c. The
// second return value is false when a degenerate intersection was found
// and the caller should perturb and retry.
func greinerHormann(s, c Ring, op boolOp) ([]Ring, bool) {
	if !s.IsCCW() {
		s = s.Reversed()
	}
	if !c.IsCCW() {
		c = c.Reversed()
	}
	subj := buildList(s)
	clip := buildList(c)
	if subj == nil || clip == nil {
		return nil, true
	}

	// Phase 1: find and insert intersections.
	degenerate := false
	nIntersections := 0
	forEachEdge(subj, func(s1 *ghVertex) bool {
		s2 := nextNonIntersect(s1)
		forEachEdge(clip, func(c1 *ghVertex) bool {
			c2 := nextNonIntersect(c1)
			res, pt := segmentIntersect(s1.pt, s2.pt, c1.pt, c2.pt)
			switch res {
			case segNone:
			case segCross:
				as := projectParam(s1.pt, s2.pt, pt)
				ac := projectParam(c1.pt, c2.pt, pt)
				if as < 1e-12 || as > 1-1e-12 || ac < 1e-12 || ac > 1-1e-12 {
					degenerate = true
					return false
				}
				vs := &ghVertex{pt: pt, intersect: true, alpha: as}
				vc := &ghVertex{pt: pt, intersect: true, alpha: ac}
				vs.neighbor, vc.neighbor = vc, vs
				insertBetween(s1, s2, vs)
				insertBetween(c1, c2, vc)
				nIntersections++
			default:
				degenerate = true
				return false
			}
			return true
		})
		return !degenerate
	})
	if degenerate {
		return nil, false
	}
	if nIntersections == 0 {
		sp := Polygon{Shell: s}
		cp := Polygon{Shell: c}
		return polysToRings(disjointOrNested(sp, cp, op)), true
	}
	if nIntersections%2 != 0 {
		// Numerically inconsistent crossing count; perturb and retry.
		return nil, false
	}

	// Phase 2: mark entry/exit. A subject intersection is an entry into the
	// clip polygon if the preceding position was outside the clip.
	markEntries(subj, c, op == opUnion || op == opDifference)
	markEntries(clip, s, op == opUnion)

	// Phase 3: trace result rings.
	var out []Ring
	for {
		start := firstUnvisited(subj)
		if start == nil {
			break
		}
		ring := traceRing(start)
		if len(ring) >= 3 {
			ring = append(ring, ring[0])
			rr := Ring(ring)
			if rr.Area() > 1e-18 {
				out = append(out, rr)
			}
		}
	}
	return out, true
}

func polysToRings(mp MultiPolygon) []Ring {
	var out []Ring
	for _, p := range mp {
		out = append(out, p.Shell)
		out = append(out, p.Holes...)
	}
	return out
}

// forEachEdge visits every original (non-intersection) vertex of the list.
func forEachEdge(head *ghVertex, f func(*ghVertex) bool) {
	v := head
	for {
		if !v.intersect {
			if !f(v) {
				return
			}
		}
		// Advance to next original vertex.
		v = nextNonIntersect(v)
		if v == head {
			return
		}
	}
}

func nextNonIntersect(v *ghVertex) *ghVertex {
	n := v.next
	for n.intersect {
		n = n.next
	}
	return n
}

// insertBetween inserts nv between original vertices a and b, ordered by
// alpha among any existing intersection vertices.
func insertBetween(a, b, nv *ghVertex) {
	cur := a
	for cur.next != b && cur.next.intersect && cur.next.alpha < nv.alpha {
		cur = cur.next
	}
	nv.next = cur.next
	nv.prev = cur
	cur.next.prev = nv
	cur.next = nv
}

// markEntries sets the entry flag on intersection vertices of list `head`
// with respect to ring other; invert flips the flags (for union/difference
// operand roles).
func markEntries(head *ghVertex, other Ring, invert bool) {
	// Status before the first vertex: is head.pt inside other?
	inside := locateInRing(head.pt, other) == locInside
	entry := !inside
	if invert {
		entry = !entry
	}
	v := head
	for {
		if v.intersect {
			v.entry = entry
			entry = !entry
		}
		v = v.next
		if v == head {
			return
		}
	}
}

// firstUnvisited finds an unprocessed intersection vertex.
func firstUnvisited(head *ghVertex) *ghVertex {
	v := head
	for {
		if v.intersect && !v.visited {
			return v
		}
		v = v.next
		if v == head {
			return nil
		}
	}
}

// traceRing walks the linked lists from an intersection vertex, switching
// lists at every intersection, until it returns to the start.
func traceRing(start *ghVertex) []Point {
	var out []Point
	v := start
	for i := 0; ; i++ {
		if i > 1<<20 {
			// Safety valve against list corruption.
			return nil
		}
		v.visited = true
		if v.neighbor != nil {
			v.neighbor.visited = true
		}
		if v.entry {
			for {
				out = append(out, v.pt)
				v = v.next
				if v.intersect {
					break
				}
			}
		} else {
			for {
				out = append(out, v.pt)
				v = v.prev
				if v.intersect {
					break
				}
			}
		}
		v.visited = true
		if v.neighbor == nil {
			return out
		}
		v = v.neighbor
		if v == start || (v.neighbor != nil && v.neighbor == start) || samePos(v, start) {
			return out
		}
	}
}

func samePos(a, b *ghVertex) bool {
	return a.pt.Equals(b.pt) && a.visited && b.visited
}

// assemblePolygons nests a flat set of rings into polygons with holes
// using even-odd containment depth.
func assemblePolygons(rings []Ring) MultiPolygon {
	if len(rings) == 0 {
		return nil
	}
	type node struct {
		ring  Ring
		depth int
	}
	nodes := make([]node, len(rings))
	for i, r := range rings {
		nodes[i] = node{ring: r}
	}
	// Depth = number of other rings containing this ring.
	for i := range nodes {
		for j := range nodes {
			if i != j && ringWithin(nodes[i].ring, nodes[j].ring) {
				nodes[i].depth++
			}
		}
	}
	// Sort shells (even depth) by depth so parents come first.
	sort.SliceStable(nodes, func(i, j int) bool { return nodes[i].depth < nodes[j].depth })
	var out MultiPolygon
	for _, n := range nodes {
		if n.depth%2 == 0 {
			out = append(out, Polygon{Shell: ccw(n.ring)})
		} else {
			// Attach hole to the innermost containing shell.
			for i := len(out) - 1; i >= 0; i-- {
				if ringWithin(n.ring, out[i].Shell) {
					out[i].Holes = append(out[i].Holes, cw(n.ring))
					break
				}
			}
		}
	}
	return out
}

// ringWithin reports whether ring r lies inside ring o, for rings whose
// edges do not cross: r's first vertex off o's boundary decides (an
// interior point would not — the outer of two concentric rings has one
// inside the inner).
func ringWithin(r, o Ring) bool {
	for _, v := range r {
		switch locateInRing(v, o) {
		case locInside:
			return true
		case locOutside:
			return false
		}
	}
	return locateInRing(interiorPoint(Polygon{Shell: ccw(r)}), o) == locInside
}

func ccw(r Ring) Ring {
	if r.IsCCW() {
		return r
	}
	return r.Reversed()
}

func cw(r Ring) Ring {
	if r.IsCCW() {
		return r.Reversed()
	}
	return r
}
