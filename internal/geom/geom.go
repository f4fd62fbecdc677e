// Package geom implements the planar geometry model used throughout the
// reproduction: points, linestrings and polygons with OGC Well-Known Text
// input/output, topological predicates (the strdf:* filter functions of
// stSPARQL), and polygon boolean operations (intersection, union,
// difference) needed by the hotspot refinement queries of the paper.
//
// The model is deliberately the subset of OGC Simple Features that the
// paper's queries exercise. Coordinates are EPSG:4326-style lon/lat pairs
// interpreted on a flat plane; the service area (Greece) is small enough
// that planar predicates preserve the paper's semantics.
package geom

import (
	"fmt"
	"math"
)

// Kind enumerates the geometry types supported by the engine.
type Kind int

// Geometry kinds, in the order WKT names them.
const (
	KindPoint Kind = iota
	KindLineString
	KindPolygon
	KindMultiPoint
	KindMultiLineString
	KindMultiPolygon
	KindCollection
)

// String returns the WKT tag for the kind.
func (k Kind) String() string {
	switch k {
	case KindPoint:
		return "POINT"
	case KindLineString:
		return "LINESTRING"
	case KindPolygon:
		return "POLYGON"
	case KindMultiPoint:
		return "MULTIPOINT"
	case KindMultiLineString:
		return "MULTILINESTRING"
	case KindMultiPolygon:
		return "MULTIPOLYGON"
	case KindCollection:
		return "GEOMETRYCOLLECTION"
	default:
		return fmt.Sprintf("KIND(%d)", int(k))
	}
}

// Epsilon is the coordinate tolerance used by predicates and constructive
// operations. Coordinates are degrees; 1e-9 degrees is ~0.1 mm on the
// ground, far below sensor resolution.
const Epsilon = 1e-9

// Geometry is the interface implemented by every geometry value.
type Geometry interface {
	// Kind reports the concrete geometry type.
	Kind() Kind
	// Envelope returns the minimal axis-aligned bounding box.
	Envelope() Envelope
	// IsEmpty reports whether the geometry has no coordinates.
	IsEmpty() bool
	// Dimension returns the topological dimension: 0 for points,
	// 1 for lines, 2 for areas. Collections report their maximum.
	Dimension() int
}

// Point is a single position.
type Point struct {
	X, Y float64
}

// Kind implements Geometry.
func (Point) Kind() Kind { return KindPoint }

// Envelope implements Geometry.
func (p Point) Envelope() Envelope { return Envelope{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y} }

// IsEmpty implements Geometry. A Point value is never empty.
func (Point) IsEmpty() bool { return false }

// Dimension implements Geometry.
func (Point) Dimension() int { return 0 }

// Sub returns the vector p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Add returns the vector p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Equals reports coordinate equality within Epsilon.
func (p Point) Equals(q Point) bool {
	return math.Abs(p.X-q.X) <= Epsilon && math.Abs(p.Y-q.Y) <= Epsilon
}

// DistanceTo returns the Euclidean distance to q.
func (p Point) DistanceTo(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// MultiPoint is a set of positions.
type MultiPoint []Point

// Kind implements Geometry.
func (MultiPoint) Kind() Kind { return KindMultiPoint }

// Envelope implements Geometry.
func (m MultiPoint) Envelope() Envelope { return envelopeOf(m) }

// IsEmpty implements Geometry.
func (m MultiPoint) IsEmpty() bool { return len(m) == 0 }

// Dimension implements Geometry.
func (MultiPoint) Dimension() int { return 0 }

// LineString is an ordered sequence of at least two positions.
type LineString []Point

// Kind implements Geometry.
func (LineString) Kind() Kind { return KindLineString }

// Envelope implements Geometry.
func (l LineString) Envelope() Envelope { return envelopeOf(l) }

// IsEmpty implements Geometry.
func (l LineString) IsEmpty() bool { return len(l) == 0 }

// Dimension implements Geometry.
func (LineString) Dimension() int { return 1 }

// Length returns the sum of segment lengths.
func (l LineString) Length() float64 {
	var total float64
	for i := 1; i < len(l); i++ {
		total += l[i].DistanceTo(l[i-1])
	}
	return total
}

// IsClosed reports whether the first and last vertices coincide.
func (l LineString) IsClosed() bool {
	return len(l) >= 4 && l[0].Equals(l[len(l)-1])
}

// MultiLineString is a set of linestrings.
type MultiLineString []LineString

// Kind implements Geometry.
func (MultiLineString) Kind() Kind { return KindMultiLineString }

// Envelope implements Geometry.
func (m MultiLineString) Envelope() Envelope {
	e := EmptyEnvelope()
	for _, l := range m {
		e = e.Expand(l.Envelope())
	}
	return e
}

// IsEmpty implements Geometry.
func (m MultiLineString) IsEmpty() bool { return len(m) == 0 }

// Dimension implements Geometry.
func (MultiLineString) Dimension() int { return 1 }

// Ring is a closed linear ring. The closing vertex is stored explicitly,
// i.e. r[0] == r[len(r)-1] for a valid ring with at least 4 entries.
type Ring []Point

// Valid reports whether the ring has at least four vertices and is closed.
func (r Ring) Valid() bool {
	return len(r) >= 4 && r[0].Equals(r[len(r)-1])
}

// SignedArea returns the signed area: positive for counter-clockwise
// orientation, negative for clockwise.
func (r Ring) SignedArea() float64 {
	var sum float64
	for i := 1; i < len(r); i++ {
		sum += r[i-1].X*r[i].Y - r[i].X*r[i-1].Y
	}
	return sum / 2
}

// Area returns the absolute enclosed area.
func (r Ring) Area() float64 { return math.Abs(r.SignedArea()) }

// IsCCW reports counter-clockwise winding.
func (r Ring) IsCCW() bool { return r.SignedArea() > 0 }

// Reversed returns the ring with opposite winding.
func (r Ring) Reversed() Ring {
	out := make(Ring, len(r))
	for i, p := range r {
		out[len(r)-1-i] = p
	}
	return out
}

// Envelope returns the ring's bounding box.
func (r Ring) Envelope() Envelope { return envelopeOf(r) }

// Centroid returns the area centroid of the ring.
func (r Ring) Centroid() Point {
	var cx, cy, a float64
	for i := 1; i < len(r); i++ {
		cross := r[i-1].X*r[i].Y - r[i].X*r[i-1].Y
		cx += (r[i-1].X + r[i].X) * cross
		cy += (r[i-1].Y + r[i].Y) * cross
		a += cross
	}
	if math.Abs(a) < Epsilon*Epsilon {
		// Degenerate ring: fall back to vertex mean.
		var sx, sy float64
		n := len(r) - 1
		if n <= 0 {
			return Point{}
		}
		for _, p := range r[:n] {
			sx += p.X
			sy += p.Y
		}
		return Point{sx / float64(n), sy / float64(n)}
	}
	return Point{cx / (3 * a), cy / (3 * a)}
}

// Polygon is an area bounded by one shell and zero or more holes. The
// shell should wind counter-clockwise and holes clockwise; constructors in
// this package normalise windings.
type Polygon struct {
	Shell Ring
	Holes []Ring
}

// Kind implements Geometry.
func (Polygon) Kind() Kind { return KindPolygon }

// Envelope implements Geometry.
func (p Polygon) Envelope() Envelope { return p.Shell.Envelope() }

// IsEmpty implements Geometry.
func (p Polygon) IsEmpty() bool { return len(p.Shell) == 0 }

// Dimension implements Geometry.
func (Polygon) Dimension() int { return 2 }

// Area returns the polygon area: shell minus holes.
func (p Polygon) Area() float64 {
	a := p.Shell.Area()
	for _, h := range p.Holes {
		a -= h.Area()
	}
	return a
}

// Centroid returns the centroid of the shell (holes are ignored; refinement
// queries only use centroids of convex pixel footprints).
func (p Polygon) Centroid() Point { return p.Shell.Centroid() }

// Normalized returns the polygon with CCW shell and CW holes.
func (p Polygon) Normalized() Polygon {
	out := Polygon{Shell: p.Shell}
	if !p.Shell.IsCCW() {
		out.Shell = p.Shell.Reversed()
	}
	for _, h := range p.Holes {
		if h.IsCCW() {
			h = h.Reversed()
		}
		out.Holes = append(out.Holes, h)
	}
	return out
}

// Rings returns shell and holes as one slice, shell first.
func (p Polygon) Rings() []Ring {
	out := make([]Ring, 0, 1+len(p.Holes))
	out = append(out, p.Shell)
	out = append(out, p.Holes...)
	return out
}

// MultiPolygon is a set of polygons.
type MultiPolygon []Polygon

// Kind implements Geometry.
func (MultiPolygon) Kind() Kind { return KindMultiPolygon }

// Envelope implements Geometry.
func (m MultiPolygon) Envelope() Envelope {
	e := EmptyEnvelope()
	for _, p := range m {
		e = e.Expand(p.Envelope())
	}
	return e
}

// IsEmpty implements Geometry.
func (m MultiPolygon) IsEmpty() bool { return len(m) == 0 }

// Dimension implements Geometry.
func (MultiPolygon) Dimension() int { return 2 }

// Area returns the total area of all member polygons.
func (m MultiPolygon) Area() float64 {
	var a float64
	for _, p := range m {
		a += p.Area()
	}
	return a
}

// Collection is a heterogeneous set of geometries.
type Collection []Geometry

// Kind implements Geometry.
func (Collection) Kind() Kind { return KindCollection }

// Envelope implements Geometry.
func (c Collection) Envelope() Envelope {
	e := EmptyEnvelope()
	for _, g := range c {
		e = e.Expand(g.Envelope())
	}
	return e
}

// IsEmpty implements Geometry.
func (c Collection) IsEmpty() bool {
	for _, g := range c {
		if !g.IsEmpty() {
			return false
		}
	}
	return true
}

// Dimension implements Geometry.
func (c Collection) Dimension() int {
	d := 0
	for _, g := range c {
		if gd := g.Dimension(); gd > d {
			d = gd
		}
	}
	return d
}

// Envelope is an axis-aligned bounding box.
type Envelope struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyEnvelope returns the identity element for Expand: an inverted box.
func EmptyEnvelope() Envelope {
	return Envelope{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// envelopeOf is the bounding box of a vertex run. It accumulates with
// plain comparisons — the predicates recompute envelopes per call, and
// math.Min/Max pay for NaN and signed-zero handling per vertex that
// finite coordinates (all ParseWKT admits) never need.
func envelopeOf(pts []Point) Envelope {
	e := EmptyEnvelope()
	for _, p := range pts {
		if p.X < e.MinX {
			e.MinX = p.X
		}
		if p.X > e.MaxX {
			e.MaxX = p.X
		}
		if p.Y < e.MinY {
			e.MinY = p.Y
		}
		if p.Y > e.MaxY {
			e.MaxY = p.Y
		}
	}
	return e
}

// IsEmpty reports whether the envelope contains no points.
func (e Envelope) IsEmpty() bool { return e.MinX > e.MaxX || e.MinY > e.MaxY }

// Width returns the X extent, or 0 if empty.
func (e Envelope) Width() float64 {
	if e.IsEmpty() {
		return 0
	}
	return e.MaxX - e.MinX
}

// Height returns the Y extent, or 0 if empty.
func (e Envelope) Height() float64 {
	if e.IsEmpty() {
		return 0
	}
	return e.MaxY - e.MinY
}

// Area returns the envelope area.
func (e Envelope) Area() float64 { return e.Width() * e.Height() }

// Center returns the midpoint.
func (e Envelope) Center() Point {
	return Point{(e.MinX + e.MaxX) / 2, (e.MinY + e.MaxY) / 2}
}

// Expand grows the envelope to include o.
func (e Envelope) Expand(o Envelope) Envelope {
	if o.IsEmpty() {
		return e
	}
	if e.IsEmpty() {
		return o
	}
	return Envelope{
		MinX: math.Min(e.MinX, o.MinX), MinY: math.Min(e.MinY, o.MinY),
		MaxX: math.Max(e.MaxX, o.MaxX), MaxY: math.Max(e.MaxY, o.MaxY),
	}
}

// Buffer returns the envelope grown by d on every side.
func (e Envelope) Buffer(d float64) Envelope {
	return Envelope{MinX: e.MinX - d, MinY: e.MinY - d, MaxX: e.MaxX + d, MaxY: e.MaxY + d}
}

// Intersects reports whether the two envelopes share any point.
func (e Envelope) Intersects(o Envelope) bool {
	if e.IsEmpty() || o.IsEmpty() {
		return false
	}
	return e.MinX <= o.MaxX+Epsilon && o.MinX <= e.MaxX+Epsilon &&
		e.MinY <= o.MaxY+Epsilon && o.MinY <= e.MaxY+Epsilon
}

// Contains reports whether o lies entirely inside e.
func (e Envelope) Contains(o Envelope) bool {
	if e.IsEmpty() || o.IsEmpty() {
		return false
	}
	return e.MinX <= o.MinX && o.MaxX <= e.MaxX &&
		e.MinY <= o.MinY && o.MaxY <= e.MaxY
}

// ContainsPoint reports whether p lies inside or on the boundary of e.
func (e Envelope) ContainsPoint(p Point) bool {
	return !e.IsEmpty() &&
		e.MinX-Epsilon <= p.X && p.X <= e.MaxX+Epsilon &&
		e.MinY-Epsilon <= p.Y && p.Y <= e.MaxY+Epsilon
}

// ToRing converts the envelope to a CCW rectangle ring.
func (e Envelope) ToRing() Ring {
	return Ring{
		{e.MinX, e.MinY}, {e.MaxX, e.MinY},
		{e.MaxX, e.MaxY}, {e.MinX, e.MaxY},
		{e.MinX, e.MinY},
	}
}

// ToPolygon converts the envelope to a rectangle polygon.
func (e Envelope) ToPolygon() Polygon { return Polygon{Shell: e.ToRing()} }

// NewSquare returns the axis-aligned square polygon centred at (cx, cy)
// with the given side length. Hotspot pixels are emitted as such squares.
func NewSquare(cx, cy, side float64) Polygon {
	h := side / 2
	return Envelope{MinX: cx - h, MinY: cy - h, MaxX: cx + h, MaxY: cy + h}.ToPolygon()
}

// Area returns the area of any geometry; zero for points and lines.
func Area(g Geometry) float64 {
	switch v := g.(type) {
	case Polygon:
		return v.Area()
	case MultiPolygon:
		return v.Area()
	case Collection:
		var a float64
		for _, m := range v {
			a += Area(m)
		}
		return a
	default:
		return 0
	}
}

// Centroid returns a representative interior-ish point for any geometry.
func Centroid(g Geometry) Point {
	switch v := g.(type) {
	case Point:
		return v
	case MultiPoint:
		var sx, sy float64
		if len(v) == 0 {
			return Point{}
		}
		for _, p := range v {
			sx += p.X
			sy += p.Y
		}
		return Point{sx / float64(len(v)), sy / float64(len(v))}
	case LineString:
		if len(v) == 0 {
			return Point{}
		}
		// Length-weighted midpoint.
		total := v.Length()
		if total < Epsilon {
			return v[0]
		}
		var cx, cy float64
		for i := 1; i < len(v); i++ {
			w := v[i].DistanceTo(v[i-1]) / total
			cx += (v[i].X + v[i-1].X) / 2 * w
			cy += (v[i].Y + v[i-1].Y) / 2 * w
		}
		return Point{cx, cy}
	case MultiLineString:
		var parts []Point
		for _, l := range v {
			if len(l) > 0 {
				parts = append(parts, Centroid(l))
			}
		}
		return Centroid(MultiPoint(parts))
	case Polygon:
		return v.Centroid()
	case MultiPolygon:
		var cx, cy, aw float64
		for _, p := range v {
			a := p.Area()
			c := p.Centroid()
			cx += c.X * a
			cy += c.Y * a
			aw += a
		}
		if aw < Epsilon*Epsilon {
			if len(v) == 0 {
				return Point{}
			}
			return v[0].Centroid()
		}
		return Point{cx / aw, cy / aw}
	case Collection:
		var parts []Point
		for _, m := range v {
			parts = append(parts, Centroid(m))
		}
		return Centroid(MultiPoint(parts))
	default:
		return Point{}
	}
}

// Boundary returns the topological boundary of a geometry: ring
// linestrings for polygons, endpoints for lines, empty for points. This
// implements strdf:boundary.
func Boundary(g Geometry) Geometry {
	switch v := g.(type) {
	case Polygon:
		var out MultiLineString
		for _, r := range v.Rings() {
			out = append(out, LineString(r))
		}
		if len(out) == 1 {
			return out[0]
		}
		return out
	case MultiPolygon:
		var out MultiLineString
		for _, p := range v {
			for _, r := range p.Rings() {
				out = append(out, LineString(r))
			}
		}
		return out
	case LineString:
		if v.IsClosed() || len(v) == 0 {
			return MultiPoint{}
		}
		return MultiPoint{v[0], v[len(v)-1]}
	case MultiLineString:
		var out MultiPoint
		for _, l := range v {
			if !l.IsClosed() && len(l) > 0 {
				out = append(out, l[0], l[len(l)-1])
			}
		}
		return out
	default:
		return MultiPoint{}
	}
}
