package stsparql

import (
	"strings"

	"repro/internal/geom"
	"repro/internal/rdf"
)

func (e *Evaluator) applyUnary(op string, x Value) Value {
	switch op {
	case "!":
		b, err := x.effectiveBool()
		if err != nil {
			// !bound-style patterns rely on error-free handling of
			// unbound: SPARQL defines !E as error when E is an error, but
			// bound() never errors, so this only triggers on true errors.
			return errValue("%v", err)
		}
		return boolValue(!b)
	case "-":
		if x.Kind != VNum {
			return errValue("stsparql: unary minus on non-number")
		}
		return numValue(-x.Num)
	case "+":
		if x.Kind != VNum {
			return errValue("stsparql: unary plus on non-number")
		}
		return x
	default:
		return errValue("stsparql: unknown unary operator %q", op)
	}
}

func (e *Evaluator) applyBinary(op string, l, r Value) Value {
	if l.Kind == VErr {
		return l.failed()
	}
	if r.Kind == VErr {
		return r.failed()
	}
	switch op {
	case "=", "!=":
		eq, err := l.equalValue(r)
		if err != nil {
			return errValue("%v", err)
		}
		if op == "!=" {
			eq = !eq
		}
		return boolValue(eq)
	case "<", "<=", ">", ">=":
		c, err := l.compare(r)
		if err != nil {
			return errValue("%v", err)
		}
		switch op {
		case "<":
			return boolValue(c < 0)
		case "<=":
			return boolValue(c <= 0)
		case ">":
			return boolValue(c > 0)
		default:
			return boolValue(c >= 0)
		}
	case "+", "-", "*", "/":
		if l.Kind != VNum || r.Kind != VNum {
			return errValue("stsparql: arithmetic on non-numbers")
		}
		switch op {
		case "+":
			return numValue(l.Num + r.Num)
		case "-":
			return numValue(l.Num - r.Num)
		case "*":
			return numValue(l.Num * r.Num)
		default:
			if r.Num == 0 {
				return errValue("stsparql: division by zero")
			}
			return numValue(l.Num / r.Num)
		}
	default:
		return errValue("stsparql: unknown operator %q", op)
	}
}

// applyFunction dispatches builtin and strdf: extension functions.
func (e *Evaluator) applyFunction(c *CallExpr, args []Value) Value {
	name := c.Name
	for _, a := range args {
		if a.Kind == VErr && (a.Term.IsZero() || !termFunctions[name]) {
			return a.failed()
		}
	}
	switch name {
	case "str":
		if len(args) != 1 {
			return errValue("stsparql: str() wants 1 argument")
		}
		a := args[0]
		switch a.Kind {
		case VTerm:
			return strValue(a.Term.Value)
		case VUnbound:
			return errValue("stsparql: str() of unbound")
		default:
			if !a.Term.IsZero() {
				return strValue(a.Term.Value)
			}
			t, _ := a.asTerm()
			return strValue(t.Value)
		}
	case "lang":
		if len(args) == 1 {
			return strValue(args[0].Term.Lang)
		}
	case "datatype":
		if len(args) == 1 {
			return Value{Kind: VTerm, Term: rdf.NewIRI(datatypeOf(args[0]))}
		}
	case "isiri", "isuri":
		if len(args) == 1 {
			return boolValue(args[0].Kind == VTerm && args[0].Term.IsIRI())
		}
	case "isliteral":
		if len(args) == 1 {
			return boolValue(!args[0].Term.IsZero() && args[0].Term.IsLiteral())
		}
	case "isblank":
		if len(args) == 1 {
			return boolValue(args[0].Kind == VTerm && args[0].Term.IsBlank())
		}
	case "regex":
		if len(args) >= 2 && args[0].Kind == VStr || len(args) >= 2 && !args[0].Term.IsZero() {
			s := args[0].Str
			if s == "" {
				s = args[0].Term.Value
			}
			// Substring semantics only; full regexp is out of scope and
			// unused by the paper's queries.
			return boolValue(strings.Contains(s, args[1].Str))
		}
	case "contains":
		if len(args) == 2 {
			return boolValue(strings.Contains(args[0].Str, args[1].Str))
		}
	case "strstarts":
		if len(args) == 2 {
			return boolValue(strings.HasPrefix(args[0].Str, args[1].Str))
		}
	case "abs":
		if len(args) == 1 && args[0].Kind == VNum {
			if args[0].Num < 0 {
				return numValue(-args[0].Num)
			}
			return args[0]
		}
	}

	if strings.HasPrefix(name, "strdf:") || strings.HasPrefix(name, "geof:") {
		return e.applySpatialFunction(strings.TrimPrefix(strings.TrimPrefix(name, "strdf:"), "geof:"), args)
	}
	return errValue("stsparql: unknown function %q", name)
}

// termFunctions read only the term of their argument, so a malformed
// typed literal — an error to every other function — is an argument
// they answer for.
var termFunctions = map[string]bool{"str": true, "lang": true, "datatype": true, "isliteral": true}

// datatypeOf is the datatype IRI of a value's term (SPARQL 1.1
// §17.4.2.7): its declared datatype, rdf:langString for a
// language-tagged literal, xsd:string for a simple literal — the term
// of a string the query computed included. Anything else, an IRI or a
// blank node, has none: the empty IRI, which binds nothing.
func datatypeOf(v Value) string {
	t := v.Term
	switch {
	case t.IsZero() && v.Kind == VStr:
		return rdf.XSDString
	case !t.IsLiteral() || t.Datatype != "":
		return t.Datatype
	case t.Lang != "":
		return rdf.RDFLangString
	}
	return rdf.XSDString
}

// spatialPreds are the boolean strdf:/geof: functions of two
// geometries, by local name.
var spatialPreds = map[string]func(a, b geom.Geometry) bool{
	"anyinteract":  geom.Intersects,
	"intersects":   geom.Intersects,
	"sfintersects": geom.Intersects,
	"contains":     geom.Contains,
	"sfcontains":   geom.Contains,
	"within":       geom.Within,
	"sfwithin":     geom.Within,
	"inside":       geom.Within,
	"coveredby":    geom.CoveredBy,
	"covers":       func(a, b geom.Geometry) bool { return geom.CoveredBy(b, a) },
	"disjoint":     geom.Disjoint,
	"sfdisjoint":   geom.Disjoint,
	"touches":      geom.Touches,
	"touch":        geom.Touches,
	"sftouches":    geom.Touches,
	"overlap":      geom.Overlaps,
	"overlaps":     geom.Overlaps,
	"sfoverlaps":   geom.Overlaps,
	"equals":       geom.Equals,
	"sfequals":     geom.Equals,
}

// argGeometry is a spatial function's reading of an argument: a
// geometry, or a string holding WKT — bare WKT strings are tolerated
// (the paper's FILTERs sometimes wrap constants in strdf:WKT, sometimes
// in strdf:geometry).
func argGeometry(a Value, cache *Cache) (geom.Geometry, bool) {
	switch a.Kind {
	case VGeom:
		return a.Geom, true
	case VStr:
		g, err := cache.parse(a.Str)
		return g, err == nil
	}
	return nil, false
}

func (e *Evaluator) applySpatialFunction(local string, args []Value) Value {
	geomArg := func(i int) (geom.Geometry, bool) {
		if i >= len(args) {
			return nil, false
		}
		return argGeometry(args[i], e.cache)
	}
	if pred := spatialPreds[local]; pred != nil {
		g1, ok1 := geomArg(0)
		g2, ok2 := geomArg(1)
		if !ok1 || !ok2 {
			return errValue("stsparql: strdf:%s wants two geometries", local)
		}
		return boolValue(pred(g1, g2))
	}
	switch local {
	case "intersection":
		g1, ok1 := geomArg(0)
		g2, ok2 := geomArg(1)
		if !ok1 || !ok2 {
			return errValue("stsparql: strdf:intersection wants two geometries")
		}
		return geomValue(geom.IntersectionG(g1, g2))
	case "union":
		// Binary form; the 1-argument aggregate form is handled in
		// evalAggregateCall.
		g1, ok1 := geomArg(0)
		g2, ok2 := geomArg(1)
		if !ok1 || !ok2 {
			return errValue("stsparql: strdf:union wants two geometries (or one in aggregate position)")
		}
		return geomValue(geom.Union(g1, g2))
	case "difference":
		g1, ok1 := geomArg(0)
		g2, ok2 := geomArg(1)
		if !ok1 || !ok2 {
			return errValue("stsparql: strdf:difference wants two geometries")
		}
		return geomValue(geom.Difference(g1, g2))
	case "symdifference":
		g1, ok1 := geomArg(0)
		g2, ok2 := geomArg(1)
		if !ok1 || !ok2 {
			return errValue("stsparql: strdf:symDifference wants two geometries")
		}
		return geomValue(geom.SymmetricDifference(g1, g2))
	case "boundary":
		g, ok := geomArg(0)
		if !ok {
			return errValue("stsparql: strdf:boundary wants a geometry")
		}
		return geomValue(geom.Boundary(g))
	case "envelope", "mbb":
		g, ok := geomArg(0)
		if !ok {
			return errValue("stsparql: strdf:envelope wants a geometry")
		}
		return geomValue(g.Envelope().ToPolygon())
	case "convexhull":
		g, ok := geomArg(0)
		if !ok {
			return errValue("stsparql: strdf:convexHull wants a geometry")
		}
		pts, ls, ps := geomParts(g)
		for _, l := range ls {
			pts = append(pts, l...)
		}
		for _, p := range ps {
			pts = append(pts, p.Shell...)
		}
		return geomValue(geom.Polygon{Shell: geom.ConvexHull(pts)})
	case "buffer":
		// Envelope-based buffer: exact rounded buffers are not needed by
		// the service; the validation protocol only uses small tolerance
		// windows around pixel squares.
		g, ok := geomArg(0)
		if !ok || len(args) < 2 || args[1].Kind != VNum {
			return errValue("stsparql: strdf:buffer wants geometry and distance")
		}
		return geomValue(g.Envelope().Buffer(args[1].Num).ToPolygon())
	case "area":
		g, ok := geomArg(0)
		if !ok {
			return errValue("stsparql: strdf:area wants a geometry")
		}
		return numValue(geom.Area(g))
	case "distance":
		g1, ok1 := geomArg(0)
		g2, ok2 := geomArg(1)
		if !ok1 || !ok2 {
			return errValue("stsparql: strdf:distance wants two geometries")
		}
		return numValue(geom.Distance(g1, g2))
	case "dimension":
		g, ok := geomArg(0)
		if !ok {
			return errValue("stsparql: strdf:dimension wants a geometry")
		}
		return numValue(float64(g.Dimension()))
	case "srid":
		return numValue(4326)
	case "astext", "wkt":
		g, ok := geomArg(0)
		if !ok {
			return errValue("stsparql: strdf:asText wants a geometry")
		}
		return strValue(geom.WKT(g))
	default:
		return errValue("stsparql: unknown spatial function strdf:%s", local)
	}
}
