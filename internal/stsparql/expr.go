package stsparql

import (
	"strings"
	"time"

	"repro/internal/geom"
	"repro/internal/rdf"
)

// evalExpr evaluates an expression under a row view — a physical batch
// row, looked up column-wise.
func (e *Evaluator) evalExpr(expr Expr, row rowRef) Value {
	switch v := expr.(type) {
	case *VarExpr:
		id := row.lookupID(v.Name)
		if id == 0 {
			return unboundValue()
		}
		t := row.b.dict.decode(id)
		if t.Datatype == rdf.XSDDateTime && t.IsLiteral() {
			return e.dateTime(id, t)
		}
		return termToValue(t, e.cache)
	case *ConstExpr:
		return termToValue(v.Term, e.cache)
	case *UnaryExpr:
		return e.applyUnary(v.Op, e.evalExpr(v.X, row))
	case *BinaryExpr:
		// Short-circuit logical operators.
		switch v.Op {
		case "&&":
			l, err := e.evalExpr(v.L, row).effectiveBool()
			if err != nil {
				return errValue("%v", err)
			}
			if !l {
				return boolValue(false)
			}
			r, err := e.evalExpr(v.R, row).effectiveBool()
			if err != nil {
				return errValue("%v", err)
			}
			return boolValue(r)
		case "||":
			l, err := e.evalExpr(v.L, row).effectiveBool()
			if err == nil && l {
				return boolValue(true)
			}
			r, err2 := e.evalExpr(v.R, row).effectiveBool()
			if err2 != nil {
				return errValue("%v", err2)
			}
			return boolValue(r)
		}
		return e.applyBinary(v.Op, e.evalExpr(v.L, row), e.evalExpr(v.R, row))
	case *CallExpr:
		if v.Name == "bound" {
			if len(v.Args) != 1 {
				return errValue("stsparql: bound() wants one variable")
			}
			ve, ok := v.Args[0].(*VarExpr)
			if !ok {
				return errValue("stsparql: bound() wants a variable")
			}
			_, present := row.lookup(ve.Name)
			return boolValue(present)
		}
		if v.isAggregate() {
			return errValue("stsparql: aggregate %q outside grouped query", v.Name)
		}
		base := len(e.argScratch)
		for _, a := range v.Args {
			e.argScratch = append(e.argScratch, e.evalExpr(a, row))
		}
		res := e.applyFunction(v, e.argScratch[base:])
		e.argScratch = e.argScratch[:base]
		return res
	default:
		return errValue("stsparql: unknown expression node %T", expr)
	}
}

// dateTime is termToValue for the xsd:dateTime literal t with ID id,
// parsing it once per evaluation: a window filter compares every
// candidate's instant, often only for str() to read the text back. A
// malformed literal is not kept, and stays an error at every read.
func (e *Evaluator) dateTime(id termID, t rdf.Term) Value {
	if tm, ok := e.times[id]; ok {
		return Value{Kind: VTime, Time: tm, Term: t}
	}
	v := termToValue(t, e.cache)
	if v.Kind == VTime {
		if e.times == nil {
			e.times = make(map[termID]time.Time)
		}
		e.times[id] = v.Time
	}
	return v
}

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
	default:
		return errValue("stsparql: unknown unary operator %q", op)
	}
}

func (e *Evaluator) applyBinary(op string, l, r Value) Value {
	if l.Kind == VErr {
		return l
	}
	if r.Kind == VErr {
		return r
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
	for _, a := range args {
		if a.Kind == VErr {
			return a
		}
	}
	name := c.Name
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
			return Value{Kind: VTerm, Term: rdf.NewIRI(args[0].Term.Datatype)}
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

func (e *Evaluator) applySpatialFunction(local string, args []Value) Value {
	geomArg := func(i int) (geom.Geometry, bool) {
		if i >= len(args) {
			return nil, false
		}
		a := args[i]
		switch a.Kind {
		case VGeom:
			return a.Geom, true
		case VStr:
			// Tolerate bare WKT strings (the paper's FILTERs sometimes
			// wrap constants in strdf:WKT, sometimes in strdf:geometry).
			g, err := e.cache.parse(a.Str)
			return g, err == nil
		default:
			return nil, false
		}
	}
	bin := func(f func(a, b geom.Geometry) bool) Value {
		g1, ok1 := geomArg(0)
		g2, ok2 := geomArg(1)
		if !ok1 || !ok2 {
			return errValue("stsparql: strdf:%s wants two geometries", local)
		}
		return boolValue(f(g1, g2))
	}
	switch local {
	case "anyinteract", "intersects", "sfintersects":
		return bin(geom.Intersects)
	case "contains", "sfcontains":
		return bin(geom.Contains)
	case "within", "sfwithin", "inside":
		return bin(geom.Within)
	case "coveredby":
		return bin(geom.CoveredBy)
	case "covers":
		return bin(func(a, b geom.Geometry) bool { return geom.CoveredBy(b, a) })
	case "disjoint", "sfdisjoint":
		return bin(geom.Disjoint)
	case "touches", "touch", "sftouches":
		return bin(geom.Touches)
	case "overlap", "overlaps", "sfoverlaps":
		return bin(geom.Overlaps)
	case "equals", "sfequals":
		return bin(geom.Equals)
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
