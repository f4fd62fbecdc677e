package stsparql

import (
	"fmt"
	"regexp"
	"slices"
	"strings"

	"repro/internal/geom"
	"repro/internal/rdf"
)

// The builtin table: every function the engine answers, named once.
// The parser resolves each call against it by name and arity and keeps
// the row on the call (CallExpr.Fn); from then on the compiler, the
// planner and IsGrouped read the row, never the name, and Cacheable the
// nondeterminism the parser noted. A name
// the table lacks, an arity outside a row's range, DISTINCT or * on a
// non-aggregate and an aggregate in a WHERE-clause FILTER are refused at
// parse: SPARQL 1.1 §17.6 makes an unsupported function call an error,
// not an empty answer.

// builtinKind is what the engine does with a call besides applying it.
type builtinKind uint8

const (
	// kindScalar applies to its arguments' values; an error among them
	// is the call's value.
	kindScalar builtinKind = iota
	// kindTerm reads only its arguments' terms, so a malformed typed
	// literal — an error to every other function — is an argument it
	// answers for (SPARQL 1.1 §17.4.2).
	kindTerm
	// kindSpatial reads geometries: orders of magnitude dearer per row
	// than an index probe, which makes a filter calling one costly
	// (planBGP).
	kindSpatial
	// kindAggregate computes over a group's member rows, and makes the
	// SELECT projecting it grouped (IsGrouped).
	kindAggregate
	// kindBound is bound(?v): a filter calling it waits for the end of
	// its group, as OPTIONAL may bind later.
	kindBound
)

// Builtin is one row of the table.
type Builtin struct {
	// Names are the lower-cased spellings the parser answers.
	Names []string
	// Min and Max bound the number of arguments.
	Min, Max int

	kind   builtinKind
	star   bool // takes * for its arguments (COUNT(*))
	nondet bool // two evaluations over the same data may answer differently (SAMPLE)

	// apply computes a scalar, term or spatial call.
	apply applyFn
	// agg computes an aggregate over the member rows mem of rows.
	agg func(e *Evaluator, n *aggNode, rows *Batch, mem []int32) Value
	// pred is a spatial predicate of two geometries; its calls compile
	// to spatialNode where their arguments allow.
	pred func(a, b geom.Geometry) bool
	// window: pred holds only where the envelopes meet, so an R-tree
	// window on either argument finds every candidate (windowArgs).
	window bool
	// check refuses at parse what the arity does not.
	check func(args []Expr) error
}

// applyFn computes a call from its arguments' values. It must not
// retain the slice.
type applyFn = func(e *Evaluator, args []Value) Value

// Rows the compiler and the window analysis recognise.
var (
	fnStr   = &Builtin{Names: []string{"str"}, Min: 1, Max: 1, kind: kindTerm, apply: str}
	fnRegex = &Builtin{Names: []string{"regex"}, Min: 2, Max: 3, apply: regexValue, check: checkRegex}
)

// builtins is the table.
var builtins = []*Builtin{
	fnStr,
	fnRegex,
	{Names: []string{"lang"}, Min: 1, Max: 1, kind: kindTerm, apply: func(_ *Evaluator, a []Value) Value { return strValue(a[0].Term.Lang) }},
	{Names: []string{"datatype"}, Min: 1, Max: 1, kind: kindTerm, apply: func(_ *Evaluator, a []Value) Value {
		return Value{Kind: VTerm, Term: rdf.NewIRI(datatypeOf(a[0]))}
	}},
	{Names: []string{"isliteral"}, Min: 1, Max: 1, kind: kindTerm, apply: func(_ *Evaluator, a []Value) Value {
		return boolValue(!a[0].Term.IsZero() && a[0].Term.IsLiteral())
	}},
	{Names: []string{"sameterm"}, Min: 2, Max: 2, kind: kindTerm, apply: sameTerm},
	{Names: []string{"isiri", "isuri"}, Min: 1, Max: 1, apply: func(_ *Evaluator, a []Value) Value { return boolValue(a[0].Kind == VTerm && a[0].Term.IsIRI()) }},
	{Names: []string{"isblank"}, Min: 1, Max: 1, apply: func(_ *Evaluator, a []Value) Value { return boolValue(a[0].Kind == VTerm && a[0].Term.IsBlank()) }},
	{Names: []string{"contains"}, Min: 2, Max: 2, apply: func(_ *Evaluator, a []Value) Value { return boolValue(strings.Contains(a[0].Str, a[1].Str)) }},
	{Names: []string{"strstarts"}, Min: 2, Max: 2, apply: func(_ *Evaluator, a []Value) Value { return boolValue(strings.HasPrefix(a[0].Str, a[1].Str)) }},
	{Names: []string{"langmatches"}, Min: 2, Max: 2, apply: langMatches},
	{Names: []string{"abs"}, Min: 1, Max: 1, apply: abs},
	{Names: []string{"bound"}, Min: 1, Max: 1, kind: kindBound, check: checkBound},

	{Names: []string{"count"}, Min: 1, Max: 1, star: true, kind: kindAggregate, agg: aggCount},
	aggregate("sum", func(vals []Value) Value { sum, _ := numSum(vals); return numValue(sum) }),
	aggregate("avg", avg),
	aggregate("min", extreme(-1)),
	aggregate("max", extreme(1)),
	{Names: []string{"sample"}, Min: 1, Max: 1, kind: kindAggregate, nondet: true, agg: over(sample)},
	aggregate("strdf:union", unionAll),
	aggregate("strdf:extent", extent),

	predicate(geom.Intersects, true, "anyinteract", "intersects", "sfintersects"),
	predicate(geom.Contains, true, "contains", "sfcontains"),
	predicate(geom.Within, true, "within", "sfwithin", "inside"),
	predicate(geom.CoveredBy, true, "coveredby"),
	predicate(func(a, b geom.Geometry) bool { return geom.CoveredBy(b, a) }, true, "covers"),
	predicate(geom.Disjoint, false, "disjoint", "sfdisjoint"),
	predicate(geom.Touches, true, "touches", "touch", "sftouches"),
	predicate(geom.Overlaps, true, "overlap", "overlaps", "sfoverlaps"),
	predicate(geom.Equals, true, "equals", "sfequals"),
	spatial(2, geom2(func(a, b geom.Geometry) Value { return geomValue(geom.IntersectionG(a, b)) }), "intersection"),
	spatial(2, geom2(func(a, b geom.Geometry) Value { return geomValue(geom.Union(a, b)) }), "union"),
	spatial(2, geom2(func(a, b geom.Geometry) Value { return geomValue(geom.Difference(a, b)) }), "difference"),
	spatial(2, geom2(func(a, b geom.Geometry) Value { return geomValue(geom.SymmetricDifference(a, b)) }), "symdifference"),
	spatial(2, geom2(func(a, b geom.Geometry) Value { return numValue(geom.Distance(a, b)) }), "distance"),
	spatial(1, geom1(func(g geom.Geometry) Value { return geomValue(geom.Boundary(g)) }), "boundary"),
	spatial(1, geom1(func(g geom.Geometry) Value { return geomValue(g.Envelope().ToPolygon()) }), "envelope", "mbb"),
	spatial(1, geom1(convexHull), "convexhull"),
	spatial(1, geom1(func(g geom.Geometry) Value { return numValue(geom.Area(g)) }), "area"),
	spatial(1, geom1(func(g geom.Geometry) Value { return numValue(float64(g.Dimension())) }), "dimension"),
	spatial(1, geom1(func(g geom.Geometry) Value { return strValue(geom.WKT(g)) }), "astext", "wkt"),
	spatial(2, buffer, "buffer"),
	spatial(1, func(*Evaluator, []Value) Value { return numValue(4326) }, "srid"),
}

// builtinRows indexes the table by spelling; a name may have rows of
// different arities (strdf:union: the aggregate and the binary union).
var builtinRows = func() map[string][]*Builtin {
	m := make(map[string][]*Builtin)
	for _, f := range builtins {
		for _, name := range f.Names {
			m[name] = append(m[name], f)
		}
	}
	return m
}()

// Builtins returns the table's rows.
func Builtins() []*Builtin { return slices.Clone(builtins) }

// resolve binds a call to its row by name and arity, and refuses what
// the row does not take.
func resolve(c *CallExpr) error {
	n := len(c.Args)
	for _, f := range builtinRows[c.Name] {
		if c.Star && f.star || !c.Star && f.Min <= n && n <= f.Max {
			c.Fn = f
			break
		}
	}
	switch {
	case builtinRows[c.Name] == nil:
		return fmt.Errorf("unknown function %s", c.Name)
	case c.Fn == nil && c.Star:
		return fmt.Errorf("%s does not take *", c.Name)
	case c.Fn == nil:
		return fmt.Errorf("%s does not take %d arguments", c.Name, n)
	case c.Distinct && c.Fn.kind != kindAggregate:
		return fmt.Errorf("%s is not an aggregate and does not take DISTINCT", c.Name)
	case c.Fn.check != nil:
		if err := c.Fn.check(c.Args); err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	return nil
}

// call applies a scalar, term or spatial row to its arguments' values.
func (f *Builtin) call(e *Evaluator, args []Value) Value {
	for _, a := range args {
		if a.Kind == VErr && (a.Term.IsZero() || f.kind != kindTerm) {
			return a.failed()
		}
	}
	return f.apply(e, args)
}

// --- scalar rows ---

func str(_ *Evaluator, a []Value) Value {
	if a[0].Kind == VUnbound {
		return errValue("stsparql: str() of unbound")
	}
	t := a[0].Term
	if t.IsZero() {
		t, _ = a[0].asTerm()
	}
	return strValue(t.Value)
}

func abs(_ *Evaluator, a []Value) Value {
	switch {
	case a[0].Kind != VNum:
		return errValue("stsparql: abs() of a non-number")
	case a[0].Num < 0:
		return numValue(-a[0].Num)
	}
	return a[0]
}

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

// sameTerm is RDF term equality — ID equality in the evaluation's
// dictionary — which a malformed typed literal has like any other term.
func sameTerm(_ *Evaluator, a []Value) Value {
	x, okX := termOf(a[0])
	y, okY := termOf(a[1])
	if !okX || !okY {
		return errValue("stsparql: sameTerm() of unbound")
	}
	return boolValue(x == y)
}

// termOf is the term a value stands for: the one it was read from, a
// malformed literal's included, or the one it computes to.
func termOf(v Value) (rdf.Term, bool) {
	if !v.Term.IsZero() {
		return v.Term, true
	}
	return v.asTerm()
}

// langMatches is RFC 4647 basic filtering, as SPARQL 1.1 §17.4.3.8 asks:
// "*" matches every non-empty tag, any other range a tag equal to it or
// starting with it and a '-', ignoring case.
func langMatches(_ *Evaluator, a []Value) Value {
	if a[0].Kind != VStr || a[1].Kind != VStr {
		return errValue("stsparql: langMatches() wants two strings")
	}
	tag, rng := a[0].Str, a[1].Str
	if rng == "*" {
		return boolValue(tag != "")
	}
	prefix := len(tag) >= len(rng) && strings.EqualFold(tag[:len(rng)], rng)
	return boolValue(prefix && (len(tag) == len(rng) || tag[len(rng)] == '-'))
}

// regex follows SPARQL 1.1 §17.4.3.14 through Go's regexp (RE2): flags
// i, s and m map to RE2's; XPath's x and q, and the back-references and
// other constructs RE2 lacks, are refused. A constant pattern compiles
// once per plan (regexNode) and is checked at parse.

// compileRegex compiles a pattern under SPARQL regex flags.
func compileRegex(pattern, flags string) (*regexp.Regexp, error) {
	if i := strings.IndexFunc(flags, func(r rune) bool { return !strings.ContainsRune("ism", r) }); i >= 0 {
		return nil, fmt.Errorf("flag %q is not supported", flags[i:i+1])
	}
	if flags != "" {
		pattern = "(?" + flags + ")" + pattern
	}
	return regexp.Compile(pattern)
}

// constString is the string of a constant simple or xsd:string literal.
func constString(x Expr) (string, bool) {
	c, ok := x.(*ConstExpr)
	if !ok || !c.Term.IsLiteral() || c.Term.Datatype != "" && c.Term.Datatype != rdf.XSDString {
		return "", false
	}
	return c.Term.Value, true
}

// regexConsts reads a regex call's constant pattern and flags; absent
// flags are constant and empty.
func regexConsts(args []Expr) (pattern, flags string, patternConst, flagsConst bool) {
	pattern, patternConst = constString(args[1])
	flagsConst = true
	if len(args) == 3 {
		flags, flagsConst = constString(args[2])
	}
	return pattern, flags, patternConst, flagsConst
}

// checkRegex refuses a constant pattern RE2 does not compile, and
// constant flags other than i, s and m.
func checkRegex(args []Expr) error {
	pattern, flags, patternConst, flagsConst := regexConsts(args)
	switch {
	case !flagsConst:
		return nil
	case !patternConst:
		pattern = "" // a computed pattern: the flags alone
	}
	_, err := compileRegex(pattern, flags)
	return err
}

// regexValue is a regex call whose pattern or flags are computed per row.
func regexValue(_ *Evaluator, a []Value) Value {
	flags := ""
	if len(a) == 3 {
		if a[2].Kind != VStr {
			return errValue("stsparql: regex flags are not a string")
		}
		flags = a[2].Str
	}
	if a[1].Kind != VStr {
		return errValue("stsparql: regex pattern is not a string")
	}
	re, err := compileRegex(a[1].Str, flags)
	if err != nil {
		return errValue("stsparql: regex: %v", err)
	}
	return matchRegex(re, a[0])
}

func matchRegex(re *regexp.Regexp, text Value) Value {
	if text.Kind != VStr {
		return errValue("stsparql: regex of a non-string")
	}
	return boolValue(re.MatchString(text.Str))
}

// checkBound: bound's argument is a variable (SPARQL 1.1 grammar rule
// [121]).
func checkBound(args []Expr) error {
	if _, ok := args[0].(*VarExpr); !ok {
		return fmt.Errorf("wants a variable")
	}
	return nil
}

// --- spatial rows ---

// spatial is a row of a strdf: function, answered under geof: too.
func spatial(arity int, apply applyFn, locals ...string) *Builtin {
	var names []string
	for _, l := range locals {
		names = append(names, "strdf:"+l, "geof:"+l)
	}
	return &Builtin{Names: names, Min: arity, Max: arity, kind: kindSpatial, apply: apply}
}

// predicate is the row of a spatial predicate of two geometries.
func predicate(pred func(a, b geom.Geometry) bool, window bool, locals ...string) *Builtin {
	f := spatial(2, geom2(func(a, b geom.Geometry) Value { return boolValue(pred(a, b)) }), locals...)
	f.pred, f.window = pred, window
	return f
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

// errNotGeometry is a spatial call of an argument that is no geometry.
var errNotGeometry = errValue("stsparql: a spatial function's argument is not a geometry")

// geom1 adapts a function of one geometry.
func geom1(f func(g geom.Geometry) Value) applyFn {
	return func(e *Evaluator, a []Value) Value {
		g, ok := argGeometry(a[0], e.cache)
		if !ok {
			return errNotGeometry
		}
		return f(g)
	}
}

// geom2 adapts a function of two geometries.
func geom2(f func(a, b geom.Geometry) Value) applyFn {
	return func(e *Evaluator, a []Value) Value {
		g1, ok1 := argGeometry(a[0], e.cache)
		g2, ok2 := argGeometry(a[1], e.cache)
		if !ok1 || !ok2 {
			return errNotGeometry
		}
		return f(g1, g2)
	}
}

func convexHull(g geom.Geometry) Value {
	pts, ls, ps := geomParts(g)
	for _, l := range ls {
		pts = append(pts, l...)
	}
	for _, p := range ps {
		pts = append(pts, p.Shell...)
	}
	return geomValue(geom.Polygon{Shell: geom.ConvexHull(pts)})
}

// buffer is envelope-based: exact rounded buffers are not needed by
// the service; the validation protocol only uses small tolerance
// windows around pixel squares.
func buffer(e *Evaluator, a []Value) Value {
	g, ok := argGeometry(a[0], e.cache)
	if !ok || a[1].Kind != VNum {
		return errNotGeometry
	}
	return geomValue(g.Envelope().Buffer(a[1].Num).ToPolygon())
}

// --- aggregate rows ---

// aggregate is the row of an aggregate of the collected values.
func aggregate(name string, f func(vals []Value) Value) *Builtin {
	return &Builtin{Names: []string{name}, Min: 1, Max: 1, kind: kindAggregate, agg: over(f)}
}

// over makes an aggregate of a function of the collected values.
func over(f func(vals []Value) Value) func(*Evaluator, *aggNode, *Batch, []int32) Value {
	return func(e *Evaluator, n *aggNode, rows *Batch, mem []int32) Value {
		return f(e.collect(n, rows, mem))
	}
}

// collect evaluates an aggregate's argument over the member rows mem of
// rows, skipping unbound and error values — and, under DISTINCT, a term
// already collected.
func (e *Evaluator) collect(n *aggNode, rows *Batch, mem []int32) []Value {
	var vals []Value
	var seen map[string]bool
	for _, i := range mem {
		v := n.arg.eval(e, rowRef{b: rows, i: int(i)})
		if v.Kind == VUnbound || v.Kind == VErr {
			continue
		}
		if n.c.Distinct {
			t, _ := v.asTerm()
			k := t.String()
			if seen[k] {
				continue
			}
			if seen == nil {
				seen = make(map[string]bool)
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	return vals
}

func aggCount(e *Evaluator, n *aggNode, rows *Batch, mem []int32) Value {
	c := n.c
	if c.Star && c.Distinct {
		// Distinct over every column: ID equality is term equality
		// within the evaluation.
		seen := make(map[string]struct{}, len(mem))
		var kb []byte
		for _, i := range mem {
			kb = kb[:0]
			for _, col := range rows.cols {
				kb = appendIDKey(kb, col[i])
			}
			seen[string(kb)] = struct{}{}
		}
		return numValue(float64(len(seen)))
	}
	if c.Star {
		return numValue(float64(len(mem)))
	}
	if _, ok := c.Args[0].(*VarExpr); ok {
		return numValue(float64(countBound(rows, mem, n.countCol, c.Distinct)))
	}
	return numValue(float64(len(e.collect(n, rows, mem))))
}

// numSum sums the numbers among vals, and counts them.
func numSum(vals []Value) (sum float64, n int) {
	for _, v := range vals {
		if v.Kind == VNum {
			sum += v.Num
			n++
		}
	}
	return sum, n
}

func avg(vals []Value) Value {
	sum, n := numSum(vals)
	if n == 0 {
		return numValue(0)
	}
	return numValue(sum / float64(n))
}

func sample(vals []Value) Value {
	if len(vals) == 0 {
		return unboundValue()
	}
	return vals[0]
}

// extreme is MIN (sign -1) or MAX (sign 1): the first value no other
// comparable value passes.
func extreme(sign int) func(vals []Value) Value {
	return func(vals []Value) Value {
		if len(vals) == 0 {
			return unboundValue()
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if c, err := v.compare(best); err == nil && c*sign > 0 {
				best = v
			}
		}
		return best
	}
}

// unionAll is the strdf:union aggregate: the union of every polygon,
// beside every other geometry collected.
func unionAll(vals []Value) Value {
	var polys []geom.Polygon
	var rest geom.Collection
	for _, v := range vals {
		if v.Kind != VGeom {
			continue
		}
		_, _, ps := geomParts(v.Geom)
		if len(ps) > 0 {
			polys = append(polys, ps...)
		} else {
			rest = append(rest, v.Geom)
		}
	}
	u := geom.UnionAllPolygons(polys)
	if len(rest) == 0 {
		return geomValue(u)
	}
	return geomValue(append(rest, u))
}

// extent is the strdf:extent aggregate: the envelope of every geometry
// collected.
func extent(vals []Value) Value {
	env := geom.EmptyEnvelope()
	for _, v := range vals {
		if v.Kind == VGeom {
			env = env.Expand(v.Geom.Envelope())
		}
	}
	if env.IsEmpty() {
		return unboundValue()
	}
	return geomValue(env.ToPolygon())
}
