package shard

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/stsparql"
)

// benchmarkShapes are the query shapes the repository benchmark sends:
// a window join against the municipalities, ordered or not, its
// per-municipality count, a top-k listing and the live counter.
var benchmarkShapes = []string{
	`SELECT ?h ?m WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?hg .
  ?m a gag:Municipality ; strdf:hasGeometry ?mg .
  FILTER( str(?at) >= "2007-08-25T10:05:17" )
  FILTER( str(?at) <= "2007-08-25T14:05:17" )
  FILTER( strdf:anyInteract(?hg, ?mg) )
}
ORDER BY ?h ?m`,
	`SELECT ?m (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?hg .
  ?m a gag:Municipality ; strdf:hasGeometry ?mg .
  FILTER( str(?at) >= "2007-08-25T11:00:00" )
  FILTER( str(?at) <= "2007-08-25T11:59:00" )
  FILTER( strdf:anyInteract(?hg, ?mg) )
} GROUP BY ?m`,
	`SELECT ?h ?at ?c WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; noa:hasConfidence ?c .
  FILTER( str(?at) >= "2007-08-25T12:00:00" )
  FILTER( str(?at) <= "2007-08-25T12:59:00" )
}
ORDER BY DESC(str(?at)) ?h LIMIT 10`,
	`SELECT (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  FILTER( str(?at) >= "2007-08-25T13:00:00" )
}`,
}

// builtinSeeds calls every row of the builtin table at both ends of its
// arity range and one past it, in a projection and in a FILTER: the
// parser accepts the first two (an aggregate only in the projection)
// and refuses the rest.
func builtinSeeds() []string {
	var seeds []string
	for _, fn := range stsparql.Builtins() {
		for _, n := range []int{fn.Min, fn.Max, fn.Max + 1} {
			args := strings.TrimSuffix(strings.Repeat("?o, ", n), ", ")
			call := fn.Names[0] + "(" + args + ")"
			seeds = append(seeds,
				"SELECT ?s ("+call+" AS ?x) WHERE { ?s ?p ?o }",
				"SELECT ?s WHERE { ?s ?p ?o FILTER("+call+") }")
		}
	}
	return seeds
}

// unresolved reports whether some call of the query, at any depth, has
// no row of the builtin table.
func unresolved(q *stsparql.Query) bool {
	var inExpr func(x stsparql.Expr) bool
	inExpr = func(x stsparql.Expr) bool {
		switch x := x.(type) {
		case *stsparql.CallExpr:
			return x.Fn == nil || slices.ContainsFunc(x.Args, inExpr)
		case *stsparql.BinaryExpr:
			return inExpr(x.L) || inExpr(x.R)
		case *stsparql.UnaryExpr:
			return inExpr(x.X)
		}
		return false
	}
	var inSelect func(sel *stsparql.SelectQuery) bool
	var inGroup func(gp *stsparql.GroupPattern) bool
	inSelect = func(sel *stsparql.SelectQuery) bool {
		exprs := slices.Concat(sel.GroupBy, sel.Having)
		for _, item := range sel.Projection {
			exprs = append(exprs, item.Expr)
		}
		for _, k := range sel.OrderBy {
			exprs = append(exprs, k.Expr)
		}
		return slices.ContainsFunc(exprs, inExpr) || inGroup(sel.Where)
	}
	inGroup = func(gp *stsparql.GroupPattern) bool {
		for _, el := range gp.Elements {
			var found bool
			switch el := el.(type) {
			case *stsparql.FilterElement:
				found = inExpr(el.Cond)
			case *stsparql.OptionalElement:
				found = inGroup(el.Pattern)
			case *stsparql.UnionElement:
				found = slices.ContainsFunc(el.Branches, inGroup)
			case *stsparql.GroupPattern:
				found = inGroup(el)
			case *stsparql.SubSelectElement:
				found = inSelect(el.Select)
			}
			if found {
				return true
			}
		}
		return false
	}
	switch {
	case q.Select != nil:
		return inSelect(q.Select)
	case q.Ask != nil:
		return inGroup(q.Ask.Where)
	case q.Update.Where != nil:
		return inGroup(q.Update.Where)
	}
	return false
}

// FuzzParse: the parser an HTTP client reaches must not panic on any
// text, and whatever it accepts must plan — over an empty store and
// through an empty sharded store's routing — without panicking either.
// Every call it accepts is resolved to a row of the builtin table, so
// the parser and the table cannot drift apart.
func FuzzParse(f *testing.F) {
	for _, tc := range corpus {
		f.Add(tc.query)
	}
	for _, tc := range askCorpus {
		f.Add(tc.query)
	}
	for _, text := range slices.Concat(benchmarkShapes, builtinSeeds()) {
		f.Add(text)
	}
	sh := newSharded(2)
	ev := stsparql.NewEvaluator(rdf.NewStore())
	f.Fuzz(func(t *testing.T, text string) {
		q, err := stsparql.Parse(text, sh.Namespaces())
		if err != nil {
			return
		}
		if unresolved(q) {
			t.Fatalf("a call did not resolve to a builtin: %s", text)
		}
		ev.Compile(q)
		if _, err := ev.Explain(q); err != nil {
			t.Fatalf("parsed but does not plan: %v\n%s", err, text)
		}
		if _, err := sh.Explain(text); err != nil {
			t.Fatalf("parsed but does not route: %v\n%s", err, text)
		}
	})
}
