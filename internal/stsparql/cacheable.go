package stsparql

// Result cacheability, decided on the parsed query. A query's materialised
// result may be served from a cache until the data it read mutates —
// but only if re-evaluating against the unchanged data would be
// obligated to produce the same rows. SAMPLE breaks that: the engine
// returns the first value collected for the group, and collection order
// follows rdf.Store scan order — sorted within a small ID set, but Go
// map iteration across keys and inside a large set, randomised per run.
// Two evaluations at one generation may legitimately answer
// differently, so pinning one answer in a cache would silently freeze
// an arbitrary representative.
//
// Everything else the engine evaluates is a deterministic function of
// the source contents, which the generation vector pins. Store
// statistics are read at plan time only, and every query is planned
// for its own evaluation, so they rank joins without changing results.

// Cacheable reports whether a parsed query's result may be cached and
// replayed at an unchanged store generation. Update requests are never
// cacheable.
func Cacheable(q *Query) bool {
	switch {
	case q == nil || q.Update != nil:
		return false
	case q.Select != nil:
		return selectCacheable(q.Select)
	case q.Ask != nil:
		return groupCacheable(q.Ask.Where)
	}
	return false
}

func selectCacheable(sel *SelectQuery) bool {
	for _, item := range sel.Projection {
		if item.Expr != nil && anyCall(item.Expr, isSample) {
			return false
		}
	}
	for _, g := range sel.GroupBy {
		if anyCall(g, isSample) {
			return false
		}
	}
	for _, h := range sel.Having {
		if anyCall(h, isSample) {
			return false
		}
	}
	for _, k := range sel.OrderBy {
		if anyCall(k.Expr, isSample) {
			return false
		}
	}
	return groupCacheable(sel.Where)
}

func groupCacheable(gp *GroupPattern) bool {
	if gp == nil {
		return true
	}
	for _, el := range gp.Elements {
		switch v := el.(type) {
		case *FilterElement:
			if anyCall(v.Cond, isSample) {
				return false
			}
		case *OptionalElement:
			if !groupCacheable(v.Pattern) {
				return false
			}
		case *UnionElement:
			for _, br := range v.Branches {
				if !groupCacheable(br) {
					return false
				}
			}
		case *GroupPattern:
			if !groupCacheable(v) {
				return false
			}
		case *SubSelectElement:
			if !selectCacheable(v.Select) {
				return false
			}
		}
	}
	return true
}

// isSample reports a SAMPLE aggregate call.
func isSample(c *CallExpr) bool { return c.Name == "sample" }
