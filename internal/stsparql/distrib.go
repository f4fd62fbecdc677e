package stsparql

import (
	"fmt"
	"time"

	"repro/internal/rdf"
)

// This file holds the engine-side helpers of distributed (sharded) query
// evaluation — see internal/shard. A sharded store fans a query out to
// per-shard evaluations and merges their cursors; the pieces that need
// engine internals live here:
//
//   - OrderKeys: the ORDER BY keys a k-way ordered merge ranks
//     pre-sorted shard streams by, evaluated once per stream head and
//     compared with the order operator's own comparator.
//   - CompileASTCached: plan caching for rewritten per-shard ASTs that
//     have no surface text of their own.
//   - AggMerge: partial-aggregate recombination — a grouped SELECT is
//     rewritten into a per-shard partial query (COUNT/SUM/MIN/MAX stay
//     themselves, AVG splits into SUM+COUNT) whose groups are then
//     recombined, filtered (HAVING) and projected at the merger.

// ParseDateTime parses the ISO dateTime forms appearing in the
// datasets — the engine's literal parsing, exported so the sharded
// store's routing and window pruning accept exactly the same forms the
// evaluator compares.
func ParseDateTime(s string) (time.Time, bool) { return parseDateTime(s) }

// RowKey appends a composite key of the row's terms to dst, for result
// mergers that deduplicate rows across shard streams: rows of one
// header have equal keys exactly when their terms are equal column for
// column (unbound encoding distinctly from every bound term).
func RowKey(dst []byte, row Row) []byte {
	for _, t := range row {
		dst = appendTermKey(dst, t)
		dst = append(dst, 0x1f)
	}
	return dst
}

// emptySource is a Source with no triples and an empty dictionary,
// backing evaluators that only evaluate expressions over existing
// bindings (comparators, mergers).
type emptySource struct{}

// emptyDict is never appended to, so every emptySource shares it.
var emptyDict = rdf.NewDictionary()

func (emptySource) Dict() *rdf.Dictionary { return emptyDict }

func (emptySource) MatchIDs(s, p, o rdf.ID, visit func(rdf.EncodedTriple) bool) bool { return true }

// OrderKeys evaluates ORDER BY keys over result rows, and compares them
// as the order operator does, for a merger of streams each sorted by
// the keys. It is single-goroutine, like an Evaluator.
type OrderKeys struct {
	keys []OrderKey
	e    *Evaluator
	row  termRow
}

// NewOrderKeys returns the evaluator of keys over rows whose columns
// follow vars.
func NewOrderKeys(keys []OrderKey, vars []string) *OrderKeys {
	return &OrderKeys{keys: keys, e: NewEvaluator(emptySource{}), row: termRow{schema: newSchema(vars)}}
}

// Eval appends the row's key values to dst.
func (o *OrderKeys) Eval(dst []Value, row Row) []Value {
	o.row.terms = row
	return o.e.appendKeys(dst, o.keys, rowRef{t: &o.row})
}

// Compare compares two rows' key values from Eval: negative when a sorts
// before b, zero when they tie.
func (o *OrderKeys) Compare(a, b []Value) int { return compareKeys(a, b, o.keys) }

// CompileASTCached returns the cached plan for key at gen, or compiles q
// against this evaluator's source and stores it. Unlike CompileCached
// the query is already parsed — typically a rewritten per-shard AST with
// no surface text — so key must uniquely identify both the original
// query text and the rewrite applied to it. cache may be nil.
func (e *Evaluator) CompileASTCached(key string, gen uint64, cache *PlanCache, q *Query) *Compiled {
	if cache != nil {
		if c, ok := cache.get(key, gen); ok {
			return c
		}
	}
	c := e.Compile(q)
	if cache != nil && (c.sel != nil || c.ask != nil) {
		cache.put(key, gen, c)
	}
	return c
}

// IsGrouped reports whether the SELECT evaluates through the aggregate
// operator (GROUP BY, HAVING, or aggregate projections) — the queries a
// distributing merger must recombine rather than concatenate.
func IsGrouped(sel *SelectQuery) bool {
	return len(sel.GroupBy) > 0 || len(sel.Having) > 0 || projectionHasAggregates(sel)
}

// aggPart is one aggregate call occurrence and the partial column(s) the
// per-shard query computes for it.
type aggPart struct {
	call *CallExpr
	vars []string // 1 column (count/sum/min/max) or 2 (avg: sum, count)
	col  int      // the partial row's column of vars[0]
	idx  int      // position in AggMerge.parts
}

// AggMerge is the distributed-evaluation plan of a grouped SELECT:
// Partial() is the query every shard runs, Finalize recombines the
// shipped partial rows into the final result. Built by PlanAggMerge.
type AggMerge struct {
	q       *SelectQuery
	keys    []string // GROUP BY variable names
	parts   []*aggPart
	byCall  map[*CallExpr]*aggPart
	partial *Query
}

// PlanAggMerge analyses a grouped SELECT for partial-aggregate
// recombination. It succeeds when every GROUP BY key is a plain
// variable, every plain projection is a key, and every aggregate call
// (projection, HAVING) is a DISTINCT-free COUNT, SUM, MIN, MAX or AVG —
// the decomposable aggregates. Anything else (SAMPLE, spatial
// aggregates, DISTINCT args, expression keys) returns ok=false and the
// caller must evaluate the query undistributed.
func PlanAggMerge(sel *SelectQuery) (*AggMerge, bool) {
	if sel.Star {
		return nil, false
	}
	m := &AggMerge{q: sel, byCall: make(map[*CallExpr]*aggPart)}
	keySet := make(map[string]bool)
	for _, g := range sel.GroupBy {
		ve, ok := g.(*VarExpr)
		if !ok {
			return nil, false
		}
		m.keys = append(m.keys, ve.Name)
		keySet[ve.Name] = true
	}
	for _, item := range sel.Projection {
		if item.Expr == nil {
			if !keySet[item.Var] {
				return nil, false
			}
			continue
		}
		if !m.collect(item.Expr, keySet) {
			return nil, false
		}
	}
	for _, h := range sel.Having {
		if !m.collect(h, keySet) {
			return nil, false
		}
	}

	// Per-shard partial query: same WHERE and grouping, but projecting
	// the keys plus raw partials, with no HAVING / DISTINCT / ORDER /
	// LIMIT — those all re-apply at the merger, over complete groups.
	partial := &SelectQuery{Where: sel.Where, GroupBy: sel.GroupBy, Limit: -1}
	for _, k := range m.keys {
		partial.Projection = append(partial.Projection, SelectItem{Var: k})
	}
	for i, p := range m.parts {
		p.col, p.idx = len(partial.Projection), i
		if p.call.Name == "avg" {
			// AVG = SUM / count-of-NUMERIC-values (the engine skips
			// non-numeric bound values in both), so the denominator
			// partial is the internal #numcount aggregate, not COUNT —
			// COUNT keeps non-numeric bound values.
			p.vars = []string{fmt.Sprintf("#a%ds", i), fmt.Sprintf("#a%dc", i)}
			partial.Projection = append(partial.Projection,
				SelectItem{Var: p.vars[0], Expr: &CallExpr{Name: "sum", Args: p.call.Args}},
				SelectItem{Var: p.vars[1], Expr: &CallExpr{Name: "#numcount", Args: p.call.Args}})
			continue
		}
		p.vars = []string{fmt.Sprintf("#a%d", i)}
		partial.Projection = append(partial.Projection, SelectItem{Var: p.vars[0], Expr: p.call})
	}
	m.partial = &Query{Select: partial}
	return m, true
}

// decomposableAggs are the aggregate functions with an exact
// partial-combine rule (AVG via SUM+COUNT).
var decomposableAggs = map[string]bool{
	"count": true, "sum": true, "min": true, "max": true, "avg": true,
}

// collect validates one projection/HAVING expression and registers its
// aggregate calls as partials. Outside aggregate calls only GROUP BY
// variables may be referenced (anything else would take the group's
// representative row, which is shard-dependent).
func (m *AggMerge) collect(expr Expr, keySet map[string]bool) bool {
	switch v := expr.(type) {
	case *CallExpr:
		if v.isAggregate() {
			if !decomposableAggs[v.Name] || v.Distinct {
				return false
			}
			if !v.Star && len(v.Args) != 1 {
				return false
			}
			p := &aggPart{call: v}
			m.parts = append(m.parts, p)
			m.byCall[v] = p
			return true
		}
		for _, a := range v.Args {
			if !m.collect(a, keySet) {
				return false
			}
		}
		return true
	case *VarExpr:
		return keySet[v.Name]
	case *ConstExpr:
		return true
	case *BinaryExpr:
		return m.collect(v.L, keySet) && m.collect(v.R, keySet)
	case *UnaryExpr:
		return m.collect(v.X, keySet)
	default:
		return false
	}
}

// Partial returns the per-shard query computing the group keys and raw
// partial aggregates.
func (m *AggMerge) Partial() *Query { return m.partial }

// Vars is the final result header (the original SELECT's projection).
func (m *AggMerge) Vars() []string { return projectionVars(m.q) }

// mergedGroup accumulates one group's partials across shards.
type mergedGroup struct {
	key   Row // the GROUP BY values, in key order
	parts []mergedPart
}

// mergedPart is one aggregate call's running merge.
type mergedPart struct {
	val  Value // merged value (meaningful once seen)
	seen bool
	cnt  float64 // avg denominator
}

// Finalize recombines the partial rows shipped by every shard — each
// in the column order of the Partial query's header — into the final
// result: groups are merged by key, HAVING filters complete groups, the
// original projection is evaluated with aggregate calls replaced by
// their merged values, and the engine's distinct, order and slice
// operators apply DISTINCT / ORDER BY / OFFSET / LIMIT at the end.
func (m *AggMerge) Finalize(rows []Row) (*Result, error) {
	e := NewEvaluator(emptySource{})
	groups := make(map[string]int)
	var merged []mergedGroup
	var kb []byte
	nk := len(m.keys)
	for _, row := range rows {
		kb = RowKey(kb[:0], row[:nk])
		g, ok := groups[string(kb)]
		if !ok {
			g = len(merged)
			groups[string(kb)] = g
			merged = append(merged, mergedGroup{key: row[:nk], parts: make([]mergedPart, len(m.parts))})
		}
		for i, p := range m.parts {
			m.combine(e, &merged[g].parts[i], p, row)
		}
	}
	// An ungrouped aggregate always yields its implicit group, even over
	// zero partial rows (a window pruned to zero shards): COUNT()=0.
	if len(merged) == 0 && nk == 0 {
		merged = append(merged, mergedGroup{parts: make([]mergedPart, len(m.parts))})
	}

	vars := m.Vars()
	out := newBatch(e.dict, newSchema(vars), len(merged))
	rep := &termRow{schema: newSchema(m.keys)}
	vals := make([]Value, len(m.parts))
	agg := func(c *CallExpr) Value {
		if p, ok := m.byCall[c]; ok {
			return vals[p.idx]
		}
		return errValue("stsparql: unplanned aggregate %q in merge", c.Name)
	}
	for _, g := range merged {
		m.groupValues(g.parts, vals)
		rep.terms = g.key
		if !e.having(m.q.Having, rowRef{t: rep}, agg) {
			continue
		}
		r := out.beginRow(rowRef{})
		for c, item := range m.q.Projection {
			var t rdf.Term
			var ok bool
			if item.Expr == nil {
				t, ok = rowRef{t: rep}.lookup(item.Var)
			} else {
				t, ok = e.evalGrouped(item.Expr, rowRef{t: rep}, agg).asTerm()
			}
			if ok {
				out.cols[c][r] = e.dict.encode(t)
			}
		}
		out.commitRow()
	}
	var it batchIter = &batchesIter{batches: []*Batch{out}}
	if m.q.Distinct {
		it = (&distinctOp{}).open(e, it)
	}
	if len(m.q.OrderBy) > 0 {
		it = (&orderOp{keys: m.q.OrderBy}).open(e, it)
	}
	if m.q.Offset > 0 || m.q.Limit >= 0 {
		it = (&sliceOp{offset: m.q.Offset, limit: m.q.Limit}).open(e, it)
	}
	cur := &planCursor{it: it, vars: vars}
	res := ReadAll(cur)
	return res, cur.Close()
}

// combine folds one partial row into a group's merged value for part p.
func (m *AggMerge) combine(e *Evaluator, acc *mergedPart, p *aggPart, row Row) {
	get := func(k int) (Value, bool) {
		t := row[p.col+k]
		if t.IsZero() {
			return Value{}, false
		}
		return termToValue(t, e.cache), true
	}
	switch p.call.Name {
	case "count", "sum":
		v, ok := get(0)
		if !ok || v.Kind != VNum {
			return
		}
		if !acc.seen {
			acc.val, acc.seen = numValue(0), true
		}
		acc.val = numValue(acc.val.Num + v.Num)
	case "min", "max":
		v, ok := get(0)
		if !ok {
			return
		}
		if !acc.seen {
			acc.val, acc.seen = v, true
			return
		}
		c, err := v.compare(acc.val)
		if err != nil {
			return
		}
		if (p.call.Name == "min" && c < 0) || (p.call.Name == "max" && c > 0) {
			acc.val = v
		}
	case "avg":
		s, okS := get(0)
		c, okC := get(1)
		if !okS || !okC || s.Kind != VNum || c.Kind != VNum {
			return
		}
		if !acc.seen {
			acc.val, acc.seen = numValue(0), true
		}
		acc.val = numValue(acc.val.Num + s.Num)
		acc.cnt += c.Num
	}
}

// groupValues renders into vals the merged value of every aggregate
// call for one complete group's parts, applying the AVG = SUM/COUNT
// recombination and the engine's empty-input conventions (COUNT/SUM/AVG
// of nothing are 0, MIN/MAX of nothing are unbound).
func (m *AggMerge) groupValues(parts []mergedPart, vals []Value) {
	for i, p := range m.parts {
		acc := parts[i]
		switch p.call.Name {
		case "count", "sum":
			vals[i] = numValue(0)
			if acc.seen {
				vals[i] = acc.val
			}
		case "min", "max":
			vals[i] = unboundValue()
			if acc.seen {
				vals[i] = acc.val
			}
		case "avg":
			vals[i] = numValue(0)
			if acc.seen && acc.cnt != 0 {
				vals[i] = numValue(acc.val.Num / acc.cnt)
			}
		}
	}
}
