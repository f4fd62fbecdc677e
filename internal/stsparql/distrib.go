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

// RowKey appends a composite key of the row's values for vars to dst —
// the engine's binding-key encoding, exported for result mergers that
// deduplicate or group rows across shard streams.
func RowKey(dst []byte, row Binding, vars []string) []byte {
	return bindingKey(dst, row, vars)
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
}

// NewOrderKeys returns the evaluator of keys.
func NewOrderKeys(keys []OrderKey) *OrderKeys {
	return &OrderKeys{keys: keys, e: NewEvaluator(emptySource{})}
}

// Eval appends the row's key values to dst.
func (o *OrderKeys) Eval(dst []Value, row Binding) []Value {
	return o.e.appendKeys(dst, o.keys, mapRow(row))
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
func (m *AggMerge) Vars() []string {
	vars := make([]string, len(m.q.Projection))
	for i, item := range m.q.Projection {
		vars[i] = item.Var
	}
	return vars
}

// mergedGroup accumulates one group's partials across shards.
type mergedGroup struct {
	key  Binding // GROUP BY variable bindings
	vals []Value // merged value per part (zero Value = nothing seen yet)
	seen []bool
	cnts []float64 // avg denominators
}

// Finalize recombines the partial rows shipped by every shard into the
// final result: groups are merged by key, HAVING filters complete
// groups, the original projection is evaluated with aggregate calls
// replaced by their merged values, and DISTINCT / ORDER BY / OFFSET /
// LIMIT re-apply at the end.
func (m *AggMerge) Finalize(rows []Binding) (*Result, error) {
	e := NewEvaluator(emptySource{})
	groups := make(map[string]*mergedGroup)
	var order []string
	var kb []byte
	for _, row := range rows {
		kb = bindingKey(kb[:0], row, m.keys)
		g, ok := groups[string(kb)]
		if !ok {
			g = &mergedGroup{
				key:  Binding{},
				vals: make([]Value, len(m.parts)),
				seen: make([]bool, len(m.parts)),
				cnts: make([]float64, len(m.parts)),
			}
			for _, k := range m.keys {
				if t, bound := row[k]; bound {
					g.key[k] = t
				}
			}
			groups[string(kb)] = g
			order = append(order, string(kb))
		}
		for i, p := range m.parts {
			m.combine(e, g, i, p, row)
		}
	}
	// An ungrouped aggregate always yields its implicit group, even over
	// zero partial rows (a window pruned to zero shards): COUNT()=0.
	if len(order) == 0 && len(m.keys) == 0 {
		groups[""] = &mergedGroup{
			key:  Binding{},
			vals: make([]Value, len(m.parts)),
			seen: make([]bool, len(m.parts)),
			cnts: make([]float64, len(m.parts)),
		}
		order = append(order, "")
	}

	vars := e.projectionVars(m.q, nil)
	var out []Binding
	for _, k := range order {
		g := groups[k]
		vals := m.groupValues(g)
		ok := true
		for _, h := range m.q.Having {
			v := m.evalMerged(e, h, vals, g.key)
			pass, err := v.effectiveBool()
			if err != nil || !pass {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		row := Binding{}
		for v, t := range g.key {
			row[v] = t
		}
		for _, item := range m.q.Projection {
			if item.Expr == nil {
				if t, bound := g.key[item.Var]; bound {
					row[item.Var] = t
				}
				continue
			}
			if t, bound := m.evalMerged(e, item.Expr, vals, g.key).asTerm(); bound {
				row[item.Var] = t
			}
		}
		out = append(out, row)
	}
	if m.q.Distinct {
		out = distinctRows(out, vars)
	}
	if len(m.q.OrderBy) > 0 {
		it := (&orderOp{keys: m.q.OrderBy}).open(e, seedIter(e.dict, bindingsSchema(out), out))
		var err error
		if out, err = drainMaterialise(it); err != nil {
			return nil, err
		}
	}
	if m.q.Offset > 0 {
		if m.q.Offset >= len(out) {
			out = nil
		} else {
			out = out[m.q.Offset:]
		}
	}
	if m.q.Limit >= 0 && m.q.Limit < len(out) {
		out = out[:m.q.Limit]
	}
	return &Result{Vars: vars, Rows: out}, nil
}

// combine folds one partial row into a group's merged value for part i.
func (m *AggMerge) combine(e *Evaluator, g *mergedGroup, i int, p *aggPart, row Binding) {
	get := func(v string) (Value, bool) {
		t, ok := row[v]
		if !ok || t.IsZero() {
			return Value{}, false
		}
		return termToValue(t, e.cache), true
	}
	switch p.call.Name {
	case "count", "sum":
		v, ok := get(p.vars[0])
		if !ok || v.Kind != VNum {
			return
		}
		if !g.seen[i] {
			g.vals[i], g.seen[i] = numValue(0), true
		}
		g.vals[i] = numValue(g.vals[i].Num + v.Num)
	case "min", "max":
		v, ok := get(p.vars[0])
		if !ok {
			return
		}
		if !g.seen[i] {
			g.vals[i], g.seen[i] = v, true
			return
		}
		c, err := v.compare(g.vals[i])
		if err != nil {
			return
		}
		if (p.call.Name == "min" && c < 0) || (p.call.Name == "max" && c > 0) {
			g.vals[i] = v
		}
	case "avg":
		s, okS := get(p.vars[0])
		c, okC := get(p.vars[1])
		if !okS || !okC || s.Kind != VNum || c.Kind != VNum {
			return
		}
		if !g.seen[i] {
			g.vals[i], g.seen[i] = numValue(0), true
		}
		g.vals[i] = numValue(g.vals[i].Num + s.Num)
		g.cnts[i] += c.Num
	}
}

// groupValues renders the merged value of every aggregate call for one
// complete group, applying the AVG = SUM/COUNT recombination and the
// engine's empty-input conventions (COUNT/SUM/AVG of nothing are 0,
// MIN/MAX of nothing are unbound).
func (m *AggMerge) groupValues(g *mergedGroup) map[*CallExpr]Value {
	vals := make(map[*CallExpr]Value, len(m.parts))
	for i, p := range m.parts {
		switch p.call.Name {
		case "count", "sum":
			if !g.seen[i] {
				vals[p.call] = numValue(0)
				continue
			}
			vals[p.call] = g.vals[i]
		case "min", "max":
			if !g.seen[i] {
				vals[p.call] = unboundValue()
				continue
			}
			vals[p.call] = g.vals[i]
		case "avg":
			if !g.seen[i] || g.cnts[i] == 0 {
				vals[p.call] = numValue(0)
				continue
			}
			vals[p.call] = numValue(g.vals[i].Num / g.cnts[i])
		}
	}
	return vals
}

// evalMerged evaluates a projection/HAVING expression with aggregate
// calls replaced by their merged group values — the merger-side
// counterpart of evalAggExpr.
func (m *AggMerge) evalMerged(e *Evaluator, expr Expr, vals map[*CallExpr]Value, rep Binding) Value {
	switch v := expr.(type) {
	case *CallExpr:
		if v.isAggregate() {
			if val, ok := vals[v]; ok {
				return val
			}
			return errValue("stsparql: unplanned aggregate %q in merge", v.Name)
		}
		args := make([]Value, len(v.Args))
		for i, a := range v.Args {
			args[i] = m.evalMerged(e, a, vals, rep)
		}
		return e.applyFunction(v, args)
	case *BinaryExpr:
		return e.applyBinary(v.Op,
			m.evalMerged(e, v.L, vals, rep),
			m.evalMerged(e, v.R, vals, rep))
	case *UnaryExpr:
		return e.applyUnary(v.Op, m.evalMerged(e, v.X, vals, rep))
	default:
		return e.evalExpr(expr, mapRow(rep))
	}
}
