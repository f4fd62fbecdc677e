package stsparql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// This file is the logical planner of the stSPARQL engine: it compiles a
// parsed query into the operator pipeline of ops.go. The planner orders
// basic graph patterns by cardinality estimates drawn from the source's
// maintained statistics (Source.CountIDs, PredicateCard, StoreCard),
// pushes filters down to the earliest point where their variables are
// certainly bound, routes R-tree-servable geometry patterns through
// window scans and time-windowed patterns through the source's dateTime
// index (the filters stay behind as residuals), and picks hash joins
// for large or disconnected intermediate results. Explain renders the
// chosen plan.

const (
	// spatialWindowSelectivity scales the estimate of a geometry pattern
	// the R-tree can serve through a window query: the window prunes the
	// scan to the join partner's envelope, so such patterns should order
	// ahead of similarly-sized plain scans (the paper's Municipalities-
	// style joins collapse from hotspots x dataset to hotspots x few).
	spatialWindowSelectivity = 0.01
	// hashJoinMinRows is the estimated input size above which building a
	// hash table beats per-row index scans for a connected pattern.
	hashJoinMinRows = 64
	// crossJoinHashMinRows is the threshold for disconnected patterns,
	// where the bind strategy degenerates to a full rescan per input row.
	crossJoinHashMinRows = 4
	// eagerFilterSelectivity discounts the cumulative row estimate for
	// each filter pushed into the BGP; it keeps downstream hash-join
	// decisions from overestimating their probe side.
	eagerFilterSelectivity = 0.25
)

// planner compiles queries for one evaluator.
type planner struct {
	e *Evaluator
	// firstBatch is the first-batch size hint for the SELECT currently
	// being compiled: when a pushed LIMIT bounds the reachable rows below
	// batchSizeMin, scans open with a batch of that size so the early
	// exit abandons the index scan after ~LIMIT visits, not a full
	// minimum slab. 0 means no hint (batchSizeMin).
	firstBatch int
	// seed lists the variables the plan's seed rows bind. Non-nil marks a
	// prepared plan (prepare.go): seed variables join every schema and
	// start certainly bound, sub-selects take the seed too, and operators
	// keep no state across runs.
	seed []string

	totalSubj, totalPred, totalObj int
}

func (e *Evaluator) newPlanner() *planner {
	p := &planner{e: e}
	_, p.totalSubj, p.totalPred, p.totalObj = e.src.StoreCard()
	return p
}

// --- compiled plan containers ---

// groupPlan is the pipeline of one group graph pattern: open chains its
// operators over the input iterator. The pull model gives the old
// early-exit for free — an empty upstream means no downstream operator
// ever does per-row work, and a sub-select is never evaluated when no
// row reaches it (cost, not correctness). schema is the shared column
// layout of every batch flowing through the group: it spans all
// variables of the enclosing WHERE tree, so OPTIONAL and UNION
// sub-plans emit batches the parent forwards without conversion.
type groupPlan struct {
	ops    []operator
	schema *varSchema
}

func (g *groupPlan) open(e *Evaluator, in batchIter) batchIter {
	cur := in
	for _, op := range g.ops {
		cur = op.open(e, cur)
		if e.trace != nil {
			cur = e.trace.wrap(op, cur)
		}
	}
	return cur
}

// planText accumulates a rendered plan, one line per operator. Each
// operator closes its own line with end, where note — EXPLAIN ANALYZE's
// actuals, or its registration of the operator — sees it first.
type planText struct {
	strings.Builder
	note func(b *strings.Builder, op operator) // nil: plain EXPLAIN
}

// end annotates op's line through note and closes it.
func (b *planText) end(op operator) {
	if b.note != nil {
		b.note(&b.Builder, op)
	}
	b.WriteByte('\n')
}

func (g *groupPlan) explain(b *planText, indent string) {
	for _, op := range g.ops {
		op.explain(b, indent)
	}
}

// selectPlan is a compiled SELECT: the WHERE pipeline plus the solution
// modifiers (aggregate, project, distinct, order, slice), which run even
// over an empty row set (COUNT over zero rows still yields a row).
type selectPlan struct {
	where *groupPlan
	tail  []operator
	proj  *projectOp
}

// open wires the full pipeline over the seed rows, which bind seedVars
// positionally, and returns the output iterator together with the
// projection's output variable list (the result header), which is known
// once the projection has opened.
func (p *selectPlan) open(e *Evaluator, seedVars []string, seed []Row) (batchIter, []string) {
	cur := p.where.open(e, seedIter(e.dict, p.where.schema, seedVars, seed))
	var vars []string
	for _, op := range p.tail {
		cur = op.open(e, cur)
		if op == operator(p.proj) {
			vars = cur.(*projectIter).vars
		}
		if e.trace != nil {
			cur = e.trace.wrap(op, cur)
		}
	}
	return cur, vars
}

// run is the materialising wrapper behind SelectPrepared and
// sub-selects.
func (p *selectPlan) run(e *Evaluator, seedVars []string, seed []Row) (*Result, error) {
	it, vars := p.open(e, seedVars, seed)
	cur := &planCursor{it: it, vars: vars}
	res := ReadAll(cur)
	if err := cur.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

func (p *selectPlan) explain(b *planText, indent string) {
	p.where.explain(b, indent)
	for _, op := range p.tail {
		op.explain(b, indent)
	}
}

// --- compilation ---

// planSelect compiles a SELECT. buffered marks plans whose joins should
// materialise scan matches per probe row instead of streaming them
// through a pull coroutine: sub-plans a parent re-opens once per input
// row (OPTIONAL and UNION), and plans that are always fully drained
// (update WHERE clauses, see PlanUpdate).
func (p *planner) planSelect(q *SelectQuery, buffered bool) *selectPlan {
	grouped := IsGrouped(q)
	pushed := !grouped && !q.Distinct && len(q.OrderBy) == 0 && !q.Star

	// A pushed LIMIT below batchSizeMin bounds the rows the pipeline
	// will ever pull; size the first batches to it (saved/restored
	// around the group so a sub-select's hint does not leak out).
	saved := p.firstBatch
	p.firstBatch = 0
	if pushed && q.Limit >= 0 {
		if k := q.Offset + q.Limit; k > 0 && k < batchSizeMin {
			p.firstBatch = k
		}
	}
	where := p.planGroupRoot(q.Where, buffered)
	p.firstBatch = saved
	var tail []operator
	in := where.schema
	if grouped {
		agg := newAggregateOp(q, in, p.e.cache)
		tail, in = append(tail, agg), agg.out
	}
	proj := newProjectOp(q, grouped, in, p.e.cache)
	tail = append(tail, proj)
	if q.Distinct {
		tail = append(tail, &distinctOp{proj: proj})
	}
	if len(q.OrderBy) > 0 {
		// Top-k: a LIMIT bounds how many sorted rows are reachable, so the
		// order operator can keep OFFSET+LIMIT rows in a bounded heap
		// instead of sorting the full input.
		topK := 0
		if q.Limit >= 0 {
			topK = q.Offset + q.Limit
		}
		order := &orderOp{keys: q.OrderBy, topK: topK}
		if !q.Star {
			order.prog = compileKeys(q.OrderBy, proj.schema, p.e.cache)
		}
		tail = append(tail, order)
	}
	if q.Offset > 0 || q.Limit >= 0 {
		// LIMIT/OFFSET pushdown: with no blocking or row-set modifier
		// between the scans and the slice (no order, no aggregate, no
		// distinct, no star projection), the slice's early exit
		// propagates through the streaming pipeline to the index scans
		// themselves — the plan stops pulling, and therefore scanning,
		// once offset+limit rows have been produced.
		tail = append(tail, &sliceOp{offset: q.Offset, limit: q.Limit, pushed: pushed})
	}
	return &selectPlan{where: where, tail: tail, proj: proj}
}

// planGroupRoot compiles the root group of a WHERE clause: it derives
// the shared column schema from the full variable set of the pattern
// tree (sub-selects contributing only their projected variables) and
// compiles the group against it. A prepared plan's seed variables are
// part of every root schema and bound from the start.
func (p *planner) planGroupRoot(gp *GroupPattern, buffered bool) *groupPlan {
	vars, bound := map[string]bool{}, map[string]bool{}
	collectGroupVars(gp, vars)
	for _, v := range p.seed {
		vars[v], bound[v] = true, true
	}
	return p.planGroup(gp, bound, 1, buffered, schemaOf(vars))
}

// collectGroupVars accumulates every variable a group graph pattern can
// bind — the column set of the group's batch schema.
func collectGroupVars(gp *GroupPattern, vars map[string]bool) {
	if gp == nil {
		return
	}
	for _, el := range gp.Elements {
		switch v := el.(type) {
		case *BGPElement:
			for _, pat := range v.Patterns {
				for _, tv := range []TermOrVar{pat.S, pat.P, pat.O} {
					if tv.IsVar() {
						vars[tv.Var] = true
					}
				}
			}
		case *OptionalElement:
			collectGroupVars(v.Pattern, vars)
		case *UnionElement:
			for _, br := range v.Branches {
				collectGroupVars(br, vars)
			}
		case *GroupPattern:
			collectGroupVars(v, vars)
		case *SubSelectElement:
			if v.Select.Star {
				collectGroupVars(v.Select.Where, vars)
			} else {
				for _, item := range v.Select.Projection {
					vars[item.Var] = true
				}
			}
		}
	}
}

// planGroup compiles a group graph pattern. bound is the set of
// variables certainly bound when the group starts; it is extended with
// the variables this group certainly binds (BGP patterns; for UNION, the
// intersection across branches). buffered propagates the per-row
// re-execution mark to the joins (see planSelect). schema is the shared
// column layout of the enclosing WHERE tree — sub-groups compile against
// the same schema so their batches forward through unchanged.
func (p *planner) planGroup(gp *GroupPattern, bound map[string]bool, inEst float64, buffered bool, schema *varSchema) *groupPlan {
	g := &groupPlan{schema: schema}
	if gp == nil {
		return g
	}
	var filters []*FilterElement
	for _, el := range gp.Elements {
		if f, ok := el.(*FilterElement); ok {
			filters = append(filters, f)
		}
	}
	applied := make(map[*FilterElement]bool)

	for _, el := range gp.Elements {
		switch v := el.(type) {
		case *BGPElement:
			var ops []operator
			ops, inEst = p.planBGP(v.Patterns, filters, applied, bound, inEst, buffered, schema)
			g.ops = append(g.ops, ops...)
		case *FilterElement:
			// applied at group end (or pushed into a BGP)
		case *OptionalElement:
			sub := p.planGroup(v.Pattern, cloneBound(bound), 1, true, schema)
			g.ops = append(g.ops, &optionalOp{sub: sub, schema: schema})
		case *UnionElement:
			u := &unionOp{schema: schema}
			var branchBound []map[string]bool
			for _, br := range v.Branches {
				bb := cloneBound(bound)
				u.branches = append(u.branches, p.planGroup(br, bb, 1, true, schema))
				branchBound = append(branchBound, bb)
			}
			g.ops = append(g.ops, u)
			// Variables bound in every branch are certainly bound after
			// the union.
			if len(branchBound) > 0 {
				for v2 := range branchBound[0] {
					all := true
					for _, bb := range branchBound[1:] {
						if !bb[v2] {
							all = false
							break
						}
					}
					if all {
						bound[v2] = true
					}
				}
			}
			inEst *= float64(len(v.Branches))
		case *GroupPattern:
			sub := p.planGroup(v, bound, inEst, buffered, schema)
			g.ops = append(g.ops, &nestedGroupOp{sub: sub})
		case *SubSelectElement:
			// A sub-select evaluates once per evaluation (its solutions
			// are kept in the evaluator's memo), so its own pipeline may
			// stream even when the enclosing group is re-executed per
			// row. It carries its own schema; only its projected
			// solution rows join back into the enclosing layout.
			sub := p.planSelect(v.Select, false)
			g.ops = append(g.ops, &subSelectOp{sub: sub, schema: schema})
			// The sub-select's projected variables are NOT certainly bound:
			// a projection can come from an OPTIONAL-only variable or an
			// erroring expression, leaving it unbound in some rows. Marking
			// them here would let a later hash join key on an unbound
			// variable and silently drop rows; leaving them unmarked only
			// costs eager-filter and hash opportunities (bind joins still
			// use the runtime bindings).
		}
	}

	// Remaining filters apply over the whole group. Filters already pushed
	// into a BGP are pure pruning and need not re-run.
	for _, f := range filters {
		if !applied[f] {
			g.ops = append(g.ops, newFilterOp(f.Cond, false, schema, p.e.cache))
		}
	}
	return g
}

// planBGP orders a basic graph pattern's triples by cardinality
// estimates and interleaves eagerly-applicable filters, returning the
// operators and the updated cumulative row estimate.
//
// One ordering rule places the filters, for a rule's prepared plan and a
// query's alike: a filter is pushed behind the pattern that binds the
// last of its variables — except a costly one (isSpatial: it calls
// a spatial function, an exact geometry test per row), which waits while a
// ground pattern remains (hasGroundPattern: every component constant or
// certainly bound, so the join is an index probe that only drops rows).
// The class ranking below scores such a pattern 7 and picks it next, so
// the costly filter lands directly behind the existence checks: a
// spatial join tests `?m a gag:Municipality` on every R-tree candidate
// and the exact geometry only on the municipalities among them.
func (p *planner) planBGP(patterns []TriplePattern, filters []*FilterElement, applied map[*FilterElement]bool, bound map[string]bool, inEst float64, buffered bool, schema *varSchema) ([]operator, float64) {
	remaining := append([]TriplePattern(nil), patterns...)
	ops := make([]operator, 0, len(patterns)+len(filters))
	wins := p.timeWindows(patterns, filters, bound)

	for len(remaining) > 0 {
		// Pick the next pattern by (boundness class, cardinality estimate):
		// the class ranks patterns by how many components are constant or
		// certainly bound — with R-tree-servable geometry patterns promoted
		// when a pending spatial filter joins their fresh geometry variable
		// against a bound one, and time-indexed patterns promoted alike when
		// the group's filters confine their fresh time variable to a window
		// (the index's exact range count is their estimate) — and the
		// statistics break ties within a class with the lowest estimated
		// matches per input row. The class ordering is the heuristic the
		// tree-walking evaluator pinned (selective scans first, window
		// scans as soon as servable); the estimates refine choices the
		// class cannot rank, such as two type scans of different sizes.
		best, bestScore, bestEst, bestWindow := 0, -1, 0.0, false
		var bestRange *TimeWindow
		for i, pat := range remaining {
			score := 0
			for _, tv := range []TermOrVar{pat.S, pat.P, pat.O} {
				if !tv.IsVar() || bound[tv.Var] {
					score += 2
				}
			}
			if !pat.P.IsVar() {
				score++ // bound predicates: the POS index is effective
			}
			window := false
			if p.e.spatial != nil && score < 6 && !pat.P.IsVar() && GeometryPredicates[pat.P.Term.Value] &&
				pat.O.IsVar() && !bound[pat.O.Var] &&
				spatialJoinReady(filters, applied, pat.O.Var, bound) {
				score = 6
				window = true
			}
			est := p.estimateFanout(pat, bound)
			var trange *TimeWindow
			if window {
				est *= spatialWindowSelectivity
			} else if w, n, ok := p.timeRangeFor(pat, wins, bound); ok {
				score, est, trange = 6, float64(n), w
			}
			if score > bestScore || (score == bestScore && est < bestEst) {
				best, bestScore, bestEst, bestWindow, bestRange = i, score, est, window, trange
			}
		}
		pat := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)

		op := &joinOp{pat: pat, strategy: joinBind, buffered: buffered, schema: schema, first: p.firstBatch}
		for _, tv := range []TermOrVar{pat.S, pat.P, pat.O} {
			if tv.IsVar() && bound[tv.Var] && !containsVar(op.shared, tv.Var) {
				op.shared = append(op.shared, tv.Var)
			}
		}
		if pat.O.IsVar() && (pat.P.IsVar() || GeometryPredicates[pat.P.Term.Value]) {
			c := &compiler{schema: schema, cache: p.e.cache}
			for _, f := range filters {
				op.window = windowArgs(f.Cond, pat.O.Var, c, op.window)
			}
		}
		switch {
		case bestWindow:
			op.strategy, op.subjects = joinWindow, windowFilters(pat, remaining, bound, wins, schema)
		case bestRange != nil:
			op.strategy, op.trange, op.trCols = joinTimeRange, bestRange, windowCols(bestRange, schema)
		case len(op.shared) == 0 && inEst >= crossJoinHashMinRows:
			// Disconnected pattern: bind degenerates to a rescan per row.
			op.strategy = joinHash
		case len(op.shared) > 0 && inEst >= hashJoinMinRows &&
			float64(p.count(pat)) <= inEst*max(bestEst, 1):
			// The build side materialises the pattern's matches with only
			// its constants bound.
			op.strategy = joinHash
		}
		inEst *= max(bestEst, 1.0/16)
		op.est = inEst
		ops = append(ops, op)

		for _, tv := range []TermOrVar{pat.S, pat.P, pat.O} {
			if tv.IsVar() {
				bound[tv.Var] = true
			}
		}

		// Push down any filter whose variables just became certainly
		// bound (bound() must wait for the group end: OPTIONAL may bind
		// later).
		for _, f := range filters {
			if applied[f] {
				continue
			}
			vars := map[string]bool{}
			exprVars(f.Cond, vars)
			all := true
			for v := range vars {
				if !bound[v] {
					all = false
					break
				}
			}
			if all && !anyCall(f.Cond, (*CallExpr).isBound) {
				if anyCall(f.Cond, (*CallExpr).isSpatial) && hasGroundPattern(remaining, bound) {
					continue // the cheap existence check runs first
				}
				applied[f] = true
				ops = append(ops, newFilterOp(f.Cond, true, schema, p.e.cache))
				inEst *= eagerFilterSelectivity
			}
		}
	}
	return ops, inEst
}

// subjectFilter is a BGP pattern on a window scan's fresh subject ?x
// that the scan checks candidates against before staging them: `?x <p>
// o`, o a constant or a variable bound before the scan, or `?x <p> ?t`
// with ?t confined to a window by the group's filters (see subjectSets).
// Its sets hold a superset of the subjects the pattern matches, and the
// pattern and filters stay in the plan, so dropping the rest is sound.
type subjectFilter struct {
	kind int // filterClass, filterSet or filterTime: the order checked in
	p    rdf.Term
	o    TermOrVar
	time *TimeWindow // a time filter's window on o
	// The probe row's columns of a variable o (col) and of a time
	// filter's variable bounds (timeCols).
	col      int
	timeCols boundCols
}

// Subject-filter kinds; a class filter is `?x rdf:type C`.
const (
	filterClass = iota
	filterSet
	filterTime
)

func (f subjectFilter) String() string {
	switch f.kind {
	case filterClass:
		return "class=" + f.o.Term.String()
	case filterTime:
		return "time=" + f.time.String()
	}
	return f.p.String() + "=" + termOrVarString(f.o)
}

// windowFilters returns the subject filters the BGP's remaining patterns
// put on a window pattern's fresh subject, in kind order, their columns
// those of schema.
func windowFilters(pat TriplePattern, remaining []TriplePattern, bound map[string]bool, wins map[string]*TimeWindow, schema *varSchema) []subjectFilter {
	if !pat.S.IsVar() || bound[pat.S.Var] {
		return nil
	}
	var fs []subjectFilter
	for _, r := range remaining {
		if !r.S.IsVar() || r.S.Var != pat.S.Var || r.P.IsVar() {
			continue
		}
		f := subjectFilter{p: r.P.Term, o: r.O, col: -1, timeCols: boundCols{-1, -1}}
		if r.O.IsVar() {
			f.col = slotOf(schema, r.O.Var)
		}
		switch {
		case !r.O.IsVar() && r.P.Term.Equal(rdfType):
			f.kind = filterClass
		case !r.O.IsVar() || bound[r.O.Var]:
			f.kind = filterSet
		case r.O.Var != pat.S.Var && wins[r.O.Var] != nil:
			f.kind, f.time, f.timeCols = filterTime, wins[r.O.Var], windowCols(wins[r.O.Var], schema)
		default:
			continue
		}
		fs = append(fs, f)
	}
	slices.SortStableFunc(fs, func(a, b subjectFilter) int { return a.kind - b.kind })
	return fs
}

var rdfType = rdf.NewIRI(rdf.RDFType)

// timeWindows extracts the windows the group's filters confine the
// BGP's object variables to, when the source keeps a time index: bounded
// by constants or by variables certainly bound before the BGP. The
// filters are not consumed: a window is their inclusive superset.
func (p *planner) timeWindows(patterns []TriplePattern, filters []*FilterElement, bound map[string]bool) map[string]*TimeWindow {
	if p.e.timed == nil || len(filters) == 0 {
		return nil
	}
	vars := make(map[string]bool)
	for _, pat := range patterns {
		if pat.O.IsVar() {
			vars[pat.O.Var] = true
		}
	}
	conds := make([]Expr, len(filters))
	for i, f := range filters {
		conds[i] = f.Cond
	}
	return ExtractTimeWindows(conds, vars, bound)
}

// timeRangeFor reports the window of pattern `?s <p> ?t` — both
// variables fresh — and the number of index entries inside its constant
// bounds (all of p's when its bounds are variables, whose values are not
// known until the scan opens), when the source can serve p's time
// ranges.
func (p *planner) timeRangeFor(pat TriplePattern, wins map[string]*TimeWindow, bound map[string]bool) (*TimeWindow, int, bool) {
	if len(wins) == 0 || pat.P.IsVar() || !pat.S.IsVar() || !pat.O.IsVar() ||
		bound[pat.S.Var] || bound[pat.O.Var] || pat.S.Var == pat.O.Var {
		return nil, 0, false
	}
	w := wins[pat.O.Var]
	if w == nil {
		return nil, 0, false
	}
	pid, ok := p.statID(pat.P)
	if !ok {
		return w, 0, true // no triple carries p: served, and empty
	}
	n, ok := p.e.timed.CountTimeRange(pid, *w)
	return w, n, ok
}

// hasGroundPattern reports whether some remaining pattern has every
// component constant or certainly bound — a pure existence check, which
// the class ranking of planBGP picks next.
func hasGroundPattern(remaining []TriplePattern, bound map[string]bool) bool {
	for _, pat := range remaining {
		ground := true
		for _, tv := range []TermOrVar{pat.S, pat.P, pat.O} {
			if tv.IsVar() && !bound[tv.Var] {
				ground = false
			}
		}
		if ground {
			return true
		}
	}
	return false
}

// statID resolves a pattern component for the statistics: a variable is
// the wildcard, a constant its store ID. Constants resolve through the
// dictionary's Lookup, not the evaluation's pin: a plan may be compiled
// outside an evaluation. ok is false for a constant the dictionary
// lacks, which no triple carries.
func (p *planner) statID(tv TermOrVar) (rdf.ID, bool) {
	if tv.IsVar() {
		return rdf.Wildcard, true
	}
	return p.e.src.Dict().Lookup(tv.Term)
}

// count is the exact number of the pattern's matches with only its
// constants bound: 0 when one of them misses.
func (p *planner) count(pat TriplePattern) int {
	sid, okS := p.statID(pat.S)
	pid, okP := p.statID(pat.P)
	oid, okO := p.statID(pat.O)
	if !okS || !okP || !okO {
		return 0
	}
	return p.e.src.CountIDs(sid, pid, oid)
}

// estimateFanout estimates how many matches one input row finds in the
// pattern. Components are either constants (usable in exact counts),
// certainly-bound variables (whose value is unknown at plan time —
// estimated through per-predicate distinct counts), or free.
func (p *planner) estimateFanout(pat TriplePattern, bound map[string]bool) float64 {
	sBound := pat.S.IsVar() && bound[pat.S.Var]
	pBound := pat.P.IsVar() && bound[pat.P.Var]
	oBound := pat.O.IsVar() && bound[pat.O.Var]

	base := float64(p.count(pat))
	if !sBound && !pBound && !oBound {
		return base // exact
	}
	var distinctS, distinctO int
	if pid, ok := p.statID(pat.P); ok && pid != rdf.Wildcard {
		_, distinctS, distinctO = p.e.src.PredicateCard(pid)
	}
	if sBound {
		if !pat.P.IsVar() {
			base /= float64(max(distinctS, 1))
		} else {
			base /= float64(max(p.totalSubj, 1))
		}
	}
	if oBound {
		if !pat.P.IsVar() {
			base /= float64(max(distinctO, 1))
		} else {
			base /= float64(max(p.totalObj, 1))
		}
	}
	if pBound {
		base /= float64(max(p.totalPred, 1))
	}
	return base
}

// spatialJoinReady reports whether a pending filter spatially joins
// variable v against a geometry computable from the already-bound
// variables — the static counterpart of findSpatialConstraint, used to
// route index-servable geometry patterns through window scans.
func spatialJoinReady(filters []*FilterElement, applied map[*FilterElement]bool, v string, bound map[string]bool) bool {
	for _, f := range filters {
		if applied[f] {
			continue
		}
		if spatialJoinReadyExpr(f.Cond, v, bound) {
			return true
		}
	}
	return false
}

func spatialJoinReadyExpr(expr Expr, v string, bound map[string]bool) bool {
	switch n := expr.(type) {
	case *CallExpr:
		if n.Fn.window {
			for i := 0; i < 2; i++ {
				ve, ok := n.Args[i].(*VarExpr)
				if !ok || ve.Name != v {
					continue
				}
				vars := map[string]bool{}
				exprVars(n.Args[1-i], vars)
				otherBound := true
				for name := range vars {
					if !bound[name] {
						otherBound = false
						break
					}
				}
				if otherBound {
					return true
				}
			}
		}
	case *BinaryExpr:
		if n.Op == "&&" {
			return spatialJoinReadyExpr(n.L, v, bound) || spatialJoinReadyExpr(n.R, v, bound)
		}
	}
	return false
}

// --- Explain ---

// Explain compiles the query and renders the chosen plan without
// executing it. Join operators are annotated with their strategy and the
// planner's cumulative row estimates.
func (e *Evaluator) Explain(q *Query) (string, error) {
	p := e.newPlanner()
	var b planText
	switch {
	case q.Select != nil:
		b.WriteString("select\n")
		p.planSelect(q.Select, false).explain(&b, "  ")
	case q.Ask != nil:
		b.WriteString("ask\n")
		p.planGroupRoot(q.Ask.Where, false).explain(&b, "  ")
	case q.Update != nil:
		fmt.Fprintf(&b, "update delete=%d insert=%d\n", len(q.Update.Delete), len(q.Update.Insert))
		if q.Update.Where != nil {
			p.planGroupRoot(q.Update.Where, false).explain(&b, "  ")
		}
	default:
		return "", fmt.Errorf("stsparql: empty query")
	}
	return b.String(), nil
}

// --- rendering helpers ---

func termOrVarString(tv TermOrVar) string {
	if tv.IsVar() {
		return "?" + tv.Var
	}
	return tv.Term.String()
}

func exprString(e Expr) string {
	switch v := e.(type) {
	case *VarExpr:
		return "?" + v.Name
	case *ConstExpr:
		return v.Term.String()
	case *BinaryExpr:
		return "(" + exprString(v.L) + " " + v.Op + " " + exprString(v.R) + ")"
	case *UnaryExpr:
		return v.Op + exprString(v.X)
	case *CallExpr:
		var b strings.Builder
		b.WriteString(v.Name)
		b.WriteByte('(')
		if v.Distinct {
			b.WriteString("DISTINCT ")
		}
		if v.Star {
			b.WriteByte('*')
		}
		for i, a := range v.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(exprString(a))
		}
		b.WriteByte(')')
		return b.String()
	default:
		return fmt.Sprintf("%T", e)
	}
}

func formatEst(est float64) string {
	if est >= 10 {
		return strconv.FormatFloat(est, 'f', 0, 64)
	}
	return strconv.FormatFloat(est, 'g', 2, 64)
}

func cloneBound(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func containsVar(vars []string, v string) bool {
	for _, x := range vars {
		if x == v {
			return true
		}
	}
	return false
}
