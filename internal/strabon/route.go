package strabon

import (
	"repro/internal/rdf"
	"repro/internal/stsparql"
)

// This file is the fan-out analysis: it decides, per query, whether
// per-shard evaluation plus cursor merging is provably equivalent to a
// union-view evaluation, and which slices a time-constrained query
// can prune to.
//
// Fan-out over the slice views (static + one slice each) is exact iff
// every solution row is produced by exactly one view. Two failure modes
// must be excluded: a row derivable from static data alone would be
// produced by EVERY view (duplicates), and a row needing partitioned
// triples from two different slices would be produced by NO view
// (missed). The analysis therefore requires:
//
//  1. at least one conjunctive (non-OPTIONAL, non-UNION-branch) pattern
//     that can only match slice-routed triples — so every solution
//     touches partitioned data;
//  2. no pattern of unknown provenance (a predicate stored on both
//     sides with an untyped subject, or a variable predicate on an
//     untyped subject) — so nothing silently spans the partition;
//  3. all slice-classed patterns sharing one SUBJECT variable — the
//     "anchor" entity of every solution. Routing co-locates one
//     subject's triples (a whole acquisition group lands in one
//     slice), so same-subject patterns provably read one slice;
//     joining two slice subjects through a shared object value
//     (?h1 sensor ?s . ?h2 sensor ?s) proves nothing about
//     co-location and must fall back to the union view;
//  4. any grouped sub-select over slice data keyed (at least partly)
//     by the anchor variable, so no group spans slices.
//
// Pattern provenance comes from routing knowledge tracked at insert
// time: which predicates — and which rdf:type objects — have gone to
// slices vs the static store. A pattern whose predicate lives on both
// sides (strdf:hasGeometry, rdf:type) is resolved through its subject's
// rdf:type constraint when the query states one (`?m a gag:Municipality`
// pins ?m's triples static). Queries failing any test evaluate exactly
// once over the union view instead — correct, just not fanned out.

type cls int

const (
	clStatic  cls = iota // only matches static-store triples
	clSlice              // only matches slice-routed triples
	clUnknown            // could match either side
)

// decision is the routing verdict for one WHERE clause.
type decision struct {
	fanout bool
	shards []int // evaluated slice indices, ascending (fanout only)
	// keyShards is the window-derived candidate set before observed-
	// range refinement: pure bucket arithmetic over the immutable
	// width/epoch, so it is stable across time for one query text —
	// the set partial result-cache vectors are built from. shards ⊆
	// keyShards always.
	keyShards []int
}

type patCtx struct {
	pat      stsparql.TriplePattern
	required bool
	class    cls
}

type subselInfo struct {
	sel      *stsparql.SelectQuery
	from, to int // index range of its patterns in walker.pats
	scope    *scopeInfo
}

// scopeInfo is one variable scope of the WHERE clause — the outer group
// or one sub-select body. Sub-selects export only their projected
// variables, so filters and acquisition-time patterns must be matched
// within scopes: an inner variable that merely shares an outer time
// variable's name must not contribute to window pruning.
type scopeInfo struct {
	filters  []stsparql.Expr // conjunctive filters of this scope
	timeVars map[string]bool // time-pattern object vars bound in this scope
	children []subselInfo
}

func newScope() *scopeInfo { return &scopeInfo{timeVars: make(map[string]bool)} }

type walker struct {
	pats []*patCtx
	root *scopeInfo
	bad  bool
}

func (w *walker) walk(gp *stsparql.GroupPattern, sc *scopeInfo, required bool) {
	if gp == nil {
		return
	}
	for _, el := range gp.Elements {
		switch v := el.(type) {
		case *stsparql.BGPElement:
			for _, p := range v.Patterns {
				w.pats = append(w.pats, &patCtx{pat: p, required: required})
				if !p.P.IsVar() && p.P.Term.Value == timePredicate && p.O.IsVar() {
					sc.timeVars[p.O.Var] = true
				}
			}
		case *stsparql.FilterElement:
			if required {
				sc.filters = append(sc.filters, v.Cond)
			}
		case *stsparql.OptionalElement:
			w.walk(v.Pattern, sc, false)
		case *stsparql.UnionElement:
			for _, br := range v.Branches {
				w.walk(br, sc, false)
			}
		case *stsparql.GroupPattern:
			w.walk(v, sc, required)
		case *stsparql.SubSelectElement:
			// A per-shard LIMIT/OFFSET inside a sub-select would slice
			// each shard's solutions instead of the global set.
			if v.Select.Limit >= 0 || v.Select.Offset > 0 {
				w.bad = true
				return
			}
			child := newScope()
			from := len(w.pats)
			w.walk(v.Select.Where, child, required)
			info := subselInfo{sel: v.Select, from: from, to: len(w.pats), scope: child}
			sc.children = append(sc.children, info)
		default:
			w.bad = true
			return
		}
	}
}

// subsels flattens the scope tree's sub-selects.
func collectSubsels(sc *scopeInfo, out []subselInfo) []subselInfo {
	for _, ch := range sc.children {
		out = append(out, ch)
		out = collectSubsels(ch.scope, out)
	}
	return out
}

// scopeWindows extracts the per-variable windows of one scope and its
// descendants. A filter only sees the time variables bound in its own
// scope, plus those a child sub-select actually EXPORTS (projects) —
// an unprojected inner time variable is invisible outside, and an
// inner filter on a name that only an outer pattern binds constrains a
// fresh local variable, not the outer one.
func scopeWindows(sc *scopeInfo) (wins []stsparql.TimeWindow, visible map[string]bool) {
	visible = make(map[string]bool, len(sc.timeVars))
	for v := range sc.timeVars {
		visible[v] = true
	}
	for _, ch := range sc.children {
		chWins, chVis := scopeWindows(ch.scope)
		wins = append(wins, chWins...)
		for v := range chVis {
			if subselProjects(ch.sel, v) {
				visible[v] = true
			}
		}
	}
	for _, w := range stsparql.ExtractTimeWindows(sc.filters, visible, nil) {
		wins = append(wins, *w)
	}
	return wins, visible
}

// analyzeGroup routes one WHERE clause. A nil group (INSERT DATA forms)
// routes as not-fanout; the caller applies it through the routed write
// path anyway.
func (s *Store) analyzeGroup(gp *stsparql.GroupPattern) decision {
	union := decision{fanout: false}
	if gp == nil {
		return union
	}
	// A write has split some subject across stores: co-location no
	// longer holds, so every query takes the exact union view.
	if s.split.Load() {
		return union
	}
	w := &walker{root: newScope()}
	w.walk(gp, w.root, true)
	if w.bad || len(w.pats) == 0 {
		return union
	}

	s.routeMu.RLock()
	typed := s.typeClasses(w.pats)
	requiredSlice := false
	for _, pc := range w.pats {
		pc.class = s.classify(pc.pat, typed)
		if pc.class == clUnknown {
			s.routeMu.RUnlock()
			return union
		}
		if pc.class == clSlice && pc.required {
			requiredSlice = true
		}
	}
	s.routeMu.RUnlock()
	if !requiredSlice {
		return union
	}

	// Anchor: every slice-classed pattern must have the SAME subject
	// variable. Subject co-location is the only guarantee routing
	// provides; equal object values do not place two subjects in one
	// slice, and a constant subject proves nothing at analysis time.
	anchor := ""
	for _, pc := range w.pats {
		if pc.class != clSlice {
			continue
		}
		if !pc.pat.S.IsVar() {
			return union
		}
		if anchor == "" {
			anchor = pc.pat.S.Var
		} else if pc.pat.S.Var != anchor {
			return union
		}
	}

	// Sub-selects over slice data: the flattened analysis identifies
	// the inner and outer anchor by NAME, but at runtime a sub-select
	// only exports the variables it projects — an unprojected inner
	// anchor is a fresh variable whose solutions cross-join with the
	// outer rows, pairing entities across slices. So a slice-bearing
	// sub-select must project the anchor (making the name identity
	// real), and if grouped, must also group by it (so no group spans
	// slices).
	for _, ss := range collectSubsels(w.root, nil) {
		hasSlice := false
		for _, pc := range w.pats[ss.from:ss.to] {
			if pc.class == clSlice {
				hasSlice = true
				break
			}
		}
		if !hasSlice {
			continue
		}
		if !subselProjects(ss.sel, anchor) {
			return union
		}
		if !stsparql.IsGrouped(ss.sel) {
			continue
		}
		keyed := false
		for _, g := range ss.sel.GroupBy {
			if ve, ok := g.(*stsparql.VarExpr); ok && ve.Name == anchor {
				keyed = true
				break
			}
		}
		if !keyed {
			return union
		}
	}

	// Time-window pruning: constraints on variables bound by the
	// anchor's acquisition-time triples narrow the slice set. Windows
	// are extracted scope by scope (filters only see their own scope's
	// time variables plus projected child ones) and every window's
	// shard set is intersected — each solution needs the anchor's
	// (single, group-routing) time value inside all of them.
	wins, _ := scopeWindows(w.root)
	wins = s.usableWindows(wins)
	keyShards := s.shardSetFor(wins)
	shards := s.refineObserved(keyShards, wins)
	return decision{
		fanout:    true,
		shards:    shards,
		keyShards: keyShards,
	}
}

// refineObserved drops candidate slices their published time summaries
// prove irrelevant: an empty slice cannot satisfy the required
// slice-classed pattern, and a slice whose acquisition times all lie
// outside some window cannot contribute a solution inside it — unless
// it holds time literals its index could not place. Sound because a
// write publishes its slice's summary before the Unlock that makes the
// data visible: a concurrent write that would re-admit a dropped slice
// (or drop an admitted one) publishes first, so routeQuery's under-lock
// re-analysis sees it, finds the locked slice set no longer matches the
// re-derived one, and falls back to the union view.
func (s *Store) refineObserved(cand []int, wins []stsparql.TimeWindow) []int {
	out := make([]int, 0, len(cand))
	for _, i := range cand {
		sp := s.spans[i].Load()
		if sp == nil || sp.triples == 0 {
			continue // nothing to read
		}
		drop := false
		for _, w := range wins {
			if sp.Other == 0 && (sp.Entries == 0 || sp.MinUnix > w.Hi || sp.MaxUnix < w.Lo) {
				drop = true
				break
			}
		}
		if !drop {
			out = append(out, i)
		}
	}
	return out
}

// typeClasses maps variables to a provenance class derived from their
// rdf:type constraints. Caller holds routeMu read lock.
func (s *Store) typeClasses(pats []*patCtx) map[string]cls {
	typed := make(map[string]cls)
	for _, pc := range pats {
		p := pc.pat
		if p.P.IsVar() || p.P.Term.Value != rdf.RDFType || !p.S.IsVar() || p.O.IsVar() || !p.O.Term.IsIRI() {
			continue
		}
		inSlice, inStatic := s.sliceTypes[p.O.Term.Value], s.staticTypes[p.O.Term.Value]
		var c cls
		switch {
		case inSlice && inStatic:
			continue // ambiguous type: no subject information
		case inSlice:
			c = clSlice
		default:
			// Static, or a type never inserted (matches nothing
			// anywhere, so either side's view agrees).
			c = clStatic
		}
		if prev, ok := typed[p.S.Var]; ok && prev != c {
			typed[p.S.Var] = clUnknown
			continue
		}
		typed[p.S.Var] = c
	}
	return typed
}

// classify determines which side of the partition one triple pattern
// can match. Caller holds routeMu read lock.
func (s *Store) classify(p stsparql.TriplePattern, typed map[string]cls) cls {
	bySubject := func() (cls, bool) {
		if !p.S.IsVar() {
			return 0, false
		}
		c, ok := typed[p.S.Var]
		if !ok || c == clUnknown {
			return 0, false
		}
		return c, true
	}
	resolve := func(inSlice, inStatic bool) cls {
		switch {
		case inSlice && inStatic:
			if c, ok := bySubject(); ok {
				return c
			}
			return clUnknown
		case inSlice:
			return clSlice
		default:
			return clStatic // static, or never inserted (matches nothing)
		}
	}
	if p.P.IsVar() {
		if c, ok := bySubject(); ok {
			return c
		}
		return clUnknown
	}
	pred := p.P.Term.Value
	// Note: the acquisition-time predicate is NOT special-cased to
	// clSlice — a group whose time literal fails to parse routes to the
	// static store, and the tracked predicate sets then correctly
	// classify time patterns as ambiguous (union fallback) instead of
	// fanning out over data that partly lives outside the slices.
	if pred == rdf.RDFType && !p.O.IsVar() && p.O.Term.IsIRI() {
		return resolve(s.sliceTypes[p.O.Term.Value], s.staticTypes[p.O.Term.Value])
	}
	return resolve(s.slicePreds[pred], s.staticPreds[pred])
}

// subselProjects reports whether the sub-select exports v as the plain
// variable (SELECT * exports everything; an expression aliased AS ?v
// binds the name to something else).
func subselProjects(sel *stsparql.SelectQuery, v string) bool {
	if sel.Star {
		return true
	}
	for _, item := range sel.Projection {
		if item.Expr == nil && item.Var == v {
			return true
		}
	}
	return false
}

// --- window pruning ---
//
// The windows come from stsparql.ExtractTimeWindows, the extractor the
// planner's time-range scans share. Routing happens before any row
// exists, so it asks for constant bounds only: a side bounded by a
// variable is open here.

// usableWindows drops the windows that may not prune: groups route by
// the INSTANT of their time literal, so a lexical window — string order
// — agrees with the routing only while every slice's time literals are
// canonical and indexed (see stsparql.TimeWindow).
func (s *Store) usableWindows(wins []stsparql.TimeWindow) []stsparql.TimeWindow {
	loose := false
	for i := range s.spans {
		if sp := s.spans[i].Load(); sp != nil && sp.loose() {
			loose = true
			break
		}
	}
	if !loose {
		return wins
	}
	out := wins[:0]
	for _, w := range wins {
		if !w.Lexical {
			out = append(out, w)
		}
	}
	return out
}

// shardSetFor lists, ascending, the slices whose buckets intersect
// every window: a solution's owning slice must satisfy all of them. An
// unbounded side touches every slice (buckets are round-robin over the
// slices); an empty window touches none.
func (s *Store) shardSetFor(wins []stsparql.TimeWindow) []int {
	n := int64(len(s.slices))
	hits := make([]int, n) // windows each slice intersects
	for _, w := range wins {
		lo, hi := s.bucketOf(w.Lo), s.bucketOf(w.Hi)
		switch {
		case w.Hi < w.Lo: // empty
		case !w.Bounded() || hi-lo+1 >= n:
			for i := range hits {
				hits[i]++
			}
		default:
			for b := lo; b <= hi; b++ {
				hits[s.sliceOf(b)]++
			}
		}
	}
	out := make([]int, 0, n)
	for i, h := range hits {
		if h == len(wins) {
			out = append(out, i)
		}
	}
	return out
}
