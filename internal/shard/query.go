package shard

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// QueryStream parses, routes and starts a SELECT or ASK, returning a
// streaming cursor. See QueryStreamCtx.
func (s *Store) QueryStream(src string) (strabon.QueryCursor, error) {
	return s.QueryStreamCtx(context.Background(), src)
}

// QueryStreamCtx routes a query per the fan-out analysis and returns a
// streaming cursor over the merged result. The cursor holds read locks
// on the static store and every shard it fans out to (all of them for a
// union-view evaluation) until Close; cancelling ctx stops the merge at
// the next row pull and releases the locks.
func (s *Store) QueryStreamCtx(ctx context.Context, src string) (strabon.QueryCursor, error) {
	q, err := stsparql.Parse(src, s.ns)
	if err != nil {
		return nil, err
	}
	if q.Update != nil {
		return nil, fmt.Errorf("shard: Query wants SELECT or ASK; use Update for updates")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.countQuery()
	// Result-cacheability is an AST property (SAMPLE shapes); the
	// cursor pairs it with the generation vector captured under locks.
	cacheable := stsparql.Cacheable(q)
	switch {
	case q.Select != nil:
		dec := s.analyzeGroup(q.Select.Where)
		if !dec.fanout {
			return s.unionStream(ctx, src, q, cacheable)
		}
		return s.fanoutStream(ctx, src, q, dec, q.Select.Where, cacheable)
	default: // ASK
		dec := s.analyzeGroup(q.Ask.Where)
		if !dec.fanout {
			return s.unionStream(ctx, src, q, cacheable)
		}
		return s.askFanout(ctx, src, q, dec, q.Ask.Where, cacheable)
	}
}

// unionStream evaluates once over the union view of every member store
// — the exact fallback for queries the analysis cannot decompose.
func (s *Store) unionStream(ctx context.Context, src string, q *stsparql.Query, cacheable bool) (strabon.QueryCursor, error) {
	release := s.lockAllRead()
	vec := s.fullVector()
	ev := stsparql.NewEvaluatorWithCache(s.viewAll(), s.cache)
	c := ev.CompileASTCached(src, s.genAll(), s.unionCache(), q)
	switch {
	case c.IsSelect():
		cur, err := ev.RunCompiled(c)
		if err != nil {
			release()
			return nil, err
		}
		return &unionCursor{inner: cur, ctx: ctx, release: release, vec: vec, cacheable: cacheable}, nil
	case c.IsAsk():
		ok, err := ev.AskCompiled(c)
		release()
		if err != nil {
			return nil, err
		}
		res := askResult(ok)
		res.setCacheVector(vec, cacheable)
		return res, nil
	default:
		release()
		return nil, fmt.Errorf("shard: unsupported query form")
	}
}

// recheckFanout re-runs the routing analysis with the member read locks
// held and reports whether the pre-lock decision still stands. Routing
// knowledge only grows toward the union fallback (the split latch is
// one-way, predicate provenance only gains members), so a write landing
// between the unlocked analysis and the lock acquisition can invalidate
// a fan-out decision — never create one. On mismatch the caller
// releases and evaluates over the union view.
func (s *Store) recheckFanout(where *stsparql.GroupPattern, dec decision) bool {
	dec2 := s.analyzeGroup(where)
	if !dec2.fanout || len(dec2.shards) != len(dec.shards) {
		return false
	}
	for i := range dec.shards {
		if dec2.shards[i] != dec.shards[i] {
			return false
		}
	}
	return true
}

// fanoutStream compiles the (possibly rewritten) per-shard query against
// every relevant slice view and merges the concurrent shard cursors.
func (s *Store) fanoutStream(ctx context.Context, src string, q *stsparql.Query, dec decision, where *stsparql.GroupPattern, cacheable bool) (strabon.QueryCursor, error) {
	fp, ok := planFanout(src, q)
	if !ok {
		return s.unionStream(ctx, src, q, cacheable)
	}
	if len(dec.shards) == 0 {
		// The window (or the observed ranges) excludes every slice; the
		// result reads no slice data, so no locks are needed. The cache
		// vector is captured BEFORE the recheck: a write racing past the
		// analysis publishes its routing knowledge before bumping any
		// member generation, so either the recheck sees it (union
		// fallback) or the vector predates it (entry invalidates).
		vec := s.fanVector(dec.keyShards)
		if !s.recheckFanout(where, dec) {
			return s.unionStream(ctx, src, q, cacheable)
		}
		// Grouped queries still owe their implicit group (COUNT over
		// nothing = 0).
		cur := &listCursor{vars: fp.vars}
		if fp.mode == fanAgg {
			res, err := fp.agg.Finalize(nil)
			if err != nil {
				return nil, err
			}
			cur = &listCursor{vars: res.Vars, rows: res.Rows}
		}
		cur.setCacheVector(vec, cacheable)
		return cur, nil
	}
	release := s.lockRead(dec.shards)
	vec := s.fanVector(dec.keyShards)
	if !s.recheckFanout(where, dec) {
		release()
		return s.unionStream(ctx, src, q, cacheable)
	}
	evs := make([]*stsparql.Evaluator, len(dec.shards))
	cs := make([]*stsparql.Compiled, len(dec.shards))
	for i, idx := range dec.shards {
		evs[i] = stsparql.NewEvaluatorWithCache(s.view(idx), s.cache)
		cs[i] = evs[i].CompileASTCached(fp.key, s.genFor(idx), s.sliceCache(idx), fp.shardQ)
	}
	m := startMerge(ctx, fp, evs, cs, release)
	m.vec, m.cacheable = vec, cacheable
	return m, nil
}

// askFanout evaluates an ASK shard by shard under one lock acquisition,
// stopping at the first shard with a solution. Cancellation is honoured
// between shards — the blast radius of a cancelled context is one
// shard's eager evaluation.
func (s *Store) askFanout(ctx context.Context, src string, q *stsparql.Query, dec decision, where *stsparql.GroupPattern, cacheable bool) (strabon.QueryCursor, error) {
	if len(dec.shards) == 0 {
		// Lock-free path; see fanoutStream for the capture-ordering
		// argument.
		vec := s.fanVector(dec.keyShards)
		if !s.recheckFanout(where, dec) {
			return s.unionStream(ctx, src, q, cacheable)
		}
		res := askResult(false)
		res.setCacheVector(vec, cacheable)
		return res, nil
	}
	release := s.lockRead(dec.shards)
	vec := s.fanVector(dec.keyShards)
	if !s.recheckFanout(where, dec) {
		release()
		return s.unionStream(ctx, src, q, cacheable)
	}
	defer release()
	for _, idx := range dec.shards {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ev := stsparql.NewEvaluatorWithCache(s.view(idx), s.cache)
		c := ev.CompileASTCached(src, s.genFor(idx), s.sliceCache(idx), q)
		ok, err := ev.AskCompiled(c)
		if err != nil {
			return nil, err
		}
		if ok {
			res := askResult(true)
			res.setCacheVector(vec, cacheable)
			return res, nil
		}
	}
	res := askResult(false)
	res.setCacheVector(vec, cacheable)
	return res, nil
}

// Explain renders the routing decision — fan-out with the relevant
// shard set and merge strategy, or the union-view fallback — followed
// by the member-level evaluation plan.
func (s *Store) Explain(src string) (string, error) {
	q, err := stsparql.Parse(src, s.ns)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	n := len(s.slices)

	// inner appends the member-level plan to the routing header and
	// returns the whole rendering.
	inner := func(idxs []int, query *stsparql.Query) (string, error) {
		var ev *stsparql.Evaluator
		var release func()
		if idxs == nil {
			release = s.lockAllRead()
			ev = stsparql.NewEvaluatorWithCache(s.viewAll(), s.cache)
		} else {
			release = s.lockRead(idxs[:1])
			ev = stsparql.NewEvaluatorWithCache(s.view(idxs[0]), s.cache)
		}
		defer release()
		plan, err := ev.Explain(query)
		b.WriteString(plan)
		return b.String(), err
	}

	// Updates always plan over the union view (see Update).
	var where *stsparql.GroupPattern
	switch {
	case q.Select != nil:
		where = q.Select.Where
	case q.Ask != nil:
		where = q.Ask.Where
	case q.Update != nil:
		fmt.Fprintf(&b, "shard union: single evaluation over static+%d slices\n", n)
		return inner(nil, q)
	}
	dec := s.analyzeGroup(where)

	shardQ, merge := q, "ask"
	if dec.fanout && q.Select != nil {
		fp, ok := planFanout(src, q)
		if !ok {
			dec.fanout = false
		} else {
			shardQ, merge = fp.shardQ, fp.mode.String()
		}
	}
	if !dec.fanout {
		fmt.Fprintf(&b, "shard union: single evaluation over static+%d slices\n", n)
		return inner(nil, q)
	}
	fmt.Fprintf(&b, "shard fan-out: %d/%d slices %v merge=%s\n", len(dec.shards), n, dec.shards, merge)
	if len(dec.shards) < len(dec.keyShards) {
		fmt.Fprintf(&b, "  (observed time ranges prune %v of window candidates %v)\n",
			diffInts(dec.keyShards, dec.shards), dec.keyShards)
	}
	if len(dec.shards) == 0 {
		b.WriteString("  (no slice intersects the query window)\n")
		return b.String(), nil
	}
	return inner(dec.shards, shardQ)
}

// diffInts returns the members of a absent from b (both ascending).
func diffInts(a, b []int) []int {
	in := make(map[int]bool, len(b))
	for _, x := range b {
		in[x] = true
	}
	var out []int
	for _, x := range a {
		if !in[x] {
			out = append(out, x)
		}
	}
	return out
}
