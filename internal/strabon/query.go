package strabon

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/resultcache"
	"repro/internal/stsparql"
)

// A query runs in two steps that QueryStreamCtx, Explain and
// ExplainAnalyze share: routeQuery decides where it evaluates and takes
// the read locks that evaluation needs, and open starts the evaluation
// and hands the locks to the cursor it returns.

// QueryStreamCtx routes a query per the fan-out analysis and returns a
// streaming cursor over the merged result. The cursor holds read locks
// on the static store and every shard it fans out to (all of them for a
// union-view evaluation) until Close; cancelling ctx stops the cursor at
// the next row pull and releases the locks.
func (s *Store) QueryStreamCtx(ctx context.Context, src string) (QueryCursor, error) {
	q, err := s.parseQuery(ctx, src)
	if err != nil {
		return nil, err
	}
	return s.open(ctx, s.routeQuery(src, q), nil)
}

// parseQuery parses a SELECT or ASK, refuses a context already done and
// counts the query.
func (s *Store) parseQuery(ctx context.Context, src string) (*stsparql.Query, error) {
	q, err := stsparql.Parse(src, s.ns)
	if err != nil {
		return nil, err
	}
	if q.Update != nil {
		return nil, fmt.Errorf("strabon: Query wants SELECT or ASK; use Update for updates")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.queries.Add(1)
	return q, nil
}

// routed is one query's routing verdict, re-checked under the read
// locks its evaluation runs under.
type routed struct {
	src string
	q   *stsparql.Query
	// dec.fanout is false for the union view; dec.shards are the slices
	// a fan-out evaluates.
	dec decision
	// fp is a fanned-out SELECT's per-shard query and merge strategy; nil
	// for the union view and for an ASK.
	fp *fanPlan
	// release frees the read locks. It is nil when a fan-out reads no
	// slice: the result reads no slice data, so no lock is taken.
	release func()
	// vec is the generation vector the result derives from.
	vec resultcache.GenVector
}

func (r *routed) unlock() {
	if r.release != nil {
		r.release()
	}
}

// routeQuery runs the fan-out analysis, takes the read locks of the
// evaluation it chooses and re-runs the analysis under them: a write
// landing between the two that changes the slices — or the window
// candidates the cache vector lists — sends the query to the union
// view. A fan-out's cache vector is captured BEFORE the re-analysis: a
// write racing past the analysis publishes its routing knowledge before
// bumping any member generation, so either the re-analysis sees it
// (union fallback) or the vector predates it (the cache entry
// invalidates). That ordering is what makes the lock-free path of a
// window that excludes every slice sound. With one slice the slice view
// is the union view: routing could not change where the query runs, so
// it is skipped.
func (s *Store) routeQuery(src string, q *stsparql.Query) routed {
	r := routed{src: src, q: q}
	if len(s.slices) > 1 {
		var where *stsparql.GroupPattern
		if q.Select != nil {
			where = q.Select.Where
		} else {
			where = q.Ask.Where
		}
		r.dec = s.analyzeGroup(where)
		if r.dec.fanout && q.Select != nil {
			r.fp, r.dec.fanout = planFanout(src, q)
		}
		if r.dec.fanout {
			if len(r.dec.shards) > 0 {
				r.release = s.lockRead(r.dec.shards)
			}
			r.vec = s.fanVector(r.dec.keyShards)
			if again := s.analyzeGroup(where); again.fanout && slices.Equal(again.shards, r.dec.shards) &&
				slices.Equal(again.keyShards, r.dec.keyShards) {
				return r
			}
			r.unlock()
		}
		r.dec, r.fp = decision{}, nil
	}
	r.release = s.lockAllRead()
	r.vec = s.fullVector()
	return r
}

// open starts the evaluation r routes to and returns its cursor, which
// owns r's read locks: one evaluation over the union view, a merge of
// concurrent per-slice evaluations, or an ASK answered shard by shard.
// hook, if not nil, sees every evaluator open creates, with its plan,
// before it runs — its slice index, or -1 for the union view;
// ExplainAnalyze attaches its traces there.
func (s *Store) open(ctx context.Context, r routed, hook func(idx int, ev *stsparql.Evaluator, c *stsparql.Compiled)) (QueryCursor, error) {
	// Result-cacheability is an AST property (SAMPLE shapes); the
	// cursor pairs it with the generation vector captured under locks.
	cacheable := stsparql.Cacheable(r.q)
	compile := func(idx int, key string, q *stsparql.Query) (*stsparql.Evaluator, *stsparql.Compiled) {
		var ev *stsparql.Evaluator
		var c *stsparql.Compiled
		if idx < 0 {
			ev = stsparql.NewEvaluatorWithCache(s.viewAll(), s.cache)
			c = ev.CompileASTCached(key, s.genAll(), s.unionCache(), q)
		} else {
			ev = stsparql.NewEvaluatorWithCache(s.view(idx), s.cache)
			c = ev.CompileASTCached(key, s.genFor(idx), s.sliceCache(idx), q)
		}
		if hook != nil {
			hook(idx, ev, c)
		}
		return ev, c
	}

	if r.q.Ask != nil {
		// Eager, under one lock acquisition, stopping at the first shard
		// with a solution. Cancellation is honoured between shards — the
		// blast radius of a cancelled context is one shard's evaluation.
		defer r.unlock()
		idxs := r.dec.shards
		if !r.dec.fanout {
			idxs = []int{-1}
		}
		verdict := false
		for _, idx := range idxs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			ev, c := compile(idx, r.src, r.q)
			ok, err := ev.AskCompiled(c)
			if err != nil {
				return nil, err
			}
			if verdict = ok; ok {
				break
			}
		}
		return newCursor(ctx, stsparql.AskCursor(verdict), true, nil, r.vec, cacheable), nil
	}

	switch {
	case !r.dec.fanout:
		ev, c := compile(-1, r.src, r.q)
		cur, err := ev.RunCompiled(c)
		if err != nil {
			r.unlock()
			return nil, err
		}
		return newCursor(ctx, cur, false, r.release, r.vec, cacheable), nil
	case len(r.dec.shards) == 0:
		// The window (or the observed ranges) excludes every slice.
		// Grouped queries still owe their implicit group (COUNT over
		// nothing = 0).
		rows := stsparql.MaterialisedCursor(r.fp.vars, nil)
		if r.fp.mode == fanAgg {
			res, err := r.fp.agg.Finalize(nil)
			if err != nil {
				return nil, err
			}
			rows = stsparql.MaterialisedCursor(res.Vars, res.Rows)
		}
		return newCursor(ctx, rows, false, nil, r.vec, cacheable), nil
	}
	evs := make([]*stsparql.Evaluator, len(r.dec.shards))
	cs := make([]*stsparql.Compiled, len(r.dec.shards))
	for i, idx := range r.dec.shards {
		evs[i], cs[i] = compile(idx, r.fp.key, r.fp.shardQ)
	}
	m := startMerge(ctx, r.fp, evs, cs, r.release)
	m.vec, m.cacheable = r.vec, cacheable
	return m, nil
}

// Explain renders the routing decision — fan-out with the relevant
// shard set and merge strategy, or the union-view fallback — followed
// by the member-level evaluation plan, taken under the read locks the
// query would run under.
func (s *Store) Explain(src string) (string, error) {
	q, err := stsparql.Parse(src, s.ns)
	if err != nil {
		return "", err
	}
	var r routed
	if q.Update != nil {
		// Updates always plan over the union view (see Update).
		r = routed{q: q, release: s.lockAllRead()}
	} else {
		r = s.routeQuery(src, q)
	}
	defer r.unlock()
	var b strings.Builder
	s.writeRoute(&b, r, "")
	ev, query := stsparql.NewEvaluatorWithCache(s.viewAll(), s.cache), q
	if r.dec.fanout {
		if len(r.dec.shards) == 0 {
			return b.String(), nil
		}
		ev = stsparql.NewEvaluatorWithCache(s.view(r.dec.shards[0]), s.cache)
		if r.fp != nil {
			query = r.fp.shardQ
		}
	}
	plan, err := ev.Explain(query)
	b.WriteString(plan)
	return b.String(), err
}

// writeRoute renders the routing header Explain opens with;
// ExplainAnalyze repeats it with mark " (analyze)" on its first line.
func (s *Store) writeRoute(b *strings.Builder, r routed, mark string) {
	n := len(s.slices)
	if !r.dec.fanout {
		fmt.Fprintf(b, "shard union: single evaluation over static+%d slices%s\n", n, mark)
		return
	}
	merge := "ask"
	if r.fp != nil {
		merge = r.fp.mode.String()
	}
	fmt.Fprintf(b, "shard fan-out: %d/%d slices %v merge=%s%s\n", len(r.dec.shards), n, r.dec.shards, merge, mark)
	if len(r.dec.shards) < len(r.dec.keyShards) {
		fmt.Fprintf(b, "  (observed time ranges prune %v of window candidates %v)\n",
			diffInts(r.dec.keyShards, r.dec.shards), r.dec.keyShards)
	}
	if len(r.dec.shards) == 0 {
		b.WriteString("  (no slice intersects the query window)\n")
	}
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

// Cursor streams the solutions of one evaluation: the union view's, or
// an ASK's. A SELECT cursor holds the read locks its evaluation runs
// under from QueryStreamCtx until Close — close promptly; an ASK cursor
// is pre-materialised and holds no lock. Bound to a context that can be
// cancelled (client gone, deadline hit), it checks the context on every
// pull: once it fires the cursor stops yielding rows, reports the
// context error and releases its locks at that pull, instead of
// whenever the abandoned client would have closed it. Rows yielded so
// far are counted (Rows), the bookkeeping hook the endpoint's streamed
// responses use.
type Cursor struct {
	inner   stsparql.Cursor
	ctx     context.Context // nil: not cancellable, never checked
	ask     bool
	rows    int
	release func() // releases the read locks; nil once released
	err     error  // the context error that stopped the cursor
	closed  bool

	// Result-cache metadata, captured under the read locks at open
	// time: the generations the rows derive from, and the plan-time
	// cacheability verdict. See CacheVector.
	vec       resultcache.GenVector
	cacheable bool
}

var _ QueryCursor = (*Cursor)(nil)

// newCursor returns the cursor over one evaluation's inner cursor. ask
// marks inner as an ASK verdict (one row binding "ask"); release, if
// not nil, frees the read locks the evaluation runs under and is
// called once, when the cursor closes or its context fires; vec and
// cacheable are what CacheVector reports.
func newCursor(ctx context.Context, inner stsparql.Cursor, ask bool, release func(), vec resultcache.GenVector, cacheable bool) *Cursor {
	c := &Cursor{inner: inner, ask: ask, release: release, vec: vec, cacheable: cacheable}
	if ctx.Done() != nil {
		c.ctx = ctx
	}
	return c
}

// CacheVector implements QueryCursor: the generation vector this
// cursor's rows were derived from, and whether the result may be
// cached at all (false for non-deterministic plans such as SAMPLE).
func (c *Cursor) CacheVector() (resultcache.GenVector, bool) {
	return c.vec, c.cacheable
}

// Vars is the result header.
func (c *Cursor) Vars() []string { return c.inner.Vars() }

// IsAsk reports whether the cursor carries an ASK verdict (a single row
// binding "ask").
func (c *Cursor) IsAsk() bool { return c.ask }

// Next yields the next solution; ok=false once exhausted, on error or
// once the context fired (check Err).
func (c *Cursor) Next() (stsparql.Row, bool) {
	if c.closed || c.err != nil {
		return nil, false
	}
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			c.err = err
			c.releaseNow()
			return nil, false
		}
	}
	row, ok := c.inner.Next()
	if ok {
		c.rows++
	}
	return row, ok
}

// Err reports the context error that stopped the cursor, or else the
// first evaluation error, if any.
func (c *Cursor) Err() error {
	if c.err != nil {
		return c.err
	}
	return c.inner.Err()
}

// Rows reports how many solutions have been yielded so far.
func (c *Cursor) Rows() int { return c.rows }

// releaseNow terminates the evaluation and frees the read locks.
func (c *Cursor) releaseNow() {
	c.inner.Close()
	if c.release != nil {
		c.release()
		c.release = nil
	}
}

// Close terminates the evaluation and releases the read locks. It is
// idempotent and returns Err().
func (c *Cursor) Close() error {
	if !c.closed {
		c.closed = true
		c.releaseNow()
	}
	return c.Err()
}
