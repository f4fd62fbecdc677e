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
// ExplainAnalyze share: routeQuery decides which members it reads and
// takes their read locks, and open evaluates it once over the View of
// those members and hands the locks to the cursor it returns.

// QueryStreamCtx routes a query per the fan-out analysis and returns a
// streaming cursor over its one evaluation. The cursor holds read locks
// on the static store and every slice the evaluation reads (all of them
// for the union view) until Close; cancelling ctx stops the cursor at
// the next row pull and releases the locks.
func (s *Store) QueryStreamCtx(ctx context.Context, src string) (*Cursor, error) {
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
	// a fan-out reads beside the static member.
	dec decision
	// release frees the read locks.
	release func()
	// vec is the generation vector the result derives from.
	vec resultcache.GenVector
}

// view returns the source r's evaluation reads: the static member plus
// a fan-out's slices, or every member.
func (s *Store) view(r routed) View {
	if !r.dec.fanout {
		return s.viewAll()
	}
	v := make(View, 0, len(r.dec.shards)+1)
	v = append(v, s.static)
	for _, i := range r.dec.shards {
		v = append(v, s.slices[i])
	}
	return v
}

// routeQuery runs the fan-out analysis, takes the read locks of the
// members the evaluation it chooses reads — the static member and the
// fan-out's slices, or every member — and re-runs the analysis under
// them: a write landing between the two that changes the slices — or
// the window candidates the cache vector lists — sends the query to the
// union view. A fan-out's cache vector is captured BEFORE the
// re-analysis: a write racing past the analysis publishes its routing
// knowledge before bumping any member generation, so either the
// re-analysis sees it (union fallback) or the vector predates it (the
// cache entry invalidates). With one slice the slice view is the union
// view: routing could not change what the query reads, so it is
// skipped.
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
		if r.dec.fanout {
			r.release = s.lockRead(r.dec.shards)
			r.vec = s.fanVector(r.dec.keyShards)
			if again := s.analyzeGroup(where); again.fanout && slices.Equal(again.shards, r.dec.shards) &&
				slices.Equal(again.keyShards, r.dec.keyShards) {
				return r
			}
			r.release()
		}
		r.dec = decision{}
	}
	r.release = s.lockAllRead()
	r.vec = s.fullVector()
	return r
}

// open evaluates r once over its view and returns the cursor, which owns
// r's read locks; an ASK is answered here and its locks released. hook,
// if not nil, sees the evaluator and its plan before it runs;
// ExplainAnalyze attaches its trace there.
func (s *Store) open(ctx context.Context, r routed, hook func(ev *stsparql.Evaluator, c *stsparql.Compiled)) (*Cursor, error) {
	ev := stsparql.NewEvaluatorWithCache(s.view(r), s.cache)
	c := ev.Compile(r.q)
	if hook != nil {
		hook(ev, c)
	}
	// Result-cacheability is an AST property (SAMPLE shapes); the
	// cursor pairs it with the generation vector captured under locks.
	cacheable := stsparql.Cacheable(r.q)
	if r.q.Ask != nil {
		defer r.release()
		verdict, err := ev.AskCompiled(c)
		if err != nil {
			return nil, err
		}
		return newCursor(ctx, stsparql.AskCursor(verdict), true, nil, r.vec, cacheable), nil
	}
	cur, err := ev.RunCompiled(c)
	if err != nil {
		r.release()
		return nil, err
	}
	return newCursor(ctx, cur, false, r.release, r.vec, cacheable), nil
}

// Explain renders the routing decision — fan-out with the slice set the
// query reads, or the union-view fallback — followed by the evaluation
// plan over that view, taken under the read locks the query would run
// under.
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
	defer r.release()
	var b strings.Builder
	s.writeRoute(&b, r, "")
	plan, err := stsparql.NewEvaluatorWithCache(s.view(r), s.cache).Explain(q)
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
	fmt.Fprintf(b, "shard fan-out: %d/%d slices %v%s\n", len(r.dec.shards), n, r.dec.shards, mark)
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

// Cursor streams the solutions of a query's one evaluation. A SELECT
// cursor holds the read locks its evaluation runs under from
// QueryStreamCtx until Close — close promptly; an ASK cursor is
// pre-materialised and holds no lock, and neither does the endpoint's
// cache-hit cursor, a replay of a stored snapshot. Bound to a context that can be
// cancelled (client gone, deadline hit), it checks the context on every
// pull: once it fires the cursor stops yielding rows, reports the
// context error and releases its locks at that pull, instead of
// whenever the abandoned client would have closed it. Rows yielded so
// far are counted (Rows), the bookkeeping hook the endpoint's streamed
// responses use.
//
// Vars is final when the cursor opens, and each Row Next yields holds
// one term per header variable, in header order. The Row is a view of
// the engine's current batch that may change at the next Next: it is
// only valid until the next call to Next (or Close). Callers that
// retain rows past that must copy them, as MaterialiseQuery does.
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

// CacheVector reports the generation vector this cursor's rows were
// derived from, captured while the evaluation held its read locks, and
// whether the result may be cached at all (false for non-deterministic
// plans such as SAMPLE).
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
