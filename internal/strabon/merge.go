package strabon

import (
	"context"
	"slices"
	"sort"
	"sync"

	"repro/internal/rdf"
	"repro/internal/resultcache"
	"repro/internal/stsparql"
)

// Fan-out execution: one worker goroutine per relevant shard pulls that
// shard's cursor and feeds a buffered channel; the merge cursor combines
// the streams per the query shape. The caller (routeQuery) acquires
// the read locks before the workers start and the merge cursor releases
// them at shutdown — after every worker has exited, since workers scan
// the locked stores.
//
// Rows cross the fan-out boundary as terms: the shard evaluations run
// over the store's one dictionary, but each keeps an overflow table of
// its own for the terms it computes, so IDs do not compare across
// streams. A worker copies each row's terms positionally — in its
// stream's header order — into one slab per chunk, and the merge reads
// them in place: Next hands out the slab row itself when the stream's
// header is the merged one (always, for an explicit projection), and a
// copy through the stream's column permutation otherwise (SELECT *,
// whose shard headers list only the variables their rows bind). The
// ordered merge evaluates each stream head's ORDER BY keys once;
// partial-aggregate recombination takes the slab rows as they are.

// fanMode selects the merge strategy.
type fanMode int

const (
	fanConcat  fanMode = iota // plain SELECT: streaming concatenation
	fanOrdered                // ORDER BY: k-way merge of pre-sorted streams
	fanAgg                    // grouped: partial-aggregate recombination
)

func (m fanMode) String() string {
	switch m {
	case fanOrdered:
		return "ordered"
	case fanAgg:
		return "partial-aggregate"
	default:
		return "concat"
	}
}

// fanPlan is the merge-side plan of one fanned-out SELECT.
type fanPlan struct {
	mode   fanMode
	shardQ *stsparql.Query // per-shard AST (possibly rewritten)
	key    string          // plan-cache key (distinct per rewrite)
	agg    *stsparql.AggMerge
	order  []stsparql.OrderKey // fanOrdered: the keys the streams are sorted by

	distinct      bool     // re-deduplicate at the merger
	offset, limit int      // merger-side slice; limit -1 = none
	vars          []string // static header (nil for SELECT *)
}

// planFanout derives the per-shard query and merge strategy for a
// SELECT. ok=false means the query is grouped in a way partial
// aggregation cannot recombine — the caller falls back to the union
// view.
func planFanout(src string, q *stsparql.Query) (*fanPlan, bool) {
	sel := q.Select
	if stsparql.IsGrouped(sel) {
		am, ok := stsparql.PlanAggMerge(sel)
		if !ok {
			return nil, false
		}
		return &fanPlan{
			mode: fanAgg, shardQ: am.Partial(), key: src + "\x00agg",
			agg: am, limit: -1, vars: am.Vars(),
		}, true
	}
	fp := &fanPlan{mode: fanConcat, distinct: sel.Distinct, offset: sel.Offset, limit: sel.Limit}
	if len(sel.OrderBy) > 0 {
		fp.mode = fanOrdered
		fp.order = sel.OrderBy
	}
	if sel.Offset > 0 || sel.Limit >= 0 {
		// Per-shard rewrite: each shard computes the first OFFSET+LIMIT
		// rows of its own stream (under ORDER BY that engages the
		// engine's top-k heap); the true OFFSET/LIMIT re-applies at the
		// merger over the combined stream.
		cp := *sel
		cp.Offset = 0
		if sel.Limit >= 0 {
			cp.Limit = sel.Offset + sel.Limit
		}
		fp.shardQ = &stsparql.Query{Select: &cp}
		fp.key = src + "\x00shard"
	} else {
		fp.shardQ = q
		fp.key = src
	}
	if !sel.Star {
		for _, item := range sel.Projection {
			fp.vars = append(fp.vars, item.Var)
		}
	}
	return fp, true
}

// chunkRows is the rows per worker-to-merger transfer, amortising the
// channel synchronisation over many rows.
const chunkRows = 128

// chunk is one transfer: n rows of a stream, each its header's width of
// terms in header order.
type chunk struct {
	terms []rdf.Term
	n     int
}

// shardStream is one worker's output.
type shardStream struct {
	ch    chan chunk
	ready chan struct{} // closed once vars (or an open error) are set
	vars  []string      // the stream's header; read only after ready
	err   error         // valid once ch is closed
	buf   chunk
	pos   int

	// perm maps each merged column to the stream's column (-1: the
	// stream has no such variable); nil when the headers are equal. row
	// is the reused copy a permuted row is made in.
	perm []int
	row  stsparql.Row

	// ordered merge: the stream's lookahead row and its key values
	head    stsparql.Row
	key     []stsparql.Value
	hasHead bool
	drained bool
}

// mergeCursor combines the shard streams into one QueryCursor.
type mergeCursor struct {
	plan    *fanPlan
	ctx     context.Context
	stop    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
	release func()

	streams []*shardStream
	vars    []string
	order   *stsparql.OrderKeys // fanOrdered

	cur int             // concat: current stream
	agg stsparql.Cursor // fanAgg: recombined output

	seen             map[string]bool
	kb               []byte
	skipped, emitted int
	yielded          int

	vec       resultcache.GenVector
	cacheable bool

	err    error
	done   bool
	closed bool
}

// CacheVector implements QueryCursor: the generation vector
// routeQuery captured under the shard read locks, before the workers
// started reading.
func (m *mergeCursor) CacheVector() (resultcache.GenVector, bool) {
	return m.vec, m.cacheable
}

// startMerge launches one worker per compiled shard plan and returns the
// merge cursor. The caller holds the read locks release will free.
func startMerge(ctx context.Context, fp *fanPlan, evs []*stsparql.Evaluator, cs []*stsparql.Compiled, release func()) *mergeCursor {
	m := &mergeCursor{plan: fp, ctx: ctx, stop: make(chan struct{}), release: release}
	for range cs {
		m.streams = append(m.streams, &shardStream{
			ch:    make(chan chunk, 4),
			ready: make(chan struct{}),
		})
	}
	m.wg.Add(len(cs))
	for i := range cs {
		go m.run(evs[i], cs[i], m.streams[i])
	}
	if fp.vars != nil {
		m.vars = fp.vars
	} else {
		// SELECT *: the merged header is the sorted union of the shard
		// headers (a shard's vars are known as soon as its plan opens).
		set := make(map[string]bool)
		for _, st := range m.streams {
			<-st.ready
			for _, v := range st.vars {
				set[v] = true
			}
		}
		for v := range set {
			m.vars = append(m.vars, v)
		}
		sort.Strings(m.vars)
		for _, st := range m.streams {
			if !slices.Equal(st.vars, m.vars) {
				st.perm = make([]int, len(m.vars))
				for j, v := range m.vars {
					st.perm[j] = slices.Index(st.vars, v)
				}
				st.row = make(stsparql.Row, len(m.vars))
			}
		}
	}
	if fp.mode == fanOrdered {
		m.order = stsparql.NewOrderKeys(fp.order, m.vars)
	}
	return m
}

func (m *mergeCursor) run(ev *stsparql.Evaluator, c *stsparql.Compiled, st *shardStream) {
	defer m.wg.Done()
	defer close(st.ch)
	cur, err := ev.RunCompiled(c)
	if err != nil {
		st.err = err
		close(st.ready)
		return
	}
	vars := cur.Vars()
	st.vars = vars
	close(st.ready)
	defer cur.Close()
	// The first slab grows by append, so a short answer allocates for the
	// rows it has; a stream that filled one gets full-sized slabs after.
	var out chunk
	for {
		row, ok := cur.Next()
		if !ok {
			st.err = cur.Err()
			if out.n > 0 && st.err == nil {
				select {
				case st.ch <- out:
				case <-m.stop:
				}
			}
			return
		}
		out.terms = append(out.terms, row...)
		if out.n++; out.n == chunkRows {
			select {
			case st.ch <- out:
			case <-m.stop:
				return
			}
			out = chunk{terms: make([]rdf.Term, 0, chunkRows*len(vars))}
		}
	}
}

// nextRow returns one stream's next row in the merged header's column
// order, pulling a fresh chunk when the buffered one is spent. The row
// is the slab's own when the stream needs no permutation — chunks are
// never reused, so it stays valid — and otherwise the stream's reused
// copy. ok=false means the stream is exhausted, its worker failed, or
// the context fired — the latter two set m.err.
func (m *mergeCursor) nextRow(st *shardStream) (stsparql.Row, bool) {
	for {
		if st.pos < st.buf.n {
			w := len(st.vars)
			row := st.buf.terms[st.pos*w : (st.pos+1)*w : (st.pos+1)*w]
			st.pos++
			if st.perm == nil {
				return row, true
			}
			for j, c := range st.perm {
				st.row[j] = rdf.Term{}
				if c >= 0 {
					st.row[j] = row[c]
				}
			}
			return st.row, true
		}
		select {
		case c, ok := <-st.ch:
			if !ok {
				if st.err != nil {
					m.fail(st.err)
				}
				return nil, false
			}
			<-st.ready // closed before the first send; vars are final
			st.buf, st.pos = c, 0
		case <-m.ctx.Done():
			m.fail(m.ctx.Err())
			return nil, false
		}
	}
}

func (m *mergeCursor) Vars() []string { return m.vars }
func (m *mergeCursor) IsAsk() bool    { return false }
func (m *mergeCursor) Err() error     { return m.err }
func (m *mergeCursor) Rows() int      { return m.yielded }

func (m *mergeCursor) Next() (stsparql.Row, bool) {
	if m.closed || m.done || m.err != nil {
		return nil, false
	}
	if err := m.ctx.Err(); err != nil {
		m.fail(err)
		return nil, false
	}
	if m.plan.mode == fanAgg {
		if m.agg == nil && !m.finalizeAgg() {
			return nil, false
		}
		row, ok := m.agg.Next()
		if ok {
			m.yielded++
		}
		return row, ok
	}
	for {
		if m.plan.limit >= 0 && m.emitted >= m.plan.limit {
			m.done = true
			m.shutdown()
			return nil, false
		}
		var row stsparql.Row
		var ok bool
		if m.plan.mode == fanOrdered {
			row, ok = m.pullOrdered()
		} else {
			row, ok = m.pullConcat()
		}
		if !ok {
			if m.err == nil {
				m.done = true
			}
			m.shutdown() // exhausted (or failed): release locks now
			return nil, false
		}
		if m.plan.distinct {
			if m.seen == nil {
				m.seen = make(map[string]bool)
			}
			m.kb = stsparql.RowKey(m.kb[:0], row)
			if m.seen[string(m.kb)] {
				continue
			}
			m.seen[string(m.kb)] = true
		}
		if m.skipped < m.plan.offset {
			m.skipped++
			continue
		}
		m.emitted++
		m.yielded++
		return row, true
	}
}

// pullConcat streams the shards one after another — shard order, with
// every worker prefetching into its buffer concurrently.
func (m *mergeCursor) pullConcat() (stsparql.Row, bool) {
	for m.cur < len(m.streams) {
		row, ok := m.nextRow(m.streams[m.cur])
		if !ok {
			if m.err != nil {
				return nil, false
			}
			m.cur++
			continue
		}
		return row, true
	}
	return nil, false
}

// pullOrdered k-way merges the pre-sorted shard streams: one lookahead
// row per stream, its ORDER BY keys evaluated once when it becomes the
// head, emitting the smallest (ties to the lower shard, keeping the merge
// deterministic).
func (m *mergeCursor) pullOrdered() (stsparql.Row, bool) {
	var best *shardStream
	for _, st := range m.streams {
		if !st.drained && !st.hasHead {
			row, ok := m.nextRow(st)
			if !ok {
				if m.err != nil {
					return nil, false
				}
				st.drained = true
				continue
			}
			st.head, st.hasHead = row, true
			st.key = m.order.Eval(st.key[:0], row)
		}
		if st.hasHead && (best == nil || m.order.Compare(st.key, best.key) < 0) {
			best = st
		}
	}
	if best == nil {
		return nil, false
	}
	best.hasHead = false
	return best.head, true
}

// finalizeAgg is the barrier of the aggregate merge: every shard's
// partial rows are drained, the read locks released, and the groups
// recombined into the final materialised result.
func (m *mergeCursor) finalizeAgg() bool {
	var rows []stsparql.Row
	for _, st := range m.streams {
		for {
			row, ok := m.nextRow(st)
			if !ok {
				if m.err != nil {
					return false
				}
				break
			}
			rows = append(rows, row)
		}
	}
	m.shutdown() // partials shipped: recombination needs no locks
	res, err := m.plan.agg.Finalize(rows)
	if err != nil {
		m.err = err
		return false
	}
	m.agg = stsparql.MaterialisedCursor(res.Vars, res.Rows)
	return true
}

func (m *mergeCursor) fail(err error) {
	m.err = err
	m.shutdown()
}

// shutdown stops the workers, waits for them to exit (they scan the
// locked stores), then releases the read locks. Idempotent.
func (m *mergeCursor) shutdown() {
	m.once.Do(func() {
		close(m.stop)
		m.wg.Wait()
		if m.release != nil {
			m.release()
		}
	})
}

// Close terminates the fan-out, releasing every shard read lock.
func (m *mergeCursor) Close() error {
	m.closed = true
	m.shutdown()
	return m.err
}

var _ QueryCursor = (*mergeCursor)(nil)
