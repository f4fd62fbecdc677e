package strabon

import (
	"context"
	"time"

	"repro/internal/rdf"
	"repro/internal/resultcache"
	"repro/internal/stsparql"
)

// Flush describes one ApplyFlush: the triple groups to insert (one per
// product, each carrying its acquisition timestamp; may be empty when
// the products are already stored), the acquisition times the rules
// write at, and how far back in valid time they read. The store
// commits into the slices owning At and the groups' timestamps, and
// shows the rules those slices plus the ones covering [Since, latest
// At]; rules reaching outside that reach nothing.
type Flush struct {
	Groups [][]rdf.Triple
	At     []time.Time
	Since  time.Time
}

// FlushTx is the store as the rules of one ApplyFlush see it: the
// flush's Overlay, an evaluator over it, and plan application onto it.
// It is only valid inside the rules callback.
type FlushTx struct {
	// Inserted is the number of new triples per group of the flush.
	Inserted []int

	overlay *Overlay
	ev      *stsparql.Evaluator
}

// newFlushTx assembles a FlushTx over a flush's overlay.
func newFlushTx(inserted []int, o *Overlay, cache *stsparql.Cache) *FlushTx {
	return &FlushTx{Inserted: inserted, overlay: o, ev: stsparql.NewEvaluatorWithCache(o, cache)}
}

// Plan runs a prepared DELETE/INSERT rule over the seed rows against
// the flush's current state, without applying it. Seed rows bind the
// rule's seed variables positionally (see stsparql.PlanPrepared).
func (tx *FlushTx) Plan(rule *stsparql.Prepared, seed []stsparql.Row) (*stsparql.UpdatePlan, error) {
	return tx.ev.PlanPrepared(rule, seed)
}

// Select runs a prepared SELECT over the seed rows.
func (tx *FlushTx) Select(q *stsparql.Prepared, seed []stsparql.Row) (*stsparql.Result, error) {
	return tx.ev.SelectPrepared(q, seed)
}

// Apply applies a computed plan to the flush's state: deletes, then
// inserts. Later rules of the flush see it; the store does at commit.
func (tx *FlushTx) Apply(plan *stsparql.UpdatePlan) stsparql.UpdateStats {
	return stsparql.ApplyPlan(tx.overlay, plan)
}

// QueryCursor is the streaming result surface of a query: a Cursor over
// one evaluation, or the merge of a fan-out's. A cursor holds its
// backing read locks from creation until Close — close promptly. See
// Store.QueryStreamCtx.
//
// Vars is final when the cursor opens, and each Row Next yields holds
// one term per header variable, in header order. The Row is a view —
// of the engine's current batch, or of the fan-out merge's current
// row — that may change at the next Next: it is only valid until the
// next call to Next (or Close). Callers that retain rows past that
// must copy them: MaterialiseQuery copies them into one slab, fan-out
// workers copy their terms into chunks.
type QueryCursor interface {
	Vars() []string
	IsAsk() bool
	Next() (stsparql.Row, bool)
	Err() error
	Rows() int
	Close() error
	// CacheVector reports what the rows were derived from: the
	// generation vector captured while the evaluation held its read
	// locks, and whether the result is deterministic enough to cache at
	// all (false for SAMPLE-bearing plans).
	CacheVector() (resultcache.GenVector, bool)
}

// MaterialiseQuery drains one streaming evaluation into an owned
// Result — the single materialising wrapper over a store. Cursor rows
// are views reused on the next pull, so they are copied out into one
// slab.
func MaterialiseQuery(ctx context.Context, s *Store, src string) (*stsparql.Result, error) {
	cur, err := s.QueryStreamCtx(ctx, src)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	res := stsparql.ReadAll(cur)
	if err := cur.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

// ShardStat describes one member of a Store — the static store or a
// slice — for /stats and the /metrics per-shard gauges: cardinality,
// mutation generation and the observed temporal range — the first and
// last entry of the member's time index (zero MinUnix/MaxUnix when it
// holds no timestamped data).
type ShardStat struct {
	Name    string `json:"name"`
	Range   string `json:"range,omitempty"`
	Triples int    `json:"triples"`
	Gen     uint64 `json:"generation"`
	MinUnix int64  `json:"min_unix,omitempty"`
	MaxUnix int64  `json:"max_unix,omitempty"`
	// TimeEntries is the size of the shard's time index over the routing
	// predicate.
	TimeEntries int `json:"time_index_entries"`
}
