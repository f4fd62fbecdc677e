package strabon

import (
	"context"
	"time"

	"repro/internal/rdf"
	"repro/internal/resultcache"
	"repro/internal/stsparql"
)

// API is the endpoint surface a Strabon-shaped store presents: the
// methods the HTTP endpoint, the acquisition pipeline's batched writer,
// the refinement loop and the serving binaries consume. Both the single
// *Store and the sharded store (internal/shard) implement it, which is
// what lets `-shards N` swap the backend without touching any consumer.
type API interface {
	Namespaces() *rdf.Namespaces
	Len() int
	Stats() Stats
	PlanStats() stsparql.PlanCacheStats
	SetPlanCacheSize(n int)

	LoadTriples(triples []rdf.Triple) int
	LoadTurtle(src string) (int, error)
	InsertAll(groups ...[]rdf.Triple) []int

	QueryStreamCtx(ctx context.Context, src string) (QueryCursor, error)
	Explain(src string) (string, error)
	// ExplainAnalyze executes a SELECT or ASK with per-operator
	// instrumentation and renders the annotated plan.
	ExplainAnalyze(ctx context.Context, src string) (string, error)

	// DictStats reports the size of the store's term dictionary: the
	// distinct terms interned and the approximate heap bytes they pin.
	DictStats() (entries, bytes int)
	// GensValid checks a cached result's generation vector against the
	// live state. Validation is lock-free (generations are atomics), so
	// it runs on every cache Get without touching the stores' RWMutexes.
	GensValid(v resultcache.GenVector) bool

	Update(src string) (stsparql.UpdateStats, error)

	// ApplyFlush is the acquisition pipeline's write: it inserts the
	// flush's triple groups and runs rules — the refinement of what was
	// just written — as ONE transition of the store. The rules evaluate
	// and apply against a private Overlay while the store stays readable;
	// the overlay's net effect then lands under a single short hold of
	// the write lock(s) the flush lands in, and the generation of every
	// store it touches advances exactly once. A reader sees the flush
	// entirely or not at all; no other writer runs between the rules'
	// first read and the commit; a flush whose rules fail writes nothing.
	ApplyFlush(f Flush, rules func(*FlushTx) error) error
}

// Flush describes one ApplyFlush: the triple groups to insert (one per
// product, each carrying its acquisition timestamp; may be empty when
// the products are already stored), the acquisition times the rules
// write at, and how far back in valid time they read. A sharded store
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

// NewFlushTx assembles a FlushTx over a flush's overlay; the sharded
// store builds its own over the members it holds.
func NewFlushTx(inserted []int, o *Overlay, cache *stsparql.Cache) *FlushTx {
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

// QueryCursor is the streaming result surface shared by single-store
// and sharded cursors. A cursor holds its backing read lock(s) from
// creation until Close — close promptly. See Store.QueryStream for the
// single-store semantics.
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
func MaterialiseQuery(ctx context.Context, s API, src string) (*stsparql.Result, error) {
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

// ShardStat describes one shard of a sharded backend for /stats and
// the /metrics per-shard gauges: cardinality, mutation generation and
// the observed temporal range — the first and last entry of the shard's
// time index (zero MinUnix/MaxUnix when it holds no timestamped data).
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

// ShardStatser is implemented by backends that partition their data;
// the endpoint's /stats reports the per-shard cardinalities when the
// backend offers them.
type ShardStatser interface {
	ShardStats() []ShardStat
}

// --- composite-store hooks ---
//
// The sharded store (internal/shard) evaluates one query across several
// member stores: it holds each member's lock itself and calls the
// unlocked source and write methods (MatchIDs, CountPattern,
// MatchGeometryWindowIDs, RemoveEncoded, InsertEncodedLocked) directly.
// These exports hand it the lock and the plan-invalidation generation;
// ordinary clients should use the endpoint API and never touch them.

// RLock takes the store's read lock (composite-store use only).
func (s *Store) RLock() { s.mu.RLock() }

// RUnlock releases the store's read lock.
func (s *Store) RUnlock() { s.mu.RUnlock() }

// Lock takes the store's write lock (composite-store use only).
func (s *Store) Lock() { s.mu.Lock() }

// Unlock releases the store's write lock; if the hold mutated the store
// the generation advances first, once.
func (s *Store) Unlock() { s.unlock() }

// Generation reports the mutation generation compiled plans and cached
// results are pinned to. It is an atomic load: callers holding the
// store's lock (read or write) observe a stable value; lock-free
// callers (cache validators, pruned-slice vector capture) observe the
// latest published one.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// GensValid implements API for the single store: a cached result is
// valid iff its vector is the whole-store generation and the store has
// not mutated since.
func (s *Store) GensValid(v resultcache.GenVector) bool {
	if v.Partial || len(v.Gens) != 1 {
		return false
	}
	return v.Gens[0].Gen == s.gen.Load()
}

// GeomCache exposes the store's shared geometry-parse cache so a
// composite store's evaluators reuse the same parsed WKT.
func (s *Store) GeomCache() *stsparql.Cache { return s.cache }
