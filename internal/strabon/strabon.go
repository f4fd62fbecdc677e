// Package strabon is the geospatial RDF store of the reproduction: the
// role Strabon (Kyzirakos, Karpathiotakis, Koubarakis — ISWC 2012) plays
// in the paper's architecture. It combines the dictionary-encoded triple
// store of package rdf with an R-tree over strdf:hasGeometry objects, a
// time index over xsd:dateTime objects (stSPARQL's two dimensions, each
// an access path the planner can see) and the stSPARQL engine, exposing
// an endpoint-style API used by the refinement step of the
// fire-monitoring service.
//
// # Locking discipline
//
// The store is safe for concurrent use through its endpoint API
// (QueryStreamCtx, Update, LoadTriples, InsertAll, ApplyFlush, ...).
// Internally a single RWMutex guards the triple store, the spatial
// index with its geometry entry table and the time index, and a writer
// mutex serialises the write paths among themselves:
//
//   - QueryStream and QueryStreamCtx evaluate under a read lock, so any
//     number of queries run concurrently. A streaming cursor HOLDS the read
//     lock from QueryStream until Close: writers queue behind open
//     cursors, which is what makes a half-consumed result set immune to
//     concurrent mutation. Clients must Close cursors promptly.
//   - Update and InsertAll take the writer mutex, then the write lock;
//     mutations are serialised. A write-lock hold that changed anything
//     bumps the store generation exactly once, on release, invalidating
//     cached query plans and results.
//   - The stsparql interface methods (MatchIDs, Add, Remove,
//     MatchGeometryWindowIDs, MatchTimeRangeIDs, ...) do NOT lock: they
//     are called by the evaluator while an endpoint method already holds
//     the lock. External callers must go through the endpoint API.
//   - The term dictionary is not under the RWMutex at all: one
//     rdf.Dictionary serves a whole store topology (a sharded store's
//     members, a flush's overlay) and synchronises itself. Appends are
//     serialised by the topology's writer mutex.
//   - Endpoint statistics live behind a separate mutex so read-locked
//     queries can still count index hits.
//
// # The flush contract
//
// ApplyFlush is the acquisition pipeline's write: a batch of products
// and the refinement of exactly those products, as one transition of
// the store. Readers see a flush entirely or not at all — never a raw
// hotspot the rules are about to delete, an unclipped coastal pixel or a
// confidence about to be confirmed — and the generation moves once per
// flush, however many rules ran.
//
// It gets there without making readers wait for the refinement. Under
// the writer mutex (no other writer from here to the commit) and the
// READ lock, the flush's triples go into a private Overlay; the rules
// evaluate over store + overlay and apply to the overlay, each seeing
// the effects of those before it. Only the overlay's net effect — the
// refined products — is then committed under the write lock, a hold of
// a bulk insert's length. The read lock is released before the write
// lock is taken (RWMutex does not upgrade; reprolint's lockdiscipline
// checks it); the writer mutex is what keeps the state from moving in
// between. A flush whose rules fail commits nothing.
package strabon

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/resultcache"
	"repro/internal/rtree"
	"repro/internal/stsparql"
)

// Store is a spatially indexed RDF store with an stSPARQL endpoint. See
// the package comment for the locking discipline.
type Store struct {
	mu sync.RWMutex
	// writeMu serialises the write paths among themselves. ApplyFlush
	// holds it from its read phase to its commit, so the state it refined
	// against is the state it commits onto; readers never take it.
	writeMu sync.Mutex
	triples *rdf.Store
	ns      *rdf.Namespaces
	cache   *stsparql.Cache

	// plans caches compiled query plans keyed by query text, guarded by
	// mu; gen is the mutation generation plan- and result-cache entries
	// are pinned to. gen is atomic so composite stores and cache
	// validators can read the generation of a store they do NOT hold
	// locked (observed-range-pruned slices, result-cache Get): it is
	// only advanced under the write lock, so a read-locked observer
	// still sees a stable value.
	plans *stsparql.PlanCache
	gen   atomic.Uint64
	// mutated records that the current write-lock hold changed a triple;
	// unlock turns it into exactly one generation bump.
	mutated bool

	index *rtree.Tree
	// geomEntries remembers what was inserted in the index, keyed by the
	// encoded geometry triple, so RemoveEncoded can delete the exact
	// entry again. The R-tree payload is the entry itself: a window hit
	// reads its triple without a lookup.
	geomEntries map[rdf.EncodedTriple]*indexedGeom
	// times is the time index, keyed by predicate (see timeindex.go).
	times map[rdf.ID]*timeRun

	statsMu sync.Mutex
	stats   Stats
}

var _ stsparql.SpatialSource = (*Store)(nil)

// defaultPlanCacheSize bounds the compiled-plan cache: the endpoint's
// repeated thematic-query catalogue is far smaller than this.
const defaultPlanCacheSize = 256

type indexedGeom struct {
	env geom.Envelope
	// enc is the dictionary encoding of the geometry triple, so window
	// scans can stay in ID space (MatchGeometryWindowIDs).
	enc rdf.EncodedTriple
}

// Stats counts endpoint activity.
type Stats struct {
	Queries       int
	Updates       int
	TriplesLoaded int
	IndexHits     int
}

// New returns an empty store with a spatial index and a
// default-sized plan cache.
func New() *Store {
	return newStore(rdf.NewDictionary(), rdf.NewNamespaces(), stsparql.NewCache())
}

// NewMember returns an empty store that is one more member of the
// topology of belongs to: it encodes into the same dictionary — IDs
// compare across members, and a View of them scans in one ID space —
// and shares the geometry-parse cache and the prefix table. The members
// of a sharded store and a flush's private overlay store are built so.
// Whoever builds a topology serialises its writers (see rdf.Dictionary).
func NewMember(of *Store) *Store { return newStore(of.triples.Dict(), of.ns, of.cache) }

func newStore(dict *rdf.Dictionary, ns *rdf.Namespaces, cache *stsparql.Cache) *Store {
	return &Store{
		triples:     rdf.NewStoreOver(dict),
		ns:          ns,
		cache:       cache,
		plans:       stsparql.NewPlanCache(defaultPlanCacheSize),
		index:       rtree.New(),
		geomEntries: make(map[rdf.EncodedTriple]*indexedGeom),
		times:       make(map[rdf.ID]*timeRun),
	}
}

// SetPlanCacheSize replaces the compiled-plan cache with one holding at
// most n entries; n <= 0 disables plan caching. Counters restart.
func (s *Store) SetPlanCacheSize(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		s.plans = nil
		return
	}
	s.plans = stsparql.NewPlanCache(n)
}

// PlanStats returns a snapshot of the plan cache counters.
func (s *Store) PlanStats() stsparql.PlanCacheStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.plans == nil {
		return stsparql.PlanCacheStats{}
	}
	return s.plans.Stats()
}

// Namespaces exposes the store's prefix table.
func (s *Store) Namespaces() *rdf.Namespaces { return s.ns }

// Len reports the number of triples.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.triples.Len()
}

// Stats returns a snapshot of endpoint statistics.
func (s *Store) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// --- stsparql.Source / UpdatableSource / StatSource / SpatialSource ---
// The engine scans, joins and deduplicates on the dictionary's IDs and
// materialises terms late. These run with the store lock already held
// by the calling endpoint method; they must not lock s.mu themselves.

// Dict implements stsparql.Source, exposing the topology's append-only
// term dictionary (IDs are stable for its life; decode is lock-free).
func (s *Store) Dict() *rdf.Dictionary { return s.triples.Dict() }

// MatchIDs implements stsparql.Source: it streams encoded triples
// matching an encoded pattern (rdf.Wildcard components match anything).
func (s *Store) MatchIDs(sub, pred, obj rdf.ID, visit func(rdf.EncodedTriple) bool) bool {
	return s.triples.MatchIDs(sub, pred, obj, visit)
}

// Add implements stsparql.UpdatableSource (write lock held).
func (s *Store) Add(t rdf.Triple) bool { return s.addEncoded(s.triples.Dict().EncodeTriple(t)) }

// addEncoded adds an already-encoded triple, maintaining the spatial
// and time indexes. Like every mutation it only marks the hold mutated;
// the generation moves once, when the write lock is released.
func (s *Store) addEncoded(enc rdf.EncodedTriple) bool {
	if !s.triples.AddEncoded(enc) {
		return false
	}
	s.mutated = true
	if item, ok := s.geomItem(enc); ok {
		s.index.Insert(item.Box, item.Data)
	}
	if s.timeAdd(enc) {
		s.settleTimes()
	}
	return true
}

// geomItem prepares the spatial-index entry for a geometry triple,
// recording it in geomEntries. ok is false for non-geometry triples.
func (s *Store) geomItem(enc rdf.EncodedTriple) (rtree.Item, bool) {
	d := s.triples.Dict()
	o := d.Decode(enc.O)
	if !o.IsGeometry() || !stsparql.GeometryPredicates[d.Decode(enc.P).Value] {
		return rtree.Item{}, false
	}
	g, err := geom.ParseWKT(o.Value)
	if err != nil {
		return rtree.Item{}, false
	}
	e := &indexedGeom{env: g.Envelope(), enc: enc}
	s.geomEntries[enc] = e
	return rtree.Item{Box: e.env, Data: e}, true
}

// Remove implements stsparql.UpdatableSource (write lock held).
func (s *Store) Remove(t rdf.Triple) bool {
	enc, ok := s.triples.Dict().LookupTriple(t)
	return ok && s.RemoveEncoded(enc)
}

// RemoveEncoded removes an encoded triple and its index entries (write
// lock held).
func (s *Store) RemoveEncoded(enc rdf.EncodedTriple) bool {
	if !s.triples.RemoveEncoded(enc) {
		return false
	}
	s.mutated = true
	if e, ok := s.geomEntries[enc]; ok {
		s.index.Delete(e.env, e)
		delete(s.geomEntries, enc)
	}
	s.timeRemove(enc)
	return true
}

// unlock releases the write lock, first publishing the hold's mutations
// as one generation bump: however many triples a hold adds and removes
// — a bulk load, an update, a whole refined flush — plan- and
// result-cache entries pinned to the store are invalidated once.
func (s *Store) unlock() {
	if s.mutated {
		s.mutated = false
		s.gen.Add(1)
	}
	s.mu.Unlock()
}

// CountPattern implements stsparql.StatSource.
func (s *Store) CountPattern(sub, pred, obj rdf.Term) int {
	return s.triples.CountPattern(sub, pred, obj)
}

// CountIDs is CountPattern for an already-encoded pattern.
func (s *Store) CountIDs(sub, pred, obj rdf.ID) int { return s.triples.Count(sub, pred, obj) }

// PredicateCard implements stsparql.StatSource.
func (s *Store) PredicateCard(pred rdf.Term) (triples, distinctS, distinctO int) {
	return s.triples.PredicateCard(pred)
}

// StoreCard implements stsparql.StatSource.
func (s *Store) StoreCard() (triples, subjects, predicates, objects int) {
	return s.triples.StoreCard()
}

// MatchGeometryWindowIDs implements stsparql.SpatialSource: it streams
// the encoded geometry triples whose envelope intersects the window,
// without decoding a single term.
func (s *Store) MatchGeometryWindowIDs(env geom.Envelope, visit func(rdf.EncodedTriple) bool) bool {
	s.statsMu.Lock()
	s.stats.IndexHits++
	s.statsMu.Unlock()
	return s.index.Search(env, func(it rtree.Item) bool {
		return visit(it.Data.(*indexedGeom).enc)
	})
}

// SubjectSets implements stsparql.SpatialSource.
func (s *Store) SubjectSets(p, o rdf.ID, dst []rdf.IDSet) []rdf.IDSet {
	if set := s.triples.SubjectSet(p, o); set.Len() > 0 {
		dst = append(dst, set)
	}
	return dst
}

// DictStats implements API: the distinct terms the topology's
// dictionary holds and the approximate bytes they retain.
func (s *Store) DictStats() (entries, bytes int) {
	d := s.triples.Dict()
	return d.Len(), d.ApproxBytes()
}

// --- endpoint API ---

// LoadTriples bulk-inserts triples.
func (s *Store) LoadTriples(triples []rdf.Triple) int {
	counts := s.InsertAll(triples)
	return counts[0]
}

// InsertAll bulk-inserts several triple groups under one write-lock
// acquisition, returning the number of new triples per group — the
// bulk-load path (auxiliary datasets, a prior archive).
func (s *Store) InsertAll(groups ...[]rdf.Triple) []int {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	enc := EncodeGroups(s.triples.Dict(), groups)
	s.mu.Lock()
	defer s.unlock()
	return s.InsertEncodedLocked(enc...)
}

// EncodeGroups interns triple groups into a topology's dictionary. It
// needs the topology's writer mutex and no member lock, so a bulk write
// encodes before it takes the write lock it lands under.
func EncodeGroups(d *rdf.Dictionary, groups [][]rdf.Triple) [][]rdf.EncodedTriple {
	out := make([][]rdf.EncodedTriple, len(groups))
	for gi, group := range groups {
		out[gi] = d.EncodeTriples(group)
	}
	return out
}

// InsertEncodedLocked bulk-inserts encoded triple groups for a caller
// holding the write lock (InsertAll and the ApplyFlush commit here, the
// sharded store's routed writes), returning the number of new triples
// per group. Geometry triples are gathered across the groups and
// bulk-loaded into the R-tree once, instead of one quadratic-split
// insertion per triple; the time index takes its entries as appends and
// is sorted once, and only if the load brought data older than what it
// held.
func (s *Store) InsertEncodedLocked(groups ...[]rdf.EncodedTriple) []int {
	counts := make([]int, len(groups))
	total := 0
	var items []rtree.Item
	unsorted := false
	for gi, group := range groups {
		for _, enc := range group {
			if !s.triples.AddEncoded(enc) {
				continue
			}
			counts[gi]++
			total++
			if item, ok := s.geomItem(enc); ok {
				items = append(items, item)
			}
			unsorted = s.timeAdd(enc) || unsorted
		}
	}
	if total > 0 {
		s.mutated = true
	}
	s.index.InsertAll(items)
	if unsorted {
		s.settleTimes()
	}

	s.statsMu.Lock()
	s.stats.TriplesLoaded += total
	s.statsMu.Unlock()
	return counts
}

// LoadTurtle parses and loads a Turtle document.
func (s *Store) LoadTurtle(src string) (int, error) {
	triples, err := rdf.ParseTurtle(src, s.ns)
	if err != nil {
		return 0, err
	}
	return s.LoadTriples(triples), nil
}

// Cursor streams the solutions of one query, for the single store and
// the sharded store alike. A SELECT cursor holds its store's read
// lock(s) from QueryStream until Close — close promptly; an ASK cursor
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

// NewCursor returns the cursor over one evaluation's inner cursor. ask
// marks inner as an ASK verdict (one row binding "ask"); release, if
// not nil, frees the read locks the evaluation runs under and is
// called once, when the cursor closes or its context fires; vec and
// cacheable are what CacheVector reports.
func NewCursor(ctx context.Context, inner stsparql.Cursor, ask bool, release func(), vec resultcache.GenVector, cacheable bool) *Cursor {
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

// QueryStream parses, plans and starts a SELECT or ASK request,
// returning a streaming cursor over its solutions. See QueryStreamCtx.
func (s *Store) QueryStream(src string) (*Cursor, error) {
	return s.queryStream(context.Background(), src, nil)
}

// QueryStreamCtx is QueryStream bound to a context: the cursor checks
// ctx on every pull (see Cursor), and a context already done is refused
// before anything is planned.
func (s *Store) QueryStreamCtx(ctx context.Context, src string) (QueryCursor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cur, err := s.queryStream(ctx, src, nil)
	if err != nil {
		return nil, err
	}
	return cur, nil
}

// queryStream is the query path. Parsing and planning consult the plan
// cache: a repeated query at an unchanged store generation reuses its
// compiled plan. The returned cursor holds the store read lock until
// Close (ASK verdicts are computed eagerly — the pipeline stops at the
// first solution — and release the lock before returning). hook, if not
// nil, sees the evaluator and its plan before the evaluation starts;
// ExplainAnalyze attaches its trace there.
func (s *Store) queryStream(ctx context.Context, src string, hook func(*stsparql.Evaluator, *stsparql.Compiled)) (*Cursor, error) {
	s.mu.RLock()
	ev := stsparql.NewEvaluatorWithCache(s, s.cache)
	c, err := ev.CompileCached(src, s.ns, s.plans, s.gen.Load())
	if err != nil {
		s.mu.RUnlock()
		return nil, err
	}
	// Counted after the parse: malformed requests are not served queries.
	s.statsMu.Lock()
	s.stats.Queries++
	s.statsMu.Unlock()
	if hook != nil {
		hook(ev, c)
	}
	// Captured under the read lock: the generation every row of this
	// evaluation derives from.
	vec := resultcache.GenVector{Gens: []resultcache.SliceGen{{Slice: -1, Gen: s.gen.Load()}}}
	switch {
	case c.IsSelect():
		cur, err := ev.RunCompiled(c)
		if err != nil {
			s.mu.RUnlock()
			return nil, err
		}
		return NewCursor(ctx, cur, false, s.mu.RUnlock, vec, c.Cacheable()), nil
	case c.IsAsk():
		ok, err := ev.AskCompiled(c)
		s.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		return NewCursor(ctx, stsparql.AskCursor(ok), true, nil, vec, c.Cacheable()), nil
	default:
		s.mu.RUnlock()
		return nil, fmt.Errorf("strabon: Query wants SELECT or ASK; use Update for updates")
	}
}

// Explain parses a request and renders the evaluation plan the engine
// would choose for it — join order, join strategies (bind / hash /
// R-tree window) and cardinality estimates — without executing it. It
// runs under the read lock because the planner consults live statistics.
func (s *Store) Explain(src string) (string, error) {
	q, err := stsparql.Parse(src, s.ns)
	if err != nil {
		return "", err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	ev := stsparql.NewEvaluatorWithCache(s, s.cache)
	return ev.Explain(q)
}

// Update parses and executes a DELETE/INSERT request atomically: match
// and application both happen under the write lock.
func (s *Store) Update(src string) (stsparql.UpdateStats, error) {
	q, err := s.parseUpdate(src)
	if err != nil {
		return stsparql.UpdateStats{}, err
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.mu.Lock()
	defer s.unlock()
	ev := stsparql.NewEvaluatorWithCache(s, s.cache)
	return ev.Update(q.Update)
}

// ApplyFlush implements API. The rules run over an Overlay of the store
// under the READ lock — queries proceed beside them — and the overlay's
// net effect is committed under one short hold of the write lock, with
// one generation bump. writeMu keeps every other writer out from the
// first read to the commit, so the flush is atomic to readers and
// writers alike.
func (s *Store) ApplyFlush(f Flush, rules func(*FlushTx) error) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	groups := EncodeGroups(s.triples.Dict(), f.Groups)
	s.mu.RLock()
	o, inserted := NewOverlay(View{s}, groups)
	err := rules(NewFlushTx(inserted, o, s.cache))
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	deletes, inserts := o.Effect()
	s.mu.Lock()
	defer s.unlock()
	for _, t := range deletes {
		s.RemoveEncoded(t)
	}
	s.InsertEncodedLocked(inserts)
	return nil
}

func (s *Store) parseUpdate(src string) (*stsparql.Query, error) {
	q, err := stsparql.Parse(src, s.ns)
	if err != nil {
		return nil, err
	}
	if q.Update == nil {
		return nil, fmt.Errorf("strabon: Update wants DELETE/INSERT")
	}
	s.statsMu.Lock()
	s.stats.Updates++
	s.statsMu.Unlock()
	return q, nil
}
