package stsparql

import (
	"container/list"
	"fmt"
	"hash/maphash"
	"sync"

	"repro/internal/rdf"
)

// Compiled plans and the generation-invalidated plan cache. A served
// endpoint sees the same thematic queries over and over (the paper's
// NOA operators re-pose a fixed catalogue); caching the compiled plan
// keyed by the query text skips parse and planning on repeats — the
// pattern Gottlob et al.'s ontological-database work motivates for
// repeated rewritten queries. Plans embed cardinality estimates drawn
// from the source's live statistics, so every cache entry is pinned to
// the source generation it was planned at and invalidated when the
// source mutates.

// Compiled is a parsed query together with its physical plan. Plan
// nodes are immutable (all per-execution state lives in iterators), so
// one Compiled may be run repeatedly and concurrently — against the
// unchanged source it was compiled for. A sub-select's solutions are
// computed at most once per Compiled and shared across runs; nothing
// else is kept between them.
type Compiled struct {
	Query *Query
	sel   *selectPlan
	ask   *groupPlan

	// cacheable is the plan-time result-cacheability verdict: false for
	// non-deterministic shapes (SAMPLE) and for plans that would read
	// live statistics mid-flight. See cacheable.go.
	cacheable bool
}

// explain renders the compiled plan's operators, indented under the
// select/ask line EXPLAIN opens with.
func (c *Compiled) explain(b *planText) {
	switch {
	case c.sel != nil:
		c.sel.explain(b, "  ")
	case c.ask != nil:
		c.ask.explain(b, "  ")
	}
}

// IsSelect reports whether the compiled query is a SELECT.
func (c *Compiled) IsSelect() bool { return c.sel != nil }

// IsAsk reports whether the compiled query is an ASK.
func (c *Compiled) IsAsk() bool { return c.ask != nil }

// Compile plans a parsed query against this evaluator's source. Update
// requests carry no plan (their WHERE phase is planned at execution
// time, against the pre-update state).
func (e *Evaluator) Compile(q *Query) *Compiled {
	c := &Compiled{Query: q}
	switch {
	case q.Select != nil:
		c.sel = e.newPlanner().planSelect(q.Select, false)
	case q.Ask != nil:
		c.ask = e.newPlanner().planGroupRoot(q.Ask.Where, false)
	}
	c.cacheable = Cacheable(q)
	return c
}

// CompileCached parses and plans src, consulting cache first: a hit at
// the same source generation returns the stored Compiled without
// touching the parser or planner. cache may be nil (caching disabled).
// Only SELECT and ASK compile into cacheable plans.
func (e *Evaluator) CompileCached(src string, ns *rdf.Namespaces, cache *PlanCache, gen uint64) (*Compiled, error) {
	if cache != nil {
		if c, ok := cache.get(src, gen); ok {
			return c, nil
		}
	}
	q, err := Parse(src, ns)
	if err != nil {
		return nil, err
	}
	c := e.Compile(q)
	if cache != nil && (c.sel != nil || c.ask != nil) {
		cache.put(src, gen, c)
	}
	return c, nil
}

// CompileASTCached returns the cached plan for key at gen, or compiles q
// against this evaluator's source and stores it. Unlike CompileCached
// the query is already parsed, so key must identify both the text and
// the source the plan is made for. cache may be nil.
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

// RunCompiled opens a cursor over a compiled SELECT.
func (e *Evaluator) RunCompiled(c *Compiled) (Cursor, error) {
	if c.sel == nil {
		return nil, fmt.Errorf("stsparql: RunCompiled wants a SELECT")
	}
	e.begin(nil, nil)
	it, vars := c.sel.open(e, nil, unitSeed)
	return &planCursor{it: it, vars: vars}, nil
}

// AskCompiled evaluates a compiled ASK, stopping at the first solution.
func (e *Evaluator) AskCompiled(c *Compiled) (bool, error) {
	if c.ask == nil {
		return false, fmt.Errorf("stsparql: AskCompiled wants an ASK")
	}
	e.begin(nil, nil)
	it := c.ask.open(e, seedIter(e.dict, c.ask.schema, nil, unitSeed))
	defer it.close()
	b, err := nextLive(it)
	return b != nil, err
}

// PlanCacheStats is a snapshot of cache effectiveness counters.
// Evictions counts both capacity evictions and generation
// invalidations; Declined counts the plans not stored because their
// key was compiled for the first time.
type PlanCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Declined  uint64 `json:"declined"`
	Entries   int    `json:"entries"`
}

// PlanCache is a bounded, LRU-evicted cache of compiled plans keyed by
// query text, invalidated by source generation: every resident entry
// was compiled at the generation the cache last saw, and the first call
// at another generation empties it — generations only advance, so a
// plan pinned to an older one can never hit again and would only pin
// its memory until the LRU got round to it (a slice under live writes
// collects the plans of every one-off text otherwise). A plan enters on
// the second compile of its key: the cache remembers the hashes of the
// last max keys it declined, so one-off texts — a dashboard's unique
// windows — never displace the plans of texts that repeat. It is safe
// for concurrent use, but the plans it stores are tied to one source —
// do not share a PlanCache across stores.
type PlanCache struct {
	mu        sync.Mutex
	max       int
	gen       uint64     // generation of every resident entry
	lru       *list.List // of *planEntry; front = most recently used
	entries   map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
	declined  uint64

	// seen holds the hashes of the last max keys declined, queued oldest
	// first.
	seed   maphash.Seed
	seen   map[uint64]struct{}
	queued []uint64
}

type planEntry struct {
	key string
	c   *Compiled
}

// NewPlanCache returns a cache holding at most max compiled plans.
func NewPlanCache(max int) *PlanCache {
	return &PlanCache{
		max:     max,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
		seed:    maphash.MakeSeed(),
		seen:    make(map[uint64]struct{}),
	}
}

// Stats returns a snapshot of the cache counters.
func (pc *PlanCache) Stats() PlanCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlanCacheStats{
		Hits:      pc.hits,
		Misses:    pc.misses,
		Evictions: pc.evictions,
		Declined:  pc.declined,
		Entries:   len(pc.entries),
	}
}

// at moves the cache to generation gen, dropping what was planned
// against another state of the source. Caller holds mu.
func (pc *PlanCache) at(gen uint64) {
	if gen == pc.gen {
		return
	}
	pc.gen = gen
	pc.evictions += uint64(len(pc.entries))
	pc.lru.Init()
	clear(pc.entries)
}

func (pc *PlanCache) get(key string, gen uint64) (*Compiled, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.at(gen)
	if el, ok := pc.entries[key]; ok {
		pc.lru.MoveToFront(el)
		pc.hits++
		return el.Value.(*planEntry).c, true
	}
	pc.misses++
	return nil, false
}

func (pc *PlanCache) put(key string, gen uint64, c *Compiled) {
	if pc.max <= 0 {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.at(gen)
	if el, ok := pc.entries[key]; ok {
		el.Value = &planEntry{key: key, c: c}
		pc.lru.MoveToFront(el)
		return
	}
	h := maphash.String(pc.seed, key)
	if _, again := pc.seen[h]; !again {
		pc.seen[h] = struct{}{}
		if pc.queued = append(pc.queued, h); len(pc.queued) > pc.max {
			delete(pc.seen, pc.queued[0])
			pc.queued = pc.queued[1:]
		}
		pc.declined++
		return
	}
	pc.entries[key] = pc.lru.PushFront(&planEntry{key: key, c: c})
	for pc.lru.Len() > pc.max {
		back := pc.lru.Back()
		pc.lru.Remove(back)
		delete(pc.entries, back.Value.(*planEntry).key)
		pc.evictions++
	}
}
