// Package resultcache is a bounded, generation-keyed cache of
// materialised query results — the read-scaling tier of the serving
// roadmap. It skips parse, plan and evaluation for a repeated query:
// the endpoint stores the format-independent row set of a finished query
// and replays it through the ordinary result encoders on the next
// request for the same text. That replay records what it rendered, once
// per result format, and later requests in that format write the
// recorded bytes without rebuilding a term.
//
// Invalidation is by generation vector, not TTL. Every entry carries
// the (slice, generation) pairs of exactly the member stores its rows
// were derived from, captured while the evaluation held those stores'
// read locks. The entry stays valid until one of THOSE members
// mutates: on a sharded store a historical-window query's entry
// survives arbitrary writes to the live slice, which is what makes the
// hot dashboard queries ("hotspots last hour per municipality")
// effectively never expire. A validator callback supplied by the store
// compares the vector against the live generations at Get time; a
// stale entry is dropped and the caller re-evaluates. Generations only
// advance, so a stale entry can never become valid again: besides the
// one a Get trips over, the cache walks itself whenever half of what it
// holds was admitted since the last walk and drops every stale entry —
// the result of a one-off text over a slice since written would
// otherwise sit on its rows until the LRU reached it.
//
// The cache is bounded both by entry count and by total byte estimate,
// LRU-evicted, and safe for concurrent use.
package resultcache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/stsparql"
)

// SliceGen is one member store's generation at result-capture time.
// Slice -1 is the static store (or the whole store for an unsharded
// backend); indices >= 0 name time-range slices. The cache treats the
// pairs as opaque — only the issuing store's validator interprets them.
type SliceGen struct {
	Slice int
	Gen   uint64
}

// GenVector pins one cached result to the store state it was computed
// from.
//
// Partial=false means Gens covers every member store: the entry is
// valid iff no member has mutated since. Partial=true means Gens
// covers only the members a fan-out evaluation provably read (static
// plus the window's candidate slices); validity additionally requires
// that the routing knowledge the fan-out decision was based on has not
// grown (Know) — a new predicate or rdf:type routed into some slice
// can turn a fanned-out query shape into a union-fallback one without
// touching the listed slices' generations.
type GenVector struct {
	Gens    []SliceGen
	Know    uint64 // routing-knowledge generation (sharded stores)
	Partial bool   // Gens covers a subset of members (fan-out entries)
}

// Entry is one cached result: an ASK verdict or a SELECT row set,
// stored format-independently, plus at most one recorded Body per
// result format — the bytes the first complete replay in that format
// rendered, which later hits write as they are (Record).
type Entry struct {
	Ask  bool
	Snap *stsparql.RowSnapshot

	bodies [2]atomic.Pointer[Body] // by Format
	vec    GenVector
	bytes  int64
}

// Format indexes an entry's recorded bodies: one per result format.
type Format uint8

const (
	JSON Format = iota
	TSV
)

// Body is one entry rendered in one format: the exact bytes a complete
// replay wrote — head, rows and end — and the offset just past each row.
type Body struct {
	Bytes []byte
	Ends  []int
}

// size is the body's footprint, in the unit of the cache's byte bound.
func (b *Body) size() int64 { return int64(cap(b.Bytes)+8*cap(b.Ends)) + 48 }

// Body returns the entry's recorded body in format f, or nil.
func (e *Entry) Body(f Format) *Body { return e.bodies[f].Load() }

// Stats is a snapshot of cache effectiveness counters. Invalidations
// counts entries dropped because their generation vector went stale;
// Evictions counts capacity (entry or byte bound) evictions.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	Entries       int    `json:"entries"`
	Bytes         int64  `json:"bytes"`
}

// Cache is the bounded LRU result cache, keyed by query text.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	lru        *list.List // of *cacheEntry; front = most recently used
	entries    map[string]*list.Element
	admitted   int // entries admitted since the last sweep

	hits, misses, evictions, invalidations uint64
}

type cacheEntry struct {
	key string
	e   *Entry
}

// New returns a cache holding at most maxEntries results totalling at
// most maxBytes (estimated). maxBytes <= 0 means no byte bound.
func New(maxEntries int, maxBytes int64) *Cache {
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		lru:        list.New(),
		entries:    make(map[string]*list.Element),
	}
}

// MaxEntryBytes is the admission bound for a single entry: a result
// bigger than a quarter of the byte budget is never cached (it would
// evict most of the working set for one giant response). 0 means
// unbounded.
func (c *Cache) MaxEntryBytes() int64 {
	if c == nil || c.maxBytes <= 0 {
		return 0
	}
	return c.maxBytes / 4
}

// Get returns the entry under key if present and still valid per the
// store's validator. A present-but-stale entry is removed and counted
// as an invalidation plus a miss.
func (c *Cache) Get(key string, valid func(GenVector) bool) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if valid != nil && c.admitted > 0 && 2*c.admitted >= c.lru.Len() {
		c.sweepLocked(valid)
	}
	el, ok := c.entries[key]
	if ok {
		ce := el.Value.(*cacheEntry)
		if valid != nil && valid(ce.e.vec) {
			c.lru.MoveToFront(el)
			c.hits++
			return ce.e, true
		}
		c.removeLocked(el)
		c.invalidations++
	}
	c.misses++
	return nil, false
}

// Put stores an entry computed against the store state vec describes.
// Entries above the per-entry admission bound are ignored.
func (c *Cache) Put(key string, e *Entry, vec GenVector) {
	if c == nil || c.maxEntries <= 0 || e == nil {
		return
	}
	e.vec = vec
	e.bytes = int64(len(key)) + 128
	if e.Snap != nil {
		e.bytes += e.Snap.Bytes()
	}
	if bound := c.MaxEntryBytes(); bound > 0 && e.bytes > bound {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.bytes -= el.Value.(*cacheEntry).e.bytes
		el.Value = &cacheEntry{key: key, e: e}
		c.bytes += e.bytes
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, e: e})
		c.bytes += e.bytes
		c.admitted++
	}
	c.evictLocked()
}

// Record publishes b as e's body in format f and charges its bytes to
// the cache, evicting from the LRU tail while over the byte bound. It
// keeps b only if e is still the entry under key, holds no body in f
// yet, and b fits the per-entry admission bound; it reports whether b
// was kept.
func (c *Cache) Record(key string, e *Entry, f Format, b *Body) bool {
	n := b.size()
	if bound := c.MaxEntryBytes(); bound > 0 && n > bound {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok || el.Value.(*cacheEntry).e != e || e.bodies[f].Load() != nil {
		return false
	}
	e.bodies[f].Store(b)
	e.bytes += n
	c.bytes += n
	c.evictLocked()
	return true
}

// evictLocked drops entries from the LRU tail while the cache is over
// either bound.
func (c *Cache) evictLocked() {
	for c.lru.Len() > c.maxEntries || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
	}
}

// sweepLocked drops every stale entry: two validations per admission,
// amortised.
func (c *Cache) sweepLocked(valid func(GenVector) bool) {
	c.admitted = 0
	for el := c.lru.Back(); el != nil; {
		prev := el.Prev()
		if !valid(el.Value.(*cacheEntry).e.vec) {
			c.removeLocked(el)
			c.invalidations++
		}
		el = prev
	}
}

func (c *Cache) removeLocked(el *list.Element) {
	ce := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, ce.key)
	c.bytes -= ce.e.bytes
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       len(c.entries),
		Bytes:         c.bytes,
	}
}
