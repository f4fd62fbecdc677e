package resultcache

import (
	"fmt"
	"testing"

	"repro/internal/stsparql"
)

func snapOf(rows int) *stsparql.RowSnapshot {
	s := stsparql.NewRowSnapshot([]string{"x"})
	for i := 0; i < rows; i++ {
		s.Append(stsparql.Row{{}})
	}
	return s
}

func vec(gen uint64) GenVector {
	return GenVector{Gens: []SliceGen{{Slice: -1, Gen: gen}}}
}

func always(GenVector) bool { return true }

func TestCacheHitMissEvict(t *testing.T) {
	c := New(2, 0)
	if _, ok := c.Get("a", always); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", &Entry{Snap: snapOf(1)}, vec(1))
	c.Put("b", &Entry{Snap: snapOf(1)}, vec(1))
	if _, ok := c.Get("a", always); !ok {
		t.Fatal("miss after put")
	}
	// a is now most recently used; inserting c evicts b.
	c.Put("c", &Entry{Snap: snapOf(1)}, vec(1))
	if _, ok := c.Get("b", always); ok {
		t.Fatal("LRU kept the least recently used entry")
	}
	if _, ok := c.Get("a", always); !ok {
		t.Fatal("LRU evicted the recently used entry")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCacheStaleEntryInvalidates(t *testing.T) {
	c := New(4, 0)
	gen := uint64(1)
	valid := func(v GenVector) bool { return v.Gens[0].Gen == gen }
	c.Put("q", &Entry{Snap: snapOf(1)}, vec(1))
	if _, ok := c.Get("q", valid); !ok {
		t.Fatal("fresh entry missed")
	}
	gen = 2 // the store mutated
	if _, ok := c.Get("q", valid); ok {
		t.Fatal("stale entry served")
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Entries != 0 {
		t.Fatalf("stats after invalidation: %+v", st)
	}
	// The key is free again for the new generation.
	c.Put("q", &Entry{Snap: snapOf(1)}, vec(2))
	if _, ok := c.Get("q", valid); !ok {
		t.Fatal("re-cached entry missed")
	}
}

func TestCacheByteBound(t *testing.T) {
	c := New(100, 4096)
	if c.MaxEntryBytes() != 1024 {
		t.Fatalf("MaxEntryBytes = %d", c.MaxEntryBytes())
	}
	// Oversized entries are refused outright.
	c.Put("big", &Entry{Snap: snapOf(100)}, vec(1))
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("oversized entry admitted: %+v", st)
	}
	// Small entries evict older ones once the byte budget fills.
	for i := 0; i < 40; i++ {
		c.Put(fmt.Sprintf("q%d", i), &Entry{Snap: snapOf(2)}, vec(1))
	}
	st := c.Stats()
	if st.Bytes > 4096 {
		t.Fatalf("byte budget exceeded: %+v", st)
	}
	if st.Entries == 0 || st.Evictions == 0 {
		t.Fatalf("expected byte-bound evictions: %+v", st)
	}
}

func TestCacheNilSafe(t *testing.T) {
	var c *Cache
	c.Put("q", &Entry{Snap: snapOf(1)}, vec(1))
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("nil cache stats: %+v", st)
	}
	if c.MaxEntryBytes() != 0 {
		t.Fatal("nil cache MaxEntryBytes")
	}
}

// TestCacheSweepsStaleEntries: results of texts nobody asks again are
// not left to the LRU once their generation has passed — once half of
// what the cache holds is new, the next Get drops every stale entry and
// keeps the rest.
func TestCacheSweepsStaleEntries(t *testing.T) {
	c := New(64, 0)
	live := uint64(1)
	valid := func(v GenVector) bool { return v.Gens[0].Gen >= live }
	for i := 0; i < 8; i++ {
		c.Get(fmt.Sprintf("old%d", i), valid)
		c.Put(fmt.Sprintf("old%d", i), &Entry{Snap: snapOf(1)}, vec(1))
	}
	live = 2 // the store mutated: all eight are dead, none is asked again
	for i := 0; i < 8; i++ {
		c.Get(fmt.Sprintf("new%d", i), valid)
		c.Put(fmt.Sprintf("new%d", i), &Entry{Snap: snapOf(1)}, vec(2))
	}
	c.Get("another", valid)
	if st := c.Stats(); st.Entries != 8 || st.Invalidations != 8 {
		t.Fatalf("after the sweep: %+v, want the 8 live entries and 8 invalidations", st)
	}
	for i := 0; i < 8; i++ {
		if _, ok := c.Get(fmt.Sprintf("new%d", i), valid); !ok {
			t.Fatalf("the sweep dropped live entry new%d", i)
		}
	}
}

func bodyOf(n int) *Body { return &Body{Bytes: make([]byte, n), Ends: []int{n}} }

// plainBytes is what one single-row entry under a one-letter key costs.
func plainBytes() int64 {
	c := New(1, 0)
	c.Put("k", &Entry{Snap: snapOf(1)}, vec(1))
	return c.Stats().Bytes
}

// TestCacheChargesRecordedBodies: a recorded body is charged when it is
// recorded and released with its entry — on eviction, invalidation,
// sweep and replacement by Put — so Stats.Bytes is back at 0 once the
// cache is empty.
func TestCacheChargesRecordedBodies(t *testing.T) {
	plain := plainBytes()
	live := uint64(1)
	valid := func(v GenVector) bool { return v.Gens[0].Gen >= live }
	c := New(2, 0)
	put := func(key string) *Entry {
		e := &Entry{Snap: snapOf(1)}
		c.Put(key, e, vec(live))
		return e
	}
	record := func(key string, e *Entry) {
		t.Helper()
		for _, f := range []Format{JSON, TSV} {
			before, b := c.Stats().Bytes, bodyOf(100+int(f))
			if !c.Record(key, e, f, b) || e.Body(f) != b {
				t.Fatalf("%s: body in format %d not kept", key, f)
			}
			if got := c.Stats().Bytes - before; got != b.size() {
				t.Fatalf("%s: recording charged %d bytes, want %d", key, got, b.size())
			}
		}
	}
	wantBytes := func(step string, want int64) {
		t.Helper()
		if got := c.Stats().Bytes; got != want {
			t.Fatalf("after %s: Stats.Bytes = %d, want %d", step, got, want)
		}
	}

	record("a", put("a"))
	put("b")
	put("c") // the entry bound evicts a, bodies and all
	wantBytes("eviction", 2*plain)

	record("b", mustGet(t, c, "b", valid))
	record("c", mustGet(t, c, "c", valid))
	c.Put("b", &Entry{Snap: snapOf(1)}, vec(live)) // replaces b's entry
	wantBytes("replacement", 2*plain+bodyOf(100).size()+bodyOf(101).size())

	live = 2
	c.Get("c", valid) // stale: dropped with its bodies
	wantBytes("invalidation", plain)

	c = New(8, 0)
	live = 1
	record("x", put("x"))
	live = 2
	c.Get("y", valid) // two admissions, one entry: sweeps x
	wantBytes("sweep", 0)
	if st := c.Stats(); st.Entries != 0 || st.Invalidations != 1 {
		t.Fatalf("sweep: %+v", st)
	}
}

// mustGet returns the live entry under key.
func mustGet(t *testing.T, c *Cache, key string, valid func(GenVector) bool) *Entry {
	t.Helper()
	e, ok := c.Get(key, valid)
	if !ok {
		t.Fatalf("%s: no live entry", key)
	}
	return e
}

// TestCacheRecordRefuses: a body is kept only on the live entry under
// its key, once per format, and within the per-entry bound; a refused
// body is neither published nor charged.
func TestCacheRecordRefuses(t *testing.T) {
	c := New(4, 4096)
	old := &Entry{Snap: snapOf(1)}
	c.Put("q", old, vec(1))
	cur := &Entry{Snap: snapOf(1)}
	c.Put("q", cur, vec(1)) // old is no longer under q
	gone := &Entry{Snap: snapOf(1)}
	c.Put("g", gone, vec(2))
	c.Get("g", func(v GenVector) bool { return v.Gens[0].Gen == 1 }) // invalidates g
	base := c.Stats().Bytes

	for _, tc := range []struct {
		name string
		key  string
		e    *Entry
		b    *Body
	}{
		{"replaced entry", "q", old, bodyOf(10)},
		{"invalidated entry", "g", gone, bodyOf(10)},
		{"above MaxEntryBytes", "q", cur, bodyOf(int(c.MaxEntryBytes()))},
	} {
		if c.Record(tc.key, tc.e, JSON, tc.b) || tc.e.Body(JSON) != nil {
			t.Fatalf("%s: body kept", tc.name)
		}
		if got := c.Stats().Bytes; got != base {
			t.Fatalf("%s: Stats.Bytes %d, want %d", tc.name, got, base)
		}
	}

	first := bodyOf(10)
	if !c.Record("q", cur, JSON, first) {
		t.Fatal("first body refused")
	}
	if c.Record("q", cur, JSON, bodyOf(10)) || cur.Body(JSON) != first {
		t.Fatal("a second body replaced the first")
	}
	if got, want := c.Stats().Bytes, base+first.size(); got != want {
		t.Fatalf("Stats.Bytes %d, want %d", got, want)
	}
}

// TestCacheRecordEvicts: a recorded body counts against the byte bound
// like the entries do — recording past it evicts from the LRU tail.
func TestCacheRecordEvicts(t *testing.T) {
	c := New(8, 2048)
	for _, k := range []string{"a", "b", "c"} {
		c.Put(k, &Entry{Snap: snapOf(1)}, vec(1))
	}
	for _, k := range []string{"c", "b"} {
		e := mustGet(t, c, k, always)
		if !c.Record(k, e, TSV, bodyOf(400)) || !c.Record(k, e, JSON, bodyOf(400)) {
			t.Fatalf("%s: bodies within the per-entry bound refused", k)
		}
		if st := c.Stats(); st.Bytes > 2048 {
			t.Fatalf("recording past the byte bound: %+v", st)
		}
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no eviction: %+v", st)
	}
	if _, ok := c.Get("a", always); ok {
		t.Fatal("the least recently used entry survived")
	}
}
