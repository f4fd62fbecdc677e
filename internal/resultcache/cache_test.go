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
