package rdf

import (
	"sync"
	"sync/atomic"
)

// ID is a dense dictionary identifier for a term. 0 is reserved as the
// wildcard / "no term" sentinel so that pattern matching can use the zero
// value naturally.
type ID uint32

// Wildcard matches any term in pattern lookups.
const Wildcard ID = 0

// Dictionary maps terms to dense IDs and back. The mapping is append-only:
// terms are never garbage-collected, mirroring the dictionary columns of a
// column store. One dictionary serves a whole store topology — every
// member of a sharded store and every flush overlay encode into the same
// ID space — so it is read and appended to under DIFFERENT member locks
// at the same time, and synchronises itself.
//
// # Concurrency contract
//
//   - One appender at a time. Every Encode of a topology runs under its
//     writer mutex (strabon's and shard's writeMu: bulk loads, updates,
//     a flush from its read phase to its commit), whichever member lock
//     the caller holds besides. The dictionary's own mutex orders the
//     appender against readers of the key map; it does not make two
//     unserialised appenders a supported configuration.
//   - Any number of readers, beside the appender. Lookup takes the key
//     map's read lock; Decode, Len and ApproxBytes take none — terms
//     live in fixed-size chunks that are never moved, and the length is
//     published atomically after the term it counts.
//   - An ID observed under any member's read lock decodes forever, and
//     never changes meaning. Removing a triple does not remove its
//     terms, so prepared plans and ID-keyed operator state survive store
//     generations — they are invalidated for staleness of results, never
//     because an ID was reused. Neither does a failed flush: the terms
//     it interned stay behind, referenced by no triple.
//   - A reader may see the dictionary grow while it evaluates: a term
//     that missed a moment ago can hit now. An evaluation that must give
//     one term one ID throughout pins Len when it takes its locks and
//     treats later IDs as misses (stsparql's execDict does).
//
// TestDictionaryAppendOnly, TestDictionaryConcurrentReaders and
// FuzzDictionaryRoundTrip pin this contract.
type Dictionary struct {
	mu    sync.RWMutex // guards byKey
	byKey map[string]ID

	// chunks is the directory of term chunks; the term of ID i sits at
	// chunks[(i-1)>>dictChunkBits][(i-1)&dictChunkMask]. The appender
	// replaces the directory when it adds a chunk and stores n last, so
	// a reader that loads n first finds every term n counts.
	chunks atomic.Pointer[[]*dictChunk]
	n      atomic.Uint32

	// bytes approximates the retained heap footprint (key strings, which
	// hold the term values, and fixed per-entry overhead), maintained on
	// Encode so the /metrics dictionary gauges are O(1).
	bytes atomic.Int64
}

const (
	dictChunkBits = 10
	dictChunkMask = 1<<dictChunkBits - 1
)

type dictChunk [1 << dictChunkBits]Term

// dictEntryOverhead approximates the fixed per-entry cost: the Term in
// its chunk, the map key header and bucket slack, and the ID.
const dictEntryOverhead = 96

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	d := &Dictionary{byKey: make(map[string]ID)}
	d.chunks.Store(new([]*dictChunk))
	return d
}

// Encode interns a term, returning its ID (allocating one if new). Like
// Lookup it probes with a stack-built key: most terms of a bulk insert
// (predicates, classes, shared literals) are already interned, and only
// a new term pays for a key string and the map's write lock.
func (d *Dictionary) Encode(t Term) ID {
	var arr [256]byte
	b := t.appendKey(arr[:0])
	d.mu.RLock()
	id, ok := d.byKey[string(b)]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byKey[string(b)]; ok {
		return id
	}
	n := d.n.Load()
	dir := *d.chunks.Load()
	if int(n>>dictChunkBits) == len(dir) {
		grown := append(dir[:len(dir):len(dir)], new(dictChunk))
		d.chunks.Store(&grown)
		dir = grown
	}
	// The key ends with the value, so the stored term's value is the
	// key's suffix: a term's text is kept once.
	k := string(b)
	t.Value = k[len(k)-len(t.Value):]
	dir[n>>dictChunkBits][n&dictChunkMask] = t
	d.n.Store(n + 1)
	d.byKey[k] = ID(n + 1)
	d.bytes.Add(int64(len(k) + dictEntryOverhead))
	return ID(n + 1)
}

// Lookup returns the ID for a term without interning; ok is false when the
// term has never been seen. The probe key is built in a stack buffer —
// bind joins call Lookup per probe row, so this path must not allocate
// for ordinary-sized terms.
func (d *Dictionary) Lookup(t Term) (ID, bool) {
	var arr [256]byte
	b := t.appendKey(arr[:0])
	d.mu.RLock()
	id, ok := d.byKey[string(b)]
	d.mu.RUnlock()
	return id, ok
}

// Decode returns the term for an ID. Decoding the wildcard or an unknown
// ID returns the zero Term.
func (d *Dictionary) Decode(id ID) Term {
	if id == 0 || uint32(id) > d.n.Load() {
		return Term{}
	}
	i := uint32(id - 1)
	return (*d.chunks.Load())[i>>dictChunkBits][i&dictChunkMask]
}

// EncodeTriple interns the three terms of a triple.
func (d *Dictionary) EncodeTriple(t Triple) EncodedTriple {
	return EncodedTriple{S: d.Encode(t.S), P: d.Encode(t.P), O: d.Encode(t.O)}
}

// EncodeTriples interns a slice of triples.
func (d *Dictionary) EncodeTriples(ts []Triple) []EncodedTriple {
	out := make([]EncodedTriple, len(ts))
	for i, t := range ts {
		out[i] = d.EncodeTriple(t)
	}
	return out
}

// LookupTriple encodes a triple without interning; ok is false when one
// of its terms has never been seen, so no store can hold it.
func (d *Dictionary) LookupTriple(t Triple) (enc EncodedTriple, ok bool) {
	if enc.S, ok = d.Lookup(t.S); !ok {
		return enc, false
	}
	if enc.P, ok = d.Lookup(t.P); !ok {
		return enc, false
	}
	enc.O, ok = d.Lookup(t.O)
	return enc, ok
}

// Len reports the number of interned terms.
func (d *Dictionary) Len() int { return int(d.n.Load()) }

// ApproxBytes reports the approximate retained heap footprint of the
// dictionary: interned key strings (a term's value is its key's suffix)
// plus fixed per-entry overhead.
func (d *Dictionary) ApproxBytes() int { return int(d.bytes.Load()) }
