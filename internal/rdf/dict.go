package rdf

// ID is a dense dictionary identifier for a term. 0 is reserved as the
// wildcard / "no term" sentinel so that pattern matching can use the zero
// value naturally.
type ID uint32

// Wildcard matches any term in pattern lookups.
const Wildcard ID = 0

// Dictionary maps terms to dense IDs and back. The mapping is append-only:
// terms are never garbage-collected, mirroring the dictionary columns of a
// column store.
//
// # Concurrency contract
//
// A Dictionary is not internally synchronised; it relies on the owning
// store's lock discipline (see strabon's package comment):
//
//   - Encode appends — it may grow both the key map and the term slice,
//     so it must only run under the owning store's WRITE lock (every
//     mutation path: Add, AddEncoded via Store.Add, bulk loads).
//   - Lookup and Decode never mutate. Because the mapping is append-only
//     and IDs are dense, any ID observed under a read lock stays valid
//     for the lifetime of the dictionary: readers may hold decoded IDs
//     across their whole evaluation and decode them lock-free relative
//     to each other (the store read lock excludes writers; concurrent
//     read-locked evaluations share the dictionary without coordination).
//   - An ID never changes meaning. Removing a triple does not remove its
//     terms, so cached plans and ID-keyed operator state survive store
//     generations — they are invalidated for staleness of results, never
//     because an ID was reused.
//
// TestDictionaryAppendOnly and FuzzDictionaryRoundTrip pin this contract.
type Dictionary struct {
	byKey map[string]ID
	terms []Term // terms[i-1] holds the term for ID i

	// bytes approximates the retained heap footprint (term strings, key
	// strings and fixed per-entry overhead), maintained on Encode so the
	// /metrics dictionary gauges are O(1).
	bytes int
}

// dictEntryOverhead approximates the fixed per-entry cost: the Term in
// the slice, the map key header and bucket slack, and the ID.
const dictEntryOverhead = 96

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{byKey: make(map[string]ID)}
}

// Encode interns a term, returning its ID (allocating one if new). Write
// lock only; see the concurrency contract above. Like Lookup it probes
// with a stack-built key: most terms of a bulk insert (predicates,
// classes, shared literals) are already interned, and only a new term
// pays for a key string.
func (d *Dictionary) Encode(t Term) ID {
	var arr [256]byte
	b := t.appendKey(arr[:0])
	if id, ok := d.byKey[string(b)]; ok {
		return id
	}
	k := string(b)
	d.terms = append(d.terms, t)
	id := ID(len(d.terms))
	d.byKey[k] = id
	d.bytes += len(k) + len(t.Value) + len(t.Datatype) + len(t.Lang) + dictEntryOverhead
	return id
}

// Lookup returns the ID for a term without interning; ok is false when the
// term has never been seen. The probe key is built in a stack buffer —
// bind joins call Lookup per probe row, so this path must not allocate
// for ordinary-sized terms.
func (d *Dictionary) Lookup(t Term) (ID, bool) {
	var arr [256]byte
	id, ok := d.byKey[string(t.appendKey(arr[:0]))]
	return id, ok
}

// Decode returns the term for an ID. Decoding the wildcard or an unknown
// ID returns the zero Term.
func (d *Dictionary) Decode(id ID) Term {
	if id == 0 || int(id) > len(d.terms) {
		return Term{}
	}
	return d.terms[id-1]
}

// Len reports the number of interned terms.
func (d *Dictionary) Len() int { return len(d.terms) }

// ApproxBytes reports the approximate retained heap footprint of the
// dictionary: interned term and key strings plus fixed per-entry
// overhead. Like Len it reads under whatever lock the caller holds.
func (d *Dictionary) ApproxBytes() int { return d.bytes }
