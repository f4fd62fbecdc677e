package stsparql

import (
	"encoding/binary"

	"repro/internal/rdf"
)

// ID-native execution: batches carry fixed-width term IDs, not rdf.Term
// structs, and terms materialise late — at the cursor row views, ORDER
// BY comparators and aggregate evaluation.
// The execDict is the per-evaluation codec behind that: it resolves the
// engine's uint64 IDs to terms and interns terms the evaluation computes
// itself (projection expressions, constants, sub-select solutions).
//
// Every source exposes the append-only rdf.Dictionary its triples are
// encoded in — one per store topology, shared by the members of a
// sharded store and by a flush's overlay — so scans emit store IDs
// straight from the index visitors and the hot path never touches a
// term. Terms no triple carries intern into an evaluation-local
// overflow table whose IDs start above the 32-bit store range. encode
// is canonical — store dictionary first — so within one evaluation ID
// equality coincides exactly with term equality.
//
// The dictionary may grow while an evaluation runs: a flush into
// another slice interns under locks this evaluation does not hold. A
// term the evaluation computed before that append sits in the overflow
// table, and would resolve to the new store ID after it — one term, two
// IDs, and DISTINCT, GROUP BY, joins and update dedup keys silently
// split. The evaluation therefore pins the dictionary's length when it
// starts (pin; the caller has taken its locks by then) and treats store
// IDs above the mark as misses. Nothing it scans can carry one: a
// triple of a locked member was encoded before that member's lock was
// released to this reader.
//
// IDs below overflowBase are stable for the life of the store;
// overflow IDs are private to one evaluator.

// termID is the engine's native value currency: a dictionary ID widened
// to 64 bits so evaluation-local overflow IDs can sit above the store
// range. 0 is the unbound sentinel, exactly as the zero Term was.
type termID uint64

// overflowBase is the first evaluation-local ID: store IDs are 32-bit,
// so anything at or above this never collides with a scan emission.
const overflowBase termID = 1 << 32

// execDict is one evaluator's term codec. It is single-goroutine, like
// the Evaluator owning it.
type execDict struct {
	store *rdf.Dictionary
	mark  rdf.ID              // store IDs above it postdate the evaluation
	over  []rdf.Term          // overflow terms; over[i] has ID overflowBase+i
	ids   map[rdf.Term]termID // term → overflow ID (terms are comparable)
}

// pin marks the start of one evaluation: store IDs interned from now on
// are invisible to it.
func (d *execDict) pin() { d.mark = rdf.ID(d.store.Len()) }

// encode interns a term, canonicalising store-dictionary-first so equal
// terms always map to equal IDs within the evaluation.
func (d *execDict) encode(t rdf.Term) termID {
	if t.IsZero() {
		return 0
	}
	if id, ok := d.storeID(t); ok {
		return termID(id)
	}
	if id, ok := d.ids[t]; ok {
		return id
	}
	id := overflowBase + termID(len(d.over))
	d.over = append(d.over, t)
	if d.ids == nil {
		d.ids = make(map[rdf.Term]termID)
	}
	d.ids[t] = id
	return id
}

// decode returns the term for an ID; 0 decodes to the zero (unbound)
// term.
func (d *execDict) decode(id termID) rdf.Term {
	if id == 0 {
		return rdf.Term{}
	}
	if id < overflowBase {
		return d.store.Decode(rdf.ID(id))
	}
	return d.over[id-overflowBase]
}

// intern returns the store ID of one of the evaluation's IDs, interning
// an overflow term into the store dictionary — what applying a plan's
// inserts does, with the store's appenders serialised.
func (d *execDict) intern(id termID) rdf.ID {
	if id < overflowBase {
		return rdf.ID(id)
	}
	return d.store.Encode(d.over[id-overflowBase])
}

// storeID resolves a term against the store dictionary as of the pin —
// also the scan path's constant resolution. ok=false means no triple
// this evaluation can see carries the term, so a pattern bound to it
// matches nothing.
func (d *execDict) storeID(t rdf.Term) (rdf.ID, bool) {
	id, ok := d.store.Lookup(t)
	return id, ok && id <= d.mark
}

// appendIDKey appends the fixed-width encoding of one ID to a composite
// key buffer — hash join, DISTINCT and grouping keys (8 bytes per
// variable, unbound = 0).
func appendIDKey(dst []byte, id termID) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(id))
}
