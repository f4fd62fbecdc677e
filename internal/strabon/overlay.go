package strabon

import (
	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/stsparql"
)

// Overlay is the working copy of one write transaction with rules — an
// ApplyFlush, or an Update: the base members as the write found them —
// read-locked, never touched — plus everything it has done so far, held
// privately: the triples it added (its groups, then whatever the rules
// inserted) and the base triples the rules deleted. The rules evaluate
// over it and apply to it, each seeing the effect of those before;
// nobody else sees anything until the store commits the overlay's net
// effect (Effect) under the write locks of the members it touches.
//
// The overlay lives in the base's ID space: its private store is one
// more member over the same dictionary, so what it hands the commit is
// already encoded. A write whose rules fail is simply dropped — its
// triples with it; the terms it interned stay in the append-only
// dictionary, referenced by nothing.
//
// It is the View of the base members plus the private one, with the
// three scans — MatchIDs, MatchGeometryWindowIDs, MatchTimeRangeIDs —
// masking what the rules deleted. Its time ranges are the base's minus
// what the rules deleted, then the private store's: a rule windowed by
// its seed variables reads the window's hour through the time indexes,
// not the hotspot history. The rest of the View — statistics, subject
// sets, window skips, time-range counts — ignores the deleted set: an
// upper bound, which ranks join orders and narrows windows but never
// affects results (a member holding only deleted triples is searched,
// and the mask drops what it finds).
type Overlay struct {
	View  // base + added
	base  View
	added *member // private: no lock needed
	// addLog lists what was ever added, goneLog what was ever deleted
	// from the base, in order; Effect replays them so a commit is
	// deterministic. gone is the live deleted set, masked out of every
	// scan.
	addLog  []rdf.EncodedTriple
	gone    map[rdf.EncodedTriple]struct{}
	goneLog []rdf.EncodedTriple
}

var _ stsparql.SpatialSource = (*Overlay)(nil)
var _ stsparql.TimeRangeSource = (*Overlay)(nil)

// newOverlay starts a working copy over the read-locked base members
// holding the flush's groups (encoded in the base's dictionary), its
// private store indexing geometries through the store's table geoms,
// and reports how many triples of each group the base did not already
// hold.
func newOverlay(base View, geoms *stsparql.Cache, groups [][]rdf.EncodedTriple) (*Overlay, []int) {
	o := &Overlay{base: base, added: newMember(base.Dict(), geoms), gone: make(map[rdf.EncodedTriple]struct{})}
	o.View = append(append(View(nil), base...), o.added)
	counts := make([]int, len(groups))
	for gi, g := range groups {
		// A subject the base has never seen — every hotspot of a new
		// product — cannot collide with it, so only triples of known
		// subjects are looked up one by one.
		known := make(map[rdf.ID]bool)
		for _, t := range g {
			k, seen := known[t.S]
			if !seen {
				k = base.CountIDs(t.S, rdf.Wildcard, rdf.Wildcard) > 0
				known[t.S] = k
			}
			if (!k || !o.inBase(t)) && o.add(t) {
				counts[gi]++
			}
		}
	}
	return o, counts
}

// add puts a triple the base does not hold into the private store.
func (o *Overlay) add(t rdf.EncodedTriple) bool {
	if !o.added.addEncoded(t) {
		return false
	}
	o.addLog = append(o.addLog, t)
	return true
}

func (o *Overlay) inBase(t rdf.EncodedTriple) bool { return o.base.CountIDs(t.S, t.P, t.O) > 0 }

// Effect is the flush's net effect on the base, in the order it came
// about: the base triples to remove and the triples to add.
func (o *Overlay) Effect() (deletes, inserts []rdf.EncodedTriple) {
	for _, t := range o.goneLog {
		if _, still := o.gone[t]; still {
			deletes = append(deletes, t)
			delete(o.gone, t)
		}
	}
	seen := make(map[rdf.EncodedTriple]struct{}, len(o.addLog))
	for _, t := range o.addLog {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		if o.added.CountIDs(t.S, t.P, t.O) > 0 {
			inserts = append(inserts, t)
		}
	}
	return deletes, inserts
}

// apply applies a computed plan in store IDs: deletes, then inserts.
// Deleting drops a triple the overlay added and masks a base triple;
// inserting unmasks a deleted triple and adds one the base lacks.
func (o *Overlay) apply(plan *stsparql.UpdatePlan) stsparql.UpdateStats {
	st := stsparql.UpdateStats{Matched: plan.Matched}
	for _, t := range plan.DeleteIDs() {
		if o.added.RemoveEncoded(t) {
			st.Deleted++
		} else if _, was := o.gone[t]; !was && o.inBase(t) {
			o.gone[t] = struct{}{}
			o.goneLog = append(o.goneLog, t)
			st.Deleted++
		}
	}
	for _, t := range plan.InsertIDs() {
		if _, was := o.gone[t]; was {
			delete(o.gone, t)
			st.Inserted++
		} else if !o.inBase(t) && o.add(t) {
			st.Inserted++
		}
	}
	return st
}

// visible wraps a base visitor so it skips the triples the flush deleted.
func (o *Overlay) visible(visit func(rdf.EncodedTriple) bool) func(rdf.EncodedTriple) bool {
	if len(o.gone) == 0 {
		return visit
	}
	return func(t rdf.EncodedTriple) bool {
		if _, was := o.gone[t]; was {
			return true
		}
		return visit(t)
	}
}

// MatchIDs implements stsparql.Source. (A deleted base triple is never
// also an added one — re-adding it just undeletes it — so the mask can
// run over both.)
func (o *Overlay) MatchIDs(sub, pred, obj rdf.ID, visit func(rdf.EncodedTriple) bool) bool {
	return o.View.MatchIDs(sub, pred, obj, o.visible(visit))
}

// MatchGeometryWindowIDs implements stsparql.SpatialSource.
func (o *Overlay) MatchGeometryWindowIDs(env geom.Envelope, skip uint64, visit func(rdf.EncodedTriple) bool) bool {
	return o.View.MatchGeometryWindowIDs(env, skip, o.visible(visit))
}

// MatchTimeRangeIDs implements stsparql.TimeRangeSource.
func (o *Overlay) MatchTimeRangeIDs(p rdf.ID, w stsparql.TimeWindow, visit func(rdf.EncodedTriple) bool) bool {
	return o.View.MatchTimeRangeIDs(p, w, o.visible(visit))
}
