package strabon

import (
	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/stsparql"
)

// Overlay is the working copy of one ApplyFlush: the base members as the
// flush found them — read-locked, never touched — plus everything the
// flush has done so far, held privately: the triples it added (its
// groups, then whatever the rules inserted) and the base triples the
// rules deleted. The rules evaluate over it and apply to it, each
// seeing the effect of those before; nobody else sees anything until
// the store commits the overlay's net effect (Effect) under its write
// lock(s).
//
// The overlay lives in the base's ID space: its private store is one
// more member over the same dictionary, so what it hands the commit is
// already encoded. A flush that fails is simply dropped — its triples
// with it; the terms it interned stay in the append-only dictionary,
// referenced by nothing.
//
// It implements the engine's source interfaces like a View does, and
// stsparql.UpdatableSource on top. Its time ranges are the base's minus
// what the flush deleted, then the private store's: a rule windowed by
// its seed variables reads the window's hour through the time indexes,
// not the hotspot history.
type Overlay struct {
	base  View
	added *member // private: no lock needed
	all   View    // base + added
	// addLog lists what was ever added, goneLog what was ever deleted
	// from the base, in order; Effect replays them so a commit is
	// deterministic. gone is the live deleted set, masked out of every
	// scan.
	addLog  []rdf.EncodedTriple
	gone    map[rdf.EncodedTriple]struct{}
	goneLog []rdf.EncodedTriple
}

var _ stsparql.UpdatableSource = (*Overlay)(nil)
var _ stsparql.StatSource = (*Overlay)(nil)
var _ stsparql.SpatialSource = (*Overlay)(nil)
var _ stsparql.TimeRangeSource = (*Overlay)(nil)

// newOverlay starts a working copy over the read-locked base members
// holding the flush's groups (encoded in the base's dictionary), and
// reports how many triples of each group the base did not already hold.
func newOverlay(base View, groups [][]rdf.EncodedTriple) (*Overlay, []int) {
	o := &Overlay{base: base, added: newMember(base.Dict()), gone: make(map[rdf.EncodedTriple]struct{})}
	o.all = append(append(View(nil), base...), o.added)
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

// Dict implements stsparql.Source.
func (o *Overlay) Dict() *rdf.Dictionary { return o.base.Dict() }

// Add implements stsparql.UpdatableSource.
func (o *Overlay) Add(t rdf.Triple) bool {
	enc := o.Dict().EncodeTriple(t)
	if _, was := o.gone[enc]; was {
		delete(o.gone, enc)
		return true
	}
	return !o.inBase(enc) && o.add(enc)
}

// Remove implements stsparql.UpdatableSource.
func (o *Overlay) Remove(t rdf.Triple) bool {
	enc, ok := o.Dict().LookupTriple(t)
	if !ok {
		return false
	}
	if o.added.RemoveEncoded(enc) {
		return true
	}
	if _, was := o.gone[enc]; was || !o.inBase(enc) {
		return false
	}
	o.gone[enc] = struct{}{}
	o.goneLog = append(o.goneLog, enc)
	return true
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
// also an added one — re-adding it just undeletes it — so the filter
// can run over both.)
func (o *Overlay) MatchIDs(sub, pred, obj rdf.ID, visit func(rdf.EncodedTriple) bool) bool {
	return o.all.MatchIDs(sub, pred, obj, o.visible(visit))
}

// MatchGeometryWindowIDs implements stsparql.SpatialSource.
func (o *Overlay) MatchGeometryWindowIDs(env geom.Envelope, visit func(rdf.EncodedTriple) bool) bool {
	return o.all.MatchGeometryWindowIDs(env, o.visible(visit))
}

// SubjectSets implements stsparql.SpatialSource: the base's sets and the
// private store's. A subject whose (p, o) the flush deleted stays in
// them — the sets only need to be a superset.
func (o *Overlay) SubjectSets(p, obj rdf.ID, dst []rdf.IDSet) []rdf.IDSet {
	return o.all.SubjectSets(p, obj, dst)
}

// CountTimeRange implements stsparql.TimeRangeSource. Like the
// statistics it ignores the deleted set: an upper bound.
func (o *Overlay) CountTimeRange(p rdf.Term, w stsparql.TimeWindow) (int, bool) {
	return o.all.CountTimeRange(p, w)
}

// MatchTimeRangeIDs implements stsparql.TimeRangeSource.
func (o *Overlay) MatchTimeRangeIDs(p rdf.ID, w stsparql.TimeWindow, visit func(rdf.EncodedTriple) bool) bool {
	return o.all.MatchTimeRangeIDs(p, w, o.visible(visit))
}

// The statistics ignore the deleted set: they rank join orders and
// never affect results.

// CountPattern implements stsparql.StatSource.
func (o *Overlay) CountPattern(sub, pred, obj rdf.Term) int {
	return o.all.CountPattern(sub, pred, obj)
}

// PredicateCard implements stsparql.StatSource.
func (o *Overlay) PredicateCard(pred rdf.Term) (triples, distinctS, distinctO int) {
	return o.all.PredicateCard(pred)
}

// StoreCard implements stsparql.StatSource.
func (o *Overlay) StoreCard() (triples, subjects, predicates, objects int) {
	return o.all.StoreCard()
}
