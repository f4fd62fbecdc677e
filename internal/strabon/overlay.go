package strabon

import (
	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/stsparql"
)

// Overlay is the working copy of one ApplyFlush: the base stores as the
// flush found them — read-locked, never touched — plus everything the
// flush has done so far, held privately: the triples it added (its
// groups, then whatever the rules inserted) and the base triples the
// rules deleted. The rules evaluate over it and apply to it, each
// seeing the effect of those before; nobody else sees anything until
// the store commits the overlay's net effect (Effect) under its write
// lock(s). A flush that fails is simply dropped.
//
// It implements the engine's source interfaces like a View does, and
// stsparql.UpdatableSource on top — all but stsparql.TimeRangeSource:
// the rules take their windows from seed variables, which the planner
// cannot turn into index ranges, so a plan over an overlay visibly opens
// with a plain scan where the store's own would say scan[time-range].
type Overlay struct {
	base  View
	added *Store // private: no lock needed
	all   View   // base + added
	// addLog lists what was ever added, goneLog what was ever deleted
	// from the base, in order; Effect replays them so a commit is
	// deterministic. gone is the live deleted set.
	addLog  []rdf.EncodedTriple
	gone    map[rdf.Triple]struct{}
	goneLog []rdf.Triple
}

var _ stsparql.UpdatableSource = (*Overlay)(nil)
var _ stsparql.StatSource = (*Overlay)(nil)
var _ stsparql.SpatialSource = (*Overlay)(nil)

// NewOverlay starts a working copy over the read-locked base stores
// holding the flush's groups, and reports how many triples of each
// group the base did not already hold.
func NewOverlay(base View, groups [][]rdf.Triple) (*Overlay, []int) {
	o := &Overlay{base: base, added: NewWithCache(base[0].GeomCache()), gone: make(map[rdf.Triple]struct{})}
	o.all = append(append(View(nil), base...), o.added)
	var zero rdf.Term
	counts := make([]int, len(groups))
	for gi, g := range groups {
		// A subject the base has never seen — every hotspot of a new
		// product — cannot collide with it, so only triples of known
		// subjects are looked up one by one.
		known := make(map[rdf.Term]bool)
		for _, t := range g {
			k, seen := known[t.S]
			if !seen {
				k = base.CountPattern(t.S, zero, zero) > 0
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
func (o *Overlay) add(t rdf.Triple) bool {
	d := o.added.Dict()
	enc := rdf.EncodedTriple{S: d.Encode(t.S), P: d.Encode(t.P), O: d.Encode(t.O)}
	if !o.added.addEncoded(enc) {
		return false
	}
	o.addLog = append(o.addLog, enc)
	return true
}

func (o *Overlay) inBase(t rdf.Triple) bool { return o.base.CountPattern(t.S, t.P, t.O) > 0 }

// Effect is the flush's net effect on the base, in the order it came
// about: the base triples to remove and the triples to add.
func (o *Overlay) Effect() (deletes, inserts []rdf.Triple) {
	for _, t := range o.goneLog {
		if _, still := o.gone[t]; still {
			deletes = append(deletes, t)
			delete(o.gone, t)
		}
	}
	d := o.added.Dict()
	seen := make(map[rdf.EncodedTriple]struct{}, len(o.addLog))
	for _, enc := range o.addLog {
		if _, dup := seen[enc]; dup {
			continue
		}
		seen[enc] = struct{}{}
		o.added.MatchIDs(enc.S, enc.P, enc.O, func(rdf.EncodedTriple) bool {
			inserts = append(inserts, rdf.Triple{S: d.Decode(enc.S), P: d.Decode(enc.P), O: d.Decode(enc.O)})
			return false
		})
	}
	return deletes, inserts
}

// Add implements stsparql.UpdatableSource.
func (o *Overlay) Add(t rdf.Triple) bool {
	if _, was := o.gone[t]; was {
		delete(o.gone, t)
		return true
	}
	return !o.inBase(t) && o.add(t)
}

// Remove implements stsparql.UpdatableSource.
func (o *Overlay) Remove(t rdf.Triple) bool {
	if o.added.Remove(t) {
		return true
	}
	if _, was := o.gone[t]; was || !o.inBase(t) {
		return false
	}
	o.gone[t] = struct{}{}
	o.goneLog = append(o.goneLog, t)
	return true
}

// visible wraps a base visitor so it skips the triples the flush deleted.
func (o *Overlay) visible(visit func(rdf.Triple) bool) func(rdf.Triple) bool {
	if len(o.gone) == 0 {
		return visit
	}
	return func(t rdf.Triple) bool {
		if _, was := o.gone[t]; was {
			return true
		}
		return visit(t)
	}
}

// MatchTerms implements stsparql.Source. (A deleted base triple is
// never also an added one — re-adding it just undeletes it — so the
// filter can run over both.)
func (o *Overlay) MatchTerms(sub, pred, obj rdf.Term, visit func(rdf.Triple) bool) {
	o.all.MatchTerms(sub, pred, obj, o.visible(visit))
}

// MatchGeometryWindow implements stsparql.SpatialSource.
func (o *Overlay) MatchGeometryWindow(env geom.Envelope, visit func(rdf.Triple) bool) {
	o.all.MatchGeometryWindow(env, o.visible(visit))
}

// SpatialIndexEnabled implements stsparql.SpatialSource.
func (o *Overlay) SpatialIndexEnabled() bool { return o.base.SpatialIndexEnabled() }

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
