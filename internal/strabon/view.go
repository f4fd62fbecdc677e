package strabon

import (
	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/stsparql"
)

// View is a composite triple source over several members of one Store,
// presented to the engine as a single stsparql Source / StatSource /
// SpatialSource / TimeRangeSource: the static store plus some slices, or
// a flush's base members (see Overlay). The members were built over one
// dictionary (newMember), so their scans emit IDs of one space, and they partition the data
// (nothing is replicated), so concatenating their scans and summing
// their statistics is exact. The caller holds every member's lock for
// the lifetime of the evaluation — the view itself calls only the
// unlocked stsparql interface methods.
type View []*member

var _ stsparql.StatSource = View{}
var _ stsparql.SpatialSource = View{}
var _ stsparql.TimeRangeSource = View{}

// Dict implements stsparql.Source: the members' shared dictionary.
func (v View) Dict() *rdf.Dictionary { return v[0].Dict() }

// MatchIDs implements stsparql.Source: member scans concatenate, and a
// scan the visitor stopped stops the rest.
func (v View) MatchIDs(sub, pred, obj rdf.ID, visit func(rdf.EncodedTriple) bool) bool {
	for _, m := range v {
		if !m.MatchIDs(sub, pred, obj, visit) {
			return false
		}
	}
	return true
}

// CountPattern implements stsparql.StatSource (exact: members are
// disjoint).
func (v View) CountPattern(sub, pred, obj rdf.Term) int {
	n := 0
	for _, m := range v {
		n += m.CountPattern(sub, pred, obj)
	}
	return n
}

// CountIDs is CountPattern for an already-encoded pattern.
func (v View) CountIDs(sub, pred, obj rdf.ID) int {
	n := 0
	for _, m := range v {
		n += m.CountIDs(sub, pred, obj)
	}
	return n
}

// PredicateCard implements stsparql.StatSource. The distinct counts sum
// member-wise — an overestimate when a subject or object spans members,
// which only skews estimates, never results.
func (v View) PredicateCard(pred rdf.Term) (triples, distinctS, distinctO int) {
	for _, m := range v {
		t, ds, do := m.PredicateCard(pred)
		triples += t
		distinctS += ds
		distinctO += do
	}
	return
}

// StoreCard implements stsparql.StatSource.
func (v View) StoreCard() (triples, subjects, predicates, objects int) {
	for _, m := range v {
		t, s2, p2, o2 := m.StoreCard()
		triples += t
		subjects += s2
		predicates += p2
		objects += o2
	}
	return
}

// MatchGeometryWindowIDs implements stsparql.SpatialSource: every
// member's R-tree is searched, with early stop propagating.
func (v View) MatchGeometryWindowIDs(env geom.Envelope, visit func(rdf.EncodedTriple) bool) bool {
	for _, m := range v {
		if !m.MatchGeometryWindowIDs(env, visit) {
			return false
		}
	}
	return true
}

// SubjectSets implements stsparql.SpatialSource: every member's sets, so
// a subject typed in one member and located in another still passes.
func (v View) SubjectSets(p, o rdf.ID, dst []rdf.IDSet) []rdf.IDSet {
	for _, m := range v {
		dst = m.SubjectSets(p, o, dst)
	}
	return dst
}

// CountTimeRange implements stsparql.TimeRangeSource: the view serves a
// time range when every member does, and the counts add up.
func (v View) CountTimeRange(p rdf.Term, w stsparql.TimeWindow) (int, bool) {
	total := 0
	for _, m := range v {
		n, ok := m.CountTimeRange(p, w)
		if !ok {
			return 0, false
		}
		total += n
	}
	return total, true
}

// MatchTimeRangeIDs implements stsparql.TimeRangeSource: member ranges
// concatenate, with early stop propagating.
func (v View) MatchTimeRangeIDs(p rdf.ID, w stsparql.TimeWindow, visit func(rdf.EncodedTriple) bool) bool {
	for _, m := range v {
		if !m.MatchTimeRangeIDs(p, w, visit) {
			return false
		}
	}
	return true
}

// view returns the composite source of one slice evaluation: the static
// store plus that slice.
func (s *Store) view(idx int) View { return View{s.static, s.slices[idx]} }

// viewAll returns the union view over every member.
func (s *Store) viewAll() View { return s.members }
