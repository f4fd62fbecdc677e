package strabon

import (
	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/stsparql"
)

// View is a composite triple source over several member stores,
// presented to the engine as a single stsparql Source / StatSource /
// SpatialSource / TimeRangeSource: the sharded store's static store plus
// some slices, or a flush's base stores (see Overlay). The members
// partition the data (nothing is replicated), so concatenating their
// scans and summing their statistics is exact. The caller holds every
// member's lock for the lifetime of the evaluation — the view itself
// calls only the unlocked stsparql interface methods.
//
// A View deliberately does NOT implement stsparql.IDSource: each member
// store owns its own dictionary, so one term maps to different IDs in
// different members and no single ID space covers the composite. The
// engine detects this and runs in local-dictionary mode — scan output
// is interned into an evaluation-local dictionary, preserving the
// ID-native operator pipeline at the cost of one intern per scanned
// term (see stsparql/iddict.go).
type View []*Store

var _ stsparql.StatSource = View{}
var _ stsparql.SpatialSource = View{}
var _ stsparql.TimeRangeSource = View{}

// MatchTerms implements stsparql.Source: member scans concatenate, with
// the visitor's early stop propagating across members.
func (v View) MatchTerms(sub, pred, obj rdf.Term, visit func(rdf.Triple) bool) {
	cont := true
	wrapped := func(t rdf.Triple) bool {
		cont = visit(t)
		return cont
	}
	for _, m := range v {
		if !cont {
			return
		}
		m.MatchTerms(sub, pred, obj, wrapped)
	}
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

// SpatialIndexEnabled implements stsparql.SpatialSource: the window
// path is available only when every member can serve it.
func (v View) SpatialIndexEnabled() bool {
	for _, m := range v {
		if !m.SpatialIndexEnabled() {
			return false
		}
	}
	return true
}

// MatchGeometryWindow implements stsparql.SpatialSource: every member's
// R-tree is searched, with early stop propagating.
func (v View) MatchGeometryWindow(env geom.Envelope, visit func(rdf.Triple) bool) {
	cont := true
	wrapped := func(t rdf.Triple) bool {
		cont = visit(t)
		return cont
	}
	for _, m := range v {
		if !cont {
			return
		}
		m.MatchGeometryWindow(env, wrapped)
	}
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

// MatchTimeRange implements stsparql.TimeRangeSource: member ranges
// concatenate, with early stop propagating.
func (v View) MatchTimeRange(p rdf.Term, w stsparql.TimeWindow, visit func(rdf.Triple) bool) {
	cont := true
	wrapped := func(t rdf.Triple) bool {
		cont = visit(t)
		return cont
	}
	for _, m := range v {
		if !cont {
			return
		}
		m.MatchTimeRange(p, w, wrapped)
	}
}
