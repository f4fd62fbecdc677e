package strabon

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/rtree"
	"repro/internal/stsparql"
)

// member is one partition of a Store — its static store, one of its
// time slices, or a flush's private overlay store: the triple indexes,
// the R-tree over strdf:hasGeometry objects and the time index over
// xsd:dateTime objects, under one RWMutex. The R-tree holds one entry
// per geometry triple, under the envelope of the geometry the store's
// table (geoms) parsed for the triple's object. Members know nothing of
// routing or queries; the Store takes their locks (see the package
// comment) and the engine reads them through a View.
type member struct {
	mu      sync.RWMutex
	triples *rdf.Store

	// gen is the mutation generation plan- and result-cache entries are
	// pinned to. It is atomic so the router and cache validators can
	// read the generation of a member they do NOT hold locked
	// (observed-range-pruned slices, result-cache Get): it is only
	// advanced under the write lock, so a read-locked observer still
	// sees a stable value.
	gen atomic.Uint64
	// mutated records that the current write-lock hold changed a triple;
	// unlock turns it into exactly one generation bump.
	mutated bool

	// index's payloads are the encoded geometry triples themselves, so
	// window scans stay in ID space (MatchGeometryWindowIDs).
	index *rtree.Tree
	geoms *stsparql.Cache // the store's geometry table
	// times is the time index, keyed by predicate (see timeindex.go).
	times map[rdf.ID]*timeRun

	// loaded and indexHits are the member's share of the Store's
	// statistics: atomics, so a read-locked query counts its R-tree
	// windows without a lock, and per member, so readers of different
	// members never touch one counter.
	loaded, indexHits atomic.Int64
}

var _ stsparql.SpatialSource = (*member)(nil)
var _ stsparql.TimeRangeSource = (*member)(nil)

// newMember returns an empty member encoding into dict — IDs compare
// across the members of one Store, and a View of them scans in one ID
// space — and indexing geometries through geoms, the table over dict.
// Whoever builds a topology serialises its writers (see rdf.Dictionary).
func newMember(dict *rdf.Dictionary, geoms *stsparql.Cache) *member {
	return &member{
		triples: rdf.NewStoreOver(dict),
		index:   rtree.New(),
		geoms:   geoms,
		times:   make(map[rdf.ID]*timeRun),
	}
}

// Len reports the number of triples, under the read lock.
func (m *member) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.triples.Len()
}

// Generation reports the mutation generation. It is an atomic load:
// callers holding the member's lock (read or write) observe a stable
// value; lock-free callers (cache validators, pruned-slice vector
// capture) observe the latest published one.
func (m *member) Generation() uint64 { return m.gen.Load() }

// --- stsparql.Source / SpatialSource ---
// The engine scans, joins and deduplicates on the dictionary's IDs and
// materialises terms late. These, and the write methods below, run with
// the member's lock already held by the Store; they never lock m.mu.

// Dict implements stsparql.Source, exposing the topology's append-only
// term dictionary (IDs are stable for its life; decode is lock-free).
func (m *member) Dict() *rdf.Dictionary { return m.triples.Dict() }

// MatchIDs implements stsparql.Source: it streams encoded triples
// matching an encoded pattern (rdf.Wildcard components match anything).
func (m *member) MatchIDs(sub, pred, obj rdf.ID, visit func(rdf.EncodedTriple) bool) bool {
	return m.triples.MatchIDs(sub, pred, obj, visit)
}

// addEncoded adds an already-encoded triple, maintaining the spatial
// and time indexes. Like every mutation it only marks the hold mutated;
// the generation moves once, when the write lock is released.
func (m *member) addEncoded(enc rdf.EncodedTriple) bool {
	if !m.triples.AddEncoded(enc) {
		return false
	}
	m.mutated = true
	if item, ok := m.geomItem(enc); ok {
		m.index.Insert(item.Box, item.Data)
	}
	if m.timeAdd(enc) {
		m.settleTimes()
	}
	return true
}

// geomItem is the spatial-index entry of a geometry triple: the triple
// under the envelope of its object's geometry, read from the store's
// table. ok is false for a non-geometry triple and for a literal whose
// WKT does not parse: neither is indexed.
func (m *member) geomItem(enc rdf.EncodedTriple) (rtree.Item, bool) {
	d := m.triples.Dict()
	if !d.Decode(enc.O).IsGeometry() || !stsparql.GeometryPredicates[d.Decode(enc.P).Value] {
		return rtree.Item{}, false
	}
	g, err := m.geoms.Geometry(enc.O)
	if err != nil {
		return rtree.Item{}, false
	}
	return rtree.Item{Box: g.Envelope(), Data: enc}, true
}

// RemoveEncoded removes an encoded triple and its index entries (write
// lock held).
func (m *member) RemoveEncoded(enc rdf.EncodedTriple) bool {
	if !m.triples.RemoveEncoded(enc) {
		return false
	}
	m.mutated = true
	if item, ok := m.geomItem(enc); ok {
		m.index.Delete(item.Box, item.Data)
	}
	m.timeRemove(enc)
	return true
}

// unlock releases the write lock, first publishing the hold's mutations
// as one generation bump: however many triples a hold adds and removes
// — a bulk load, an update, a whole refined flush — plan- and
// result-cache entries pinned to the member are invalidated once.
func (m *member) unlock() {
	if m.mutated {
		m.mutated = false
		m.gen.Add(1)
	}
	m.mu.Unlock()
}

// CountIDs implements stsparql.Source.
func (m *member) CountIDs(sub, pred, obj rdf.ID) int { return m.triples.CountIDs(sub, pred, obj) }

// PredicateCard implements stsparql.Source.
func (m *member) PredicateCard(pred rdf.ID) (triples, distinctS, distinctO int) {
	return m.triples.PredicateCard(pred)
}

// StoreCard implements stsparql.Source.
func (m *member) StoreCard() (triples, subjects, predicates, objects int) {
	return m.triples.StoreCard()
}

// MatchGeometryWindowIDs implements stsparql.SpatialSource: it streams
// the encoded geometry triples whose envelope intersects the window,
// without decoding a single term — unless skip's bit 0 skips the member.
func (m *member) MatchGeometryWindowIDs(env geom.Envelope, skip uint64, visit func(rdf.EncodedTriple) bool) bool {
	if skip&1 != 0 {
		return true
	}
	m.indexHits.Add(1)
	return m.index.Search(env, func(it rtree.Item) bool {
		return visit(it.Data.(rdf.EncodedTriple))
	})
}

// WindowSkip implements stsparql.SpatialSource for a source of one
// member.
func (m *member) WindowSkip(p rdf.ID, fixed [][]rdf.IDSet) (skip uint64, members int) {
	for _, sets := range fixed {
		if held, _ := m.holdsSubject(p, sets); !held {
			return 1, 1
		}
	}
	return 0, 1
}

// holdsSubject reports whether m holds a (s, p, ·) triple with s in one
// of sets (nil sets hold every subject), and how many lookups it took.
// It works from the smaller side and stops at the first hit: one SPO
// probe per subject when the sets hold fewer subjects than m holds p
// triples, else one set lookup per p triple.
func (m *member) holdsSubject(p rdf.ID, sets []rdf.IDSet) (held bool, looked int) {
	if sets == nil {
		return true, 0
	}
	n := 0
	for _, set := range sets {
		n += set.Len()
	}
	if n < m.triples.CountIDs(rdf.Wildcard, p, rdf.Wildcard) {
		for _, set := range sets {
			if !set.Each(func(s rdf.ID) bool { looked++; return m.triples.CountIDs(s, p, rdf.Wildcard) == 0 }) {
				return true, looked
			}
		}
		return false, looked
	}
	held = !m.triples.MatchIDs(rdf.Wildcard, p, rdf.Wildcard, func(t rdf.EncodedTriple) bool {
		looked++
		return !slices.ContainsFunc(sets, func(set rdf.IDSet) bool { return set.Has(t.S) })
	})
	return held, looked
}

// SubjectSets implements stsparql.SpatialSource.
func (m *member) SubjectSets(p, o rdf.ID, dst []rdf.IDSet) []rdf.IDSet {
	if set := m.triples.SubjectSet(p, o); set.Len() > 0 {
		dst = append(dst, set)
	}
	return dst
}

// InsertEncodedLocked bulk-inserts encoded triple groups for a caller
// holding the write lock, returning the number of new triples per
// group. Geometry triples are gathered across the groups and
// bulk-loaded into the R-tree once, instead of one quadratic-split
// insertion per triple; the time index takes its entries as appends and
// is sorted once, and only if the load brought data older than what it
// held.
func (m *member) InsertEncodedLocked(groups ...[]rdf.EncodedTriple) []int {
	counts := make([]int, len(groups))
	total := 0
	var items []rtree.Item
	unsorted := false
	for gi, group := range groups {
		for _, enc := range group {
			if !m.triples.AddEncoded(enc) {
				continue
			}
			counts[gi]++
			total++
			if item, ok := m.geomItem(enc); ok {
				items = append(items, item)
			}
			unsorted = m.timeAdd(enc) || unsorted
		}
	}
	if total > 0 {
		m.mutated = true
	}
	m.index.InsertAll(items)
	if unsorted {
		m.settleTimes()
	}
	m.loaded.Add(int64(total))
	return counts
}
