package strabon

import (
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
// xsd:dateTime objects, under one RWMutex. Members know nothing of
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

	index *rtree.Tree
	// geomEntries remembers what was inserted in the index, keyed by the
	// encoded geometry triple, so RemoveEncoded can delete the exact
	// entry again. The R-tree payload is the entry itself: a window hit
	// reads its triple without a lookup.
	geomEntries map[rdf.EncodedTriple]*indexedGeom
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

type indexedGeom struct {
	env geom.Envelope
	// enc is the dictionary encoding of the geometry triple, so window
	// scans can stay in ID space (MatchGeometryWindowIDs).
	enc rdf.EncodedTriple
}

// newMember returns an empty member encoding into dict — IDs compare
// across the members of one Store, and a View of them scans in one ID
// space. Whoever builds a topology serialises its writers (see
// rdf.Dictionary).
func newMember(dict *rdf.Dictionary) *member {
	return &member{
		triples:     rdf.NewStoreOver(dict),
		index:       rtree.New(),
		geomEntries: make(map[rdf.EncodedTriple]*indexedGeom),
		times:       make(map[rdf.ID]*timeRun),
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

// --- stsparql.Source / StatSource / SpatialSource ---
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

// geomItem prepares the spatial-index entry for a geometry triple,
// recording it in geomEntries. ok is false for non-geometry triples.
func (m *member) geomItem(enc rdf.EncodedTriple) (rtree.Item, bool) {
	d := m.triples.Dict()
	o := d.Decode(enc.O)
	if !o.IsGeometry() || !stsparql.GeometryPredicates[d.Decode(enc.P).Value] {
		return rtree.Item{}, false
	}
	g, err := geom.ParseWKT(o.Value)
	if err != nil {
		return rtree.Item{}, false
	}
	e := &indexedGeom{env: g.Envelope(), enc: enc}
	m.geomEntries[enc] = e
	return rtree.Item{Box: e.env, Data: e}, true
}

// RemoveEncoded removes an encoded triple and its index entries (write
// lock held).
func (m *member) RemoveEncoded(enc rdf.EncodedTriple) bool {
	if !m.triples.RemoveEncoded(enc) {
		return false
	}
	m.mutated = true
	if e, ok := m.geomEntries[enc]; ok {
		m.index.Delete(e.env, e)
		delete(m.geomEntries, enc)
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

// CountPattern implements stsparql.StatSource.
func (m *member) CountPattern(sub, pred, obj rdf.Term) int {
	return m.triples.CountPattern(sub, pred, obj)
}

// CountIDs is CountPattern for an already-encoded pattern.
func (m *member) CountIDs(sub, pred, obj rdf.ID) int { return m.triples.Count(sub, pred, obj) }

// PredicateCard implements stsparql.StatSource.
func (m *member) PredicateCard(pred rdf.Term) (triples, distinctS, distinctO int) {
	return m.triples.PredicateCard(pred)
}

// StoreCard implements stsparql.StatSource.
func (m *member) StoreCard() (triples, subjects, predicates, objects int) {
	return m.triples.StoreCard()
}

// MatchGeometryWindowIDs implements stsparql.SpatialSource: it streams
// the encoded geometry triples whose envelope intersects the window,
// without decoding a single term.
func (m *member) MatchGeometryWindowIDs(env geom.Envelope, visit func(rdf.EncodedTriple) bool) bool {
	m.indexHits.Add(1)
	return m.index.Search(env, func(it rtree.Item) bool {
		return visit(it.Data.(*indexedGeom).enc)
	})
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
