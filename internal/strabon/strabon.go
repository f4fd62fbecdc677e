// Package strabon is the geospatial RDF store of the reproduction: the
// role Strabon (Kyzirakos, Karpathiotakis, Koubarakis — ISWC 2012) plays
// in the paper's architecture. It combines the dictionary-encoded triple
// store of package rdf with an R-tree over strdf:hasGeometry objects, a
// time index over xsd:dateTime objects (stSPARQL's two dimensions, each
// an access path the planner can see) and the stSPARQL engine, exposing
// an endpoint-style API used by the refinement step of the
// fire-monitoring service and by the HTTP Endpoint.
//
// # Partitioning
//
// A Store is a set of members — each with its own RWMutex, triple
// indexes, R-tree and time index, all encoding into ONE term dictionary:
// a static member for the georeference datasets (municipalities,
// coastline, land cover) and N time-range slices for the acquisition
// history (New builds one slice, NewSharded N). Writes route by
// acquisition timestamp: a triple group carrying a
// noa:hasAcquisitionDateTime literal goes to the slice owning that
// timestamp's time bucket (bucket = (t-epoch)/width, assigned to slices
// round-robin), a group without one to the slice already holding its
// subject, and everything else to the static member. Data is
// partitioned, never replicated — the union of the members is exactly
// the dataset.
//
// # Evaluation
//
// Every query is one evaluation, by one plan, over one View. At one
// slice it is the union View of the two members, unanalysed. With more
// slices a query is first analysed (route.go): if every solution
// provably derives from the triples of one slice plus the static data —
// the dominant workload shape, "hotspots in acquisition window X"
// joined against reference datasets — it fans out: its time window
// prunes the slices to those that can hold a solution, and it
// evaluates over the View of the static member and those slices,
// read-locking nothing else. Queries the analysis cannot prove
// evaluate over the union view. Either way the rows are those of one
// evaluation over all the data (up to ORDER-BY-mandated order), the
// property the equivalence suite pins at 1, 2 and 4 slices; what the
// fan-out buys is the slices it leaves unread — writable while its
// cursor is open — and a result-cache vector that only lists the
// slices it could have read.
//
// # Locking discipline
//
// Locks are member-local, and a writer mutex (writeMu) serialises the
// write paths among themselves; readers never take it.
//
//   - A query takes the read locks of the static member and of the
//     slices it evaluates over (all of them for the union view), in fixed
//     order — static, then slices ascending — and its cursor HOLDS them
//     until Close: writers to those members queue behind open cursors,
//     which is what makes a half-consumed result set immune to
//     concurrent mutation. Clients must Close cursors promptly; a cursor
//     bound to a cancelled context releases them at its next pull.
//   - Every write — InsertAll, LoadTriples, Update, ApplyFlush — is one
//     transaction of one shape (transact): under writeMu it read-locks
//     a read set (every member; a flush only the static member and the
//     slices its rules look at), runs its rules, if any, over an
//     Overlay, routes the net effect, releases the read locks, and then
//     write-locks, in the same fixed order, exactly the members the
//     effect touches — the routed targets and the member holding each
//     deleted triple — for the commit. A write to the live slice
//     therefore leaves every other slice readable, and an Update's
//     WHERE clause runs beside the queries. A write-lock hold that
//     changed anything bumps its member's generation exactly once, on
//     release, invalidating cached results that read the member.
//   - The members' stsparql source methods (MatchIDs, CountIDs,
//     MatchGeometryWindowIDs, MatchTimeRangeIDs, ...) and their write
//     methods do NOT lock: the Store calls them with the member's lock
//     already held.
//   - The term dictionary is under no member lock: the members, and a
//     flush's overlay, share one rdf.Dictionary, which synchronises
//     itself. Appends are serialised by writeMu.
//   - Endpoint statistics are atomic counters, so read-locked queries
//     count index hits without a lock of their own.
//
// # The flush contract
//
// ApplyFlush is the acquisition pipeline's write: a batch of products
// and the refinement of exactly those products, as one transition of
// the store. Readers see a flush entirely or not at all — never a raw
// hotspot the rules are about to delete, an unclipped coastal pixel or a
// confidence about to be confirmed — and each member the flush writes
// moves its generation once, however many rules ran.
//
// It gets there without making readers wait for the refinement. Under
// writeMu (no other writer from here to the commit) and the READ locks
// of the static member and the slices the rules look at, the flush's
// triples go into a private Overlay; the rules evaluate over the members
// + overlay and apply to the overlay, each seeing the effects of those
// before it. Only the overlay's net effect — the refined products — is
// then routed and committed, in the one commit every write goes
// through, under the write locks of the members it touches: the slices
// the acquisitions land in, and the static member too if a rule deleted
// a static triple. That hold has a bulk insert's length. The read locks
// are released before the write locks are taken (RWMutex does not
// upgrade; reprolint's lockdiscipline checks it); writeMu is what keeps
// the state from moving in between. A flush whose rules fail commits
// nothing. It never stalls a reader of older history, and stalls a
// reader of the live slice for the length of a bulk insert only.
package strabon

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/resultcache"
	"repro/internal/stsparql"
)

// Config sizes a Store.
type Config struct {
	// Slices is the number of time-range slices (at least 1).
	Slices int
	// Width is the time span of one routing bucket (default 1h).
	// Buckets are assigned to slices round-robin, so any query window
	// narrower than Width*Slices prunes to fewer than Slices shards.
	Width time.Duration
	// Epoch aligns bucket boundaries (default 2000-01-01T00:00:00Z).
	Epoch time.Time
}

// timePredicate is the acquisition-timestamp predicate routing triple
// groups.
const timePredicate = ontology.PropAcquisitionDateTime

// Store is a spatially indexed, time-partitioned RDF store with an
// stSPARQL endpoint. See the package comment for partitioning, locking
// and the flush contract.
type Store struct {
	width  int64 // bucket width, seconds
	epoch  int64 // bucket origin, unix seconds
	static *member
	slices []*member
	// members lists every member store, static first then slices
	// ascending — the canonical order of lock acquisition and routed
	// application, and the union view.
	members []*member
	ns      *rdf.Namespaces
	cache   *stsparql.Cache // the geometry table members index through and evaluators read
	// dict is the one term dictionary every member encodes into. Appends
	// happen under writeMu only; see rdf.Dictionary for what readers may
	// do beside them.
	dict *rdf.Dictionary

	// Routing knowledge, updated at insert time and read by the query
	// analysis: which predicates (and rdf:type objects) have ever been
	// routed to slices vs the static store. Guarded by routeMu.
	routeMu     sync.RWMutex
	slicePreds  map[string]bool
	staticPreds map[string]bool
	sliceTypes  map[string]bool
	staticTypes map[string]bool

	// spans holds each slice's time summary as its time index last
	// published it (see publishSpan); nil until the slice's first write.
	spans []atomic.Pointer[timeSpan]

	// knowGen is the routing-knowledge generation: it advances whenever
	// the predicate or rdf:type provenance sets above gain a member or a
	// slice's time run turns loose — the events that can flip a query's
	// fan-out verdict or widen its slice set without touching any member
	// store the query read. Partial result-cache vectors are pinned to it
	// (see fanVector); in steady state the vocabulary is fixed and it
	// never moves. A slice's range moving does NOT advance it: the write
	// moving it bumps its own slice's generation, which the affected
	// vectors carry.
	knowGen atomic.Uint64

	// writeMu serialises the write paths: routing is check-then-act
	// (probe a subject's home, then insert), so concurrent writers
	// could otherwise split one subject across slices without the
	// latch below noticing. Readers never take it — the member-local
	// claim (writes don't block reads of other slices) is about
	// queries, and those only take member read locks.
	writeMu sync.Mutex

	// split latches when a write is observed to violate co-location —
	// a subject landing away from its existing home, or one group
	// carrying acquisition times in different buckets — the invariants
	// the fan-out analysis needs. Once set, every query takes the
	// exact union view: correctness is preserved under arbitrary API
	// use, and only the fan-out's narrower locks and cache vectors are
	// lost (the well-formed producers never trigger it).
	split atomic.Bool

	// queries and updates count the requests served; the members count
	// the rest of Stats.
	queries, updates atomic.Int64
}

// New returns an empty store of one slice: every query evaluates once
// over static + slice, the way the paper's single Strabon does.
func New() *Store { return NewSharded(Config{}) }

// NewSharded returns an empty store partitioned as cfg says.
func NewSharded(cfg Config) *Store {
	if cfg.Slices < 1 {
		cfg.Slices = 1
	}
	if cfg.Width <= 0 {
		cfg.Width = time.Hour
	}
	if cfg.Epoch.IsZero() {
		cfg.Epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	s := &Store{
		width:       int64(cfg.Width / time.Second),
		epoch:       cfg.Epoch.Unix(),
		slicePreds:  make(map[string]bool),
		staticPreds: make(map[string]bool),
		sliceTypes:  make(map[string]bool),
		staticTypes: make(map[string]bool),
		spans:       make([]atomic.Pointer[timeSpan], cfg.Slices),
	}
	if s.width < 1 {
		s.width = 1
	}
	s.ns, s.dict = rdf.NewNamespaces(), rdf.NewDictionary()
	s.cache = stsparql.NewCache(s.dict)
	s.static = newMember(s.dict, s.cache)
	s.members = []*member{s.static}
	for i := 0; i < cfg.Slices; i++ {
		s.slices = append(s.slices, newMember(s.dict, s.cache))
	}
	s.members = append(s.members, s.slices...)
	return s
}

// PlanStats returns the zero value: no plan is kept between
// evaluations. Only the frozen benchmark harness (benchmark/layers.go)
// still calls it; ROADMAP step 8(6) deletes it with that call.
func (s *Store) PlanStats() stsparql.PlanCacheStats { return stsparql.PlanCacheStats{} }

// Namespaces exposes the shared prefix table.
func (s *Store) Namespaces() *rdf.Namespaces { return s.ns }

// Len reports the total number of triples across every shard.
func (s *Store) Len() int {
	n := 0
	for _, m := range s.members {
		n += m.Len()
	}
	return n
}

// Slices reports the configured slice count.
func (s *Store) Slices() int { return len(s.slices) }

// Stats counts endpoint activity.
type Stats struct {
	Queries       int
	Updates       int
	TriplesLoaded int
	IndexHits     int
	Geometries    int // parsed geometries in the store's table
}

// Stats returns a snapshot of the endpoint statistics.
func (s *Store) Stats() Stats {
	st := Stats{Queries: int(s.queries.Load()), Updates: int(s.updates.Load()), Geometries: s.cache.Size()}
	for _, m := range s.members {
		st.TriplesLoaded += int(m.loaded.Load())
		st.IndexHits += int(m.indexHits.Load())
	}
	return st
}

// ShardStats reports per-shard cardinality, generation and observed
// temporal range for /stats and the /metrics per-shard gauges. The
// range is the slice's published time summary (see publishSpan), so it
// follows deletions too. The static store has none: routing sends every
// group with a parseable acquisition time to a slice.
func (s *Store) ShardStats() []ShardStat {
	out := make([]ShardStat, 0, len(s.members))
	for i, m := range s.members {
		st := ShardStat{Name: "static", Triples: m.Len(), Gen: m.Generation()}
		if i > 0 {
			st.Name = fmt.Sprintf("s%d", i-1)
			if sp := s.spans[i-1].Load(); sp != nil {
				st.TimeEntries, st.MinUnix, st.MaxUnix = sp.Entries, sp.MinUnix, sp.MaxUnix
			}
		}
		if st.TimeEntries > 0 {
			st.Range = time.Unix(st.MinUnix, 0).UTC().Format("2006-01-02T15:04:05") +
				"/" + time.Unix(st.MaxUnix, 0).UTC().Format("2006-01-02T15:04:05")
		}
		out = append(out, st)
	}
	return out
}

// VerifyTimeIndexes recounts every member's time index from its triples,
// each under the member's read lock, and reports the first disagreement
// — the time index's consistency check.
func (s *Store) VerifyTimeIndexes() error {
	for i, m := range s.members {
		m.mu.RLock()
		err := m.verifyTimeIndex()
		m.mu.RUnlock()
		if err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
	}
	return nil
}

// DictStats reports the size of the term dictionary the members share:
// the distinct terms interned and the approximate heap bytes they pin.
func (s *Store) DictStats() (entries, bytes int) { return s.dict.Len(), s.dict.ApproxBytes() }

// --- routing ---

// bucket maps a timestamp to its time bucket index.
func (s *Store) bucket(t time.Time) int64 { return s.bucketOf(t.Unix()) }

// bucketOf maps a unix-seconds instant to its time bucket index.
func (s *Store) bucketOf(unix int64) int64 {
	d := unix - s.epoch
	b := d / s.width
	if d%s.width < 0 {
		b--
	}
	return b
}

// sliceFor maps a timestamp to its owning slice (buckets round-robin
// over the slices).
func (s *Store) sliceFor(t time.Time) int { return s.sliceOf(s.bucket(t)) }

// sliceOf maps a time bucket to its owning slice.
func (s *Store) sliceOf(bucket int64) int {
	n := int64(len(s.slices))
	return int(((bucket % n) + n) % n)
}

// timePredID is the dictionary ID of the routing predicate, or
// rdf.Wildcard while no triple has carried it.
func (s *Store) timePredID() rdf.ID {
	id, _ := s.dict.Lookup(rdf.NewIRI(timePredicate))
	return id
}

// groupTime finds the routing timestamp of a triple group: the object of
// its first acquisition-time triple — the one term of a routed write
// that is decoded. Routing is group-atomic — every triple of one
// acquisition's product lands in the same slice — which is what keeps
// subject-connected data co-located (the assumption the fan-out
// analysis leans on).
func (s *Store) groupTime(group []rdf.EncodedTriple, timePred rdf.ID) (time.Time, bool) {
	for _, t := range group {
		if t.P == timePred {
			if at, ok := stsparql.ParseDateTime(s.dict.Decode(t.O).Value); ok {
				return at, true
			}
		}
	}
	return time.Time{}, false
}

// track records routing knowledge for inserted groups: predicate and
// rdf:type-object membership per side. targets[i] is the member index
// of groups[i] (0: static). Deletions never untrack — the sets are
// conservative supersets, which only costs fan-out opportunities, never
// correctness. Growth of either set advances knowGen, invalidating
// partial result-cache vectors whose fan-out verdict the new knowledge
// could flip.
func (s *Store) track(groups [][]rdf.EncodedTriple, targets []int) {
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	grew := false
	for gi, group := range groups {
		preds, types := s.slicePreds, s.sliceTypes
		if targets[gi] == 0 {
			preds, types = s.staticPreds, s.staticTypes
		}
		for _, enc := range group {
			p := s.dict.Decode(enc.P).Value
			if !preds[p] {
				preds[p] = true
				grew = true
			}
			if p != rdf.RDFType {
				continue
			}
			if o := s.dict.Decode(enc.O); o.IsIRI() && !types[o.Value] {
				types[o.Value] = true
				grew = true
			}
		}
	}
	if grew {
		s.knowGen.Add(1)
	}
}

// probe runs fn over the members a write transaction has read-locked —
// the static member, then the given slices — by member index (0: static,
// i+1: slice i), until fn returns true.
func (s *Store) probe(reads []int, fn func(mi int, m *member) bool) {
	if fn(0, s.static) {
		return
	}
	for _, i := range reads {
		if fn(i+1, s.slices[i]) {
			return
		}
	}
}

// groupSplits reports whether inserting the group into member target
// would place a subject's triples outside the member where that subject
// already lives, as far as the read-locked members show. A group bound
// for a slice looks in the static member for the subject's rdf:type
// triples only. Every view includes the static member (see view), so
// the subject's other static triples — a timeless triple written before
// its timestamped group — are read beside any slice; a static type,
// though, pins the subject's triples static for the fan-out analysis
// (classify), which would then miss those in the slice.
func (s *Store) groupSplits(group []rdf.EncodedTriple, target int, reads []int) bool {
	seen := make(map[rdf.ID]bool)
	var subjects []rdf.ID
	for _, t := range group {
		if !seen[t.S] {
			seen[t.S] = true
			subjects = append(subjects, t.S)
		}
	}
	typ, _ := s.dict.Lookup(rdf.NewIRI(rdf.RDFType)) // the wildcard while no type is stored
	found := false
	s.probe(reads, func(mi int, m *member) bool {
		if mi == target {
			return false
		}
		p := rdf.Wildcard
		if mi == 0 && target > 0 {
			p = typ
		}
		for _, sub := range subjects {
			if m.CountIDs(sub, p, rdf.Wildcard) > 0 {
				found = true
				return true
			}
		}
		return false
	})
	return found
}

// routeGroup decides which member one group lands in — the slice owning
// its acquisition timestamp, else the member already holding its first
// subject, else the static store — and latches the split flag when the
// group carries acquisition-time values in different routing buckets:
// the whole group lands in one slice, so window pruning for the other
// value would look in the wrong one. A transaction that read only some
// slices cannot see a subject living in the others, so it also latches
// split when a group lands in a slice it did not read, or finds no
// member holding a timeless group's subject.
func (s *Store) routeGroup(g []rdf.EncodedTriple, timePred rdf.ID, reads []int) int {
	partial := len(reads) < len(s.slices)
	at, ok := s.groupTime(g, timePred)
	if !ok {
		owner := -1
		s.probe(reads, func(mi int, m *member) bool {
			if m.CountIDs(g[0].S, rdf.Wildcard, rdf.Wildcard) > 0 {
				owner = mi
			}
			return owner >= 0
		})
		if owner < 0 {
			owner = 0
			if partial {
				s.split.Store(true)
			}
		}
		return owner
	}
	target := s.sliceFor(at)
	if partial && !slices.Contains(reads, target) {
		s.split.Store(true)
	}
	if !s.split.Load() {
		want := s.bucket(at)
		for _, t := range g {
			if t.P != timePred {
				continue
			}
			if other, ok := stsparql.ParseDateTime(s.dict.Decode(t.O).Value); !ok || s.bucket(other) != want {
				s.split.Store(true)
				break
			}
		}
	}
	return 1 + target
}

// --- write paths ---

// InsertAll bulk-inserts triple groups and reports the new triples per
// group. Each group routes whole — by its acquisition timestamp, else
// to its first subject's slice, else to the static store — and the
// write locks taken are its targets' own: inserts into the live slice
// leave every other slice readable.
func (s *Store) InsertAll(groups ...[]rdf.Triple) []int {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	counts, _ := s.transact(s.allSlices(), encodeGroups(s.dict, groups), nil)
	return counts
}

// encodeGroups interns triple groups into the store's dictionary. It
// needs writeMu and no member lock, so a bulk write encodes before it
// takes the write lock it lands under.
func encodeGroups(d *rdf.Dictionary, groups [][]rdf.Triple) [][]rdf.EncodedTriple {
	out := make([][]rdf.EncodedTriple, len(groups))
	for gi, group := range groups {
		out[gi] = d.EncodeTriples(group)
	}
	return out
}

// groupBySubject splits triples into per-subject groups, preserving
// first-seen subject order — the grouping unit of loads and of a
// transaction's net effect.
func groupBySubject(triples []rdf.EncodedTriple) [][]rdf.EncodedTriple {
	var order []rdf.ID
	bySubj := make(map[rdf.ID][]rdf.EncodedTriple)
	for _, t := range triples {
		if _, ok := bySubj[t.S]; !ok {
			order = append(order, t.S)
		}
		bySubj[t.S] = append(bySubj[t.S], t)
	}
	groups := make([][]rdf.EncodedTriple, len(order))
	for i, k := range order {
		groups[i] = bySubj[k]
	}
	return groups
}

// LoadTriples bulk-inserts a mixed triple set: triples are grouped by
// subject and each subject group routes like an InsertAll group.
func (s *Store) LoadTriples(triples []rdf.Triple) int {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	counts, _ := s.transact(s.allSlices(), groupBySubject(s.dict.EncodeTriples(triples)), nil)
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

// LoadTurtle parses and loads a Turtle document. Its prefix directives
// bind into the store's namespace table, the one write to it: a query's
// PREFIX declarations bind for that query only.
func (s *Store) LoadTurtle(src string) (int, error) {
	triples, err := stsparql.ParseTurtle(src, s.ns)
	if err != nil {
		return 0, err
	}
	return s.LoadTriples(triples), nil
}

// parseUpdate parses an update request.
func (s *Store) parseUpdate(src string) (*stsparql.Query, error) {
	q, err := stsparql.Parse(src, s.ns)
	if err != nil {
		return nil, err
	}
	if q.Update == nil {
		return nil, fmt.Errorf("strabon: Update wants DELETE/INSERT")
	}
	return q, nil
}

// Update executes a DELETE/INSERT request as one write transaction whose
// rule is the request: its WHERE clause is matched over an Overlay of
// every member under their read locks, and the net effect — deletes
// wherever the triple lives, inserts routed like loads — commits under
// the write locks of the members it touches.
func (s *Store) Update(src string) (stsparql.UpdateStats, error) {
	q, err := s.parseUpdate(src)
	if err != nil {
		return stsparql.UpdateStats{}, err
	}
	s.updates.Add(1)
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	var stats stsparql.UpdateStats
	_, err = s.transact(s.allSlices(), nil, func(tx *FlushTx) error {
		plan, err := tx.ev.PlanUpdate(q.Update)
		if err == nil {
			stats = tx.Apply(plan)
		}
		return err
	})
	return stats, err
}

// ApplyFlush is the acquisition pipeline's write: it inserts the
// flush's triple groups and runs rules — the refinement of what was
// just written — as ONE transition of the store (see the flush contract
// in the package comment). The rules see the static store and the
// slices the groups (routed by acquisition timestamp, like InsertAll)
// and f.At land in, plus those covering [f.Since, latest acquisition]:
// only those are read-locked while the rules run, so readers of every
// other slice proceed beside the refinement.
func (s *Store) ApplyFlush(f Flush, rules func(*FlushTx) error) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()

	reads := make([]bool, len(s.slices))
	latest := f.Since
	lands := func(at time.Time) {
		if at.After(latest) {
			latest = at
		}
		reads[s.sliceFor(at)] = true
	}
	groups := encodeGroups(s.dict, f.Groups)
	timePred := s.timePredID()
	for gi, g := range groups {
		at, ok := s.groupTime(g, timePred)
		if !ok {
			return fmt.Errorf("strabon: flush group %d carries no acquisition timestamp", gi)
		}
		lands(at)
	}
	for _, at := range f.At {
		lands(at)
	}
	if !f.Since.IsZero() {
		for b, n := s.bucket(f.Since), 0; b <= s.bucket(latest) && n < len(s.slices); b, n = b+1, n+1 {
			reads[s.sliceOf(b)] = true
		}
	}
	var readSet []int
	for i, r := range reads {
		if r {
			readSet = append(readSet, i)
		}
	}
	_, err := s.transact(readSet, groups, rules)
	return err
}

// allSlices lists every slice index: the read set of a write that may
// meet any of the data.
func (s *Store) allSlices() []int {
	out := make([]int, len(s.slices))
	for i := range out {
		out[i] = i
	}
	return out
}

// transact is the one write transaction every store write is. The
// caller holds writeMu, so nothing else writes from the first read to
// the commit. Under the read locks of the static member and the reads
// slices, rules — when there are any — run over an Overlay holding the
// groups and replace them with its net effect, grouped by subject; the
// effect is routed (route) and the read locks released. Then exactly
// the members the effect touches are write-locked and it is committed:
// one hold, one generation bump per written member. A failing rule
// commits nothing. It returns the new triples per committed group.
func (s *Store) transact(reads []int, groups [][]rdf.EncodedTriple, rules func(*FlushTx) error) ([]int, error) {
	release := s.lockRead(reads)
	var deletes []rdf.EncodedTriple
	if rules != nil {
		base := View{s.static}
		for _, i := range reads {
			base = append(base, s.slices[i])
		}
		o, inserted := newOverlay(base, s.cache, groups)
		if err := rules(newFlushTx(inserted, o, s.cache)); err != nil {
			release()
			return nil, err
		}
		var inserts []rdf.EncodedTriple
		deletes, inserts = o.Effect()
		groups = groupBySubject(inserts)
	}
	targets, holders, touched := s.route(reads, groups, deletes)
	release()

	defer s.lockWrite(touched)()
	return s.commit(deletes, holders, groups, targets, touched), nil
}

// route decides where each group lands (a member index, 0 for static)
// and which member holds each deleted triple, reading only the members
// the transaction read-locked. touched marks both: the members the
// commit writes. Co-location violations latch the split flag here,
// BEFORE the first member-store mutation.
func (s *Store) route(reads []int, groups [][]rdf.EncodedTriple, deletes []rdf.EncodedTriple) (targets, holders []int, touched []bool) {
	touched = make([]bool, len(s.members))
	targets = make([]int, len(groups))
	timePred := s.timePredID()
	for gi, g := range groups {
		if len(g) == 0 {
			continue
		}
		targets[gi] = s.routeGroup(g, timePred, reads)
		touched[targets[gi]] = true
		if !s.split.Load() && s.groupSplits(g, targets[gi], reads) {
			s.split.Store(true)
		}
	}
	holders = make([]int, len(deletes))
	for di, t := range deletes {
		s.probe(reads, func(mi int, m *member) bool {
			if m.CountIDs(t.S, t.P, t.O) == 0 {
				return false
			}
			holders[di] = mi
			return true
		})
		touched[holders[di]] = true
	}
	return targets, holders, touched
}

// commit applies routed deletes and inserts under the write locks of the
// touched members: each delete in the member holding it, inserts in bulk
// per target, and every touched slice then publishes its time summary.
// The track() registration happens BEFORE the first member-store
// mutation, and the publication before the caller's lockWrite release:
// routing knowledge must already cover the new data when the member
// generations move (genorder invariant, enforced by reprolint).
func (s *Store) commit(deletes []rdf.EncodedTriple, holders []int, groups [][]rdf.EncodedTriple, targets []int, touched []bool) []int {
	s.track(groups, targets)
	for di, t := range deletes {
		s.members[holders[di]].RemoveEncoded(t)
	}
	counts := make([]int, len(groups))
	for mi, m := range s.members {
		if !touched[mi] {
			continue
		}
		var idxs []int
		var batch [][]rdf.EncodedTriple
		for gi, tg := range targets {
			if tg == mi && len(groups[gi]) > 0 {
				idxs = append(idxs, gi)
				batch = append(batch, groups[gi])
			}
		}
		for j, n := range m.InsertEncodedLocked(batch...) {
			counts[idxs[j]] = n
		}
		if mi > 0 {
			s.publishSpan(mi - 1)
		}
	}
	return counts
}

// publishSpan reads slice i's time summary off its time index and
// publishes it to the router. The caller holds slice i's write lock and
// calls it after the hold's last mutation, before the Unlock that bumps
// the slice's generation: a reader that sees the new generation sees the
// summary too. A run that turns loose advances knowGen here, after the
// summary and before the generation: a lexical window stops pruning, so
// partial vectors that do not list this slice must fail validation too.
func (s *Store) publishSpan(i int) {
	sp := s.slices[i].span(s.timePredID())
	if old := s.spans[i].Swap(sp); sp.loose() && (old == nil || !old.loose()) {
		s.knowGen.Add(1)
	}
}

// --- lock helpers ---

// lockAllRead read-locks every member store in fixed order (static,
// then slices ascending) and returns the matching unlock.
func (s *Store) lockAllRead() func() {
	for _, m := range s.members {
		m.mu.RLock()
	}
	return func() {
		for i := len(s.members) - 1; i >= 0; i-- {
			s.members[i].mu.RUnlock()
		}
	}
}

// lockRead read-locks the static store plus the given slices (ascending
// indices) and returns the matching unlock.
func (s *Store) lockRead(idxs []int) func() {
	s.static.mu.RLock()
	for _, i := range idxs {
		s.slices[i].mu.RLock()
	}
	return func() {
		for j := len(idxs) - 1; j >= 0; j-- {
			s.slices[idxs[j]].mu.RUnlock()
		}
		s.static.mu.RUnlock()
	}
}

// lockWrite write-locks the touched members in fixed order — static,
// then slices ascending — and returns the matching unlock. Write paths
// only: the caller holds writeMu and no member read lock.
func (s *Store) lockWrite(touched []bool) func() {
	for mi, m := range s.members {
		if touched[mi] {
			m.mu.Lock()
		}
	}
	return func() {
		for mi := len(s.members) - 1; mi >= 0; mi-- {
			if touched[mi] {
				s.members[mi].unlock()
			}
		}
	}
}

// --- result-cache generation vectors ---
//
// A cached result stays valid while every member store it could have
// read is unchanged. Full (union-view) vectors list the static store
// and every slice. Partial vectors list only the fan-out's candidate
// slices — the window-derived keyShards set, which is pure bucket
// arithmetic over the immutable width/epoch and therefore stable
// across time for the same query text — plus the static store, and are
// additionally pinned to knowGen and the unsplit state: growth of
// routing knowledge or a co-location violation can widen the set of
// slices a re-evaluation would read, which the listed generations
// alone cannot witness.

// fullVector captures the union view's per-member generations. Caller
// must hold every member's read lock.
func (s *Store) fullVector() resultcache.GenVector {
	gens := make([]resultcache.SliceGen, 0, len(s.members))
	for i, m := range s.members {
		gens = append(gens, resultcache.SliceGen{Slice: i - 1, Gen: m.Generation()})
	}
	return resultcache.GenVector{Gens: gens, Know: s.knowGen.Load()}
}

// fanVector captures the generations of the static store plus the
// fan-out's candidate slices. Capture must precede the re-analysis
// under the read locks (see routeQuery) — every write path tracks its
// routing knowledge and publishes its slices' time summaries BEFORE
// bumping the member generation, so a write racing the analysis either
// shows up in the re-analysis (union fallback) or post-dates the
// captured vector (the cache entry fails validation). That ordering is
// what makes listing the candidates the observed ranges pruned sound:
// the evaluation holds no lock on them.
func (s *Store) fanVector(keyShards []int) resultcache.GenVector {
	gens := make([]resultcache.SliceGen, 0, len(keyShards)+1)
	gens = append(gens, resultcache.SliceGen{Slice: -1, Gen: s.static.Generation()})
	for _, i := range keyShards {
		gens = append(gens, resultcache.SliceGen{Slice: i, Gen: s.slices[i].Generation()})
	}
	return resultcache.GenVector{Gens: gens, Know: s.knowGen.Load(), Partial: true}
}

// GensValid checks a cached result's generation vector against the live
// state: a cached result is valid iff every member generation its vector lists is unchanged — and, for
// partial vectors, the routing knowledge that scoped the fan-out to
// those members is unchanged too. Lock-free: generations are atomics,
// so validation runs on every cache Get without touching any RWMutex.
func (s *Store) GensValid(v resultcache.GenVector) bool {
	if v.Partial {
		if s.split.Load() || v.Know != s.knowGen.Load() {
			return false
		}
	} else if len(v.Gens) != len(s.slices)+1 {
		return false
	}
	for _, g := range v.Gens {
		switch {
		case g.Slice == -1:
			if g.Gen != s.static.Generation() {
				return false
			}
		case g.Slice < 0 || g.Slice >= len(s.slices):
			return false
		default:
			if g.Gen != s.slices[g.Slice].Generation() {
				return false
			}
		}
	}
	return true
}
