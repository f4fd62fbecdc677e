// Package shard implements the sharded Strabon store of the scaling
// roadmap: the accumulated acquisition history is partitioned into N
// time-range slices — each its own strabon.Store with its own RWMutex,
// R-tree and compiled-plan cache — plus a catch-all store for the
// static/georeference datasets (municipalities, coastline, land cover),
// all encoding into ONE term dictionary and all behind the same
// strabon.API the endpoint and the serving binaries already consume.
//
// # Partitioning
//
// Writes route by acquisition timestamp: a triple group carrying a
// noa:hasAcquisitionDateTime literal goes to the slice owning that
// timestamp's time bucket (bucket = (t-epoch)/width, assigned to slices
// round-robin), and everything else goes to the static store. Data is
// partitioned, never replicated — the union of the member stores is
// exactly the dataset a single store would hold.
//
// # Evaluation
//
// A query is first analysed (route.go): if every solution provably
// derives from the triples of one slice plus the static data — the
// dominant workload shape, "hotspots in acquisition window X" joined
// against reference datasets — the compiled plan fans out to the
// relevant slices concurrently, each evaluated over a composite view
// (static + that slice), and the per-shard cursors merge (merge.go):
// streaming concatenation for plain SELECTs, k-way ordered merge for
// ORDER BY (each shard pre-truncated to its top-k by the engine's
// bounded-heap order operator), and partial-aggregate recombination
// (COUNT/SUM/MIN/MAX, AVG as SUM+COUNT) for grouped queries, with
// DISTINCT and OFFSET/LIMIT re-applied at the merger. Time-constrained
// queries prune the fan-out to the slices intersecting their window.
//
// Queries the analysis cannot prove decomposable evaluate exactly once
// over the union view of every member store — always correct, just not
// parallel. At one slice every query does, unanalysed: the slice view
// is the union view, so routing could only add cost. Either way results
// are row-for-row identical to a single store's (up to ORDER-BY-mandated
// order), the property the equivalence suite pins.
//
// # Locking
//
// Locks are shard-local: a write to the live slice takes only that
// slice's write lock, so queries over historical slices (and their
// static join partners) proceed untouched — the conversion of the
// store-global write bottleneck into a shard-local one. A fan-out
// cursor holds read locks on the static store and the relevant slices
// (acquired in fixed order: static, then slices ascending) until Close;
// a union-view cursor holds all of them. Write paths take the writer
// mutex first and member locks in the same fixed order: InsertAll locks
// one target at a time, the atomic Update write-locks every member, and
// ApplyFlush — the acquisition pipeline's insert-and-refine, see the
// flush contract in package strabon — read-locks the static store and
// the slices its rules look at while they run over an overlay, then
// write-locks only the slice(s) its acquisitions land in for the
// commit. A flush therefore never stalls a reader of older history,
// stalls a reader of the live slice for the length of a bulk insert,
// and is visible to it entirely or not at all.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/resultcache"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// Config sizes a sharded store.
type Config struct {
	// Slices is the number of time-range shards (at least 1).
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

// planCacheSize bounds each compiled-plan cache until SetPlanCacheSize
// replaces them.
const planCacheSize = 256

// Store is the sharded Strabon store. It implements strabon.API.
type Store struct {
	width  int64 // bucket width, seconds
	epoch  int64 // bucket origin, unix seconds
	static *strabon.Store
	slices []*strabon.Store
	// members lists every member store, static first then slices
	// ascending — the canonical order of lock acquisition and routed
	// application, and the union view.
	members []*strabon.Store
	ns      *rdf.Namespaces
	cache   *stsparql.Cache // shared geometry-parse cache
	// dict is the one term dictionary every member encodes into. Appends
	// happen under writeMu only; see rdf.Dictionary for what readers may
	// do beside them.
	dict *rdf.Dictionary

	// Compiled-plan caches: one per slice view plus one for the union
	// view. Guarded by planMu only for replacement (SetPlanCacheSize);
	// the caches themselves are concurrency-safe.
	planMu  sync.RWMutex
	caches  []*stsparql.PlanCache
	unionPC *stsparql.PlanCache

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
	// latch below noticing. Readers never take it — the shard-local
	// claim (writes don't block reads on other shards) is about
	// queries, and those only take member read locks.
	writeMu sync.Mutex

	// split latches when a write is observed to violate co-location —
	// a subject landing away from its existing home, or one group
	// carrying acquisition times in different buckets — the invariants
	// the fan-out analysis needs. Once set, every query takes the
	// exact union view: correctness is preserved under arbitrary API
	// use, and only fan-out parallelism is lost (the well-formed
	// producers never trigger it).
	split atomic.Bool

	statsMu sync.Mutex
	queries int
	updates int
}

var _ strabon.API = (*Store)(nil)
var _ strabon.ShardStatser = (*Store)(nil)

// New returns an empty sharded store.
func New(cfg Config) *Store {
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
	s.static = strabon.New()
	s.ns, s.cache, s.dict = s.static.Namespaces(), s.static.GeomCache(), s.static.Dict()
	s.members = []*strabon.Store{s.static}
	for i := 0; i < cfg.Slices; i++ {
		s.slices = append(s.slices, strabon.NewMember(s.static))
	}
	s.members = append(s.members, s.slices...)
	s.resetPlanCaches(planCacheSize)
	return s
}

func (s *Store) resetPlanCaches(n int) {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	if n <= 0 {
		s.caches = make([]*stsparql.PlanCache, len(s.slices))
		s.unionPC = nil
		return
	}
	s.caches = make([]*stsparql.PlanCache, len(s.slices))
	for i := range s.caches {
		s.caches[i] = stsparql.NewPlanCache(n)
	}
	s.unionPC = stsparql.NewPlanCache(n)
}

// SetPlanCacheSize replaces every per-shard plan cache; n <= 0 disables
// plan caching. Counters restart.
func (s *Store) SetPlanCacheSize(n int) { s.resetPlanCaches(n) }

// PlanStats sums the per-shard plan cache counters.
func (s *Store) PlanStats() stsparql.PlanCacheStats {
	s.planMu.RLock()
	defer s.planMu.RUnlock()
	var out stsparql.PlanCacheStats
	add := func(pc *stsparql.PlanCache) {
		if pc == nil {
			return
		}
		st := pc.Stats()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Evictions += st.Evictions
		out.Declined += st.Declined
		out.Entries += st.Entries
	}
	for _, pc := range s.caches {
		add(pc)
	}
	add(s.unionPC)
	return out
}

func (s *Store) sliceCache(i int) *stsparql.PlanCache {
	s.planMu.RLock()
	defer s.planMu.RUnlock()
	return s.caches[i]
}

func (s *Store) unionCache() *stsparql.PlanCache {
	s.planMu.RLock()
	defer s.planMu.RUnlock()
	return s.unionPC
}

// Namespaces exposes the shared prefix table.
func (s *Store) Namespaces() *rdf.Namespaces { return s.ns }

// GeomCache exposes the geometry-parse cache every member shares.
func (s *Store) GeomCache() *stsparql.Cache { return s.cache }

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

// Stats sums the member stores' endpoint statistics plus the sharded
// store's own query/update counters (member Queries/Updates stay zero:
// the sharded store evaluates through composite views, not the member
// endpoints).
func (s *Store) Stats() strabon.Stats {
	var out strabon.Stats
	add := func(st strabon.Stats) {
		out.Queries += st.Queries
		out.Updates += st.Updates
		out.TriplesLoaded += st.TriplesLoaded
		out.IndexHits += st.IndexHits
	}
	for _, m := range s.members {
		add(m.Stats())
	}
	s.statsMu.Lock()
	out.Queries += s.queries
	out.Updates += s.updates
	s.statsMu.Unlock()
	return out
}

// ShardStats reports per-shard cardinality, generation and observed
// temporal range for /stats and the /metrics per-shard gauges. The
// range is the slice's published time summary (see publishSpan), so it
// follows deletions too. The static store has none: routing sends every
// group with a parseable acquisition time to a slice.
func (s *Store) ShardStats() []strabon.ShardStat {
	out := make([]strabon.ShardStat, 0, len(s.members))
	for i, m := range s.members {
		st := strabon.ShardStat{Name: "static", Triples: m.Len(), Gen: m.Generation()}
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

// DictStats implements strabon.API: the members share one dictionary,
// so this is the exact distinct-term count of the whole store.
func (s *Store) DictStats() (entries, bytes int) { return s.static.DictStats() }

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
// rdf:type-object membership per side. targets[i] is the slice index of
// groups[i], or -1 for static. Deletions never untrack — the sets are
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
		if targets[gi] < 0 {
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

// held names the member stores a write path has locked while it routes
// and commits: the slices it may read (ascending; the static store
// always), which of them it may write, and whether it may write the
// static store. A nil *held means no lock is held — probes then
// read-lock members briefly, one at a time.
type held struct {
	slices      []int
	write       []bool // indexed by slice
	staticWrite bool
}

// writable reports whether target (slice index, or -1 for static) is
// write-locked.
func (h *held) writable(target int) bool {
	if target < 0 {
		return h.staticWrite
	}
	return h.write[target]
}

// probe runs fn over the member stores a routing probe may read: every
// member, each briefly read-locked, when h is nil; otherwise exactly
// the held ones, as they are. fn returns true to stop.
func (s *Store) probe(h *held, fn func(slice int, m *strabon.Store) bool) {
	if h != nil {
		if fn(-1, s.static) {
			return
		}
		for _, i := range h.slices {
			if fn(i, s.slices[i]) {
				return
			}
		}
		return
	}
	for i, m := range s.members {
		m.RLock()
		stop := fn(i-1, m)
		m.RUnlock()
		if stop {
			return
		}
	}
}

// groupSplits reports whether inserting the group into target (slice
// index, or -1 for static) would place a subject's triples outside the
// store where that subject already lives, as far as h can see.
func (s *Store) groupSplits(group []rdf.EncodedTriple, target int, h *held) bool {
	seen := make(map[rdf.ID]bool)
	var subjects []rdf.ID
	for _, t := range group {
		if !seen[t.S] {
			seen[t.S] = true
			subjects = append(subjects, t.S)
		}
	}
	found := false
	s.probe(h, func(slice int, m *strabon.Store) bool {
		if slice == target {
			return false
		}
		for _, sub := range subjects {
			if m.CountIDs(sub, rdf.Wildcard, rdf.Wildcard) > 0 {
				found = true
				return true
			}
		}
		return false
	})
	return found
}

// routeGroup decides where one group lands — the slice owning its
// acquisition timestamp, else (when probeOwner) the slice already
// holding its first subject, else the static store — and latches the
// split flag when the group carries acquisition-time values in
// different routing buckets: the whole group lands in one slice, so
// window pruning for the other value would look in the wrong one.
func (s *Store) routeGroup(g []rdf.EncodedTriple, timePred rdf.ID, probeOwner bool, h *held) int {
	at, ok := s.groupTime(g, timePred)
	if !ok {
		if probeOwner && len(g) > 0 {
			return s.findOwner(g[0].S, h)
		}
		return -1
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
	return s.sliceFor(at)
}

// findOwner locates the slice already holding a subject's triples, as
// far as h can see. Returns -1 when no slice knows the subject.
func (s *Store) findOwner(sub rdf.ID, h *held) int {
	owner := -1
	s.probe(h, func(slice int, m *strabon.Store) bool {
		if slice >= 0 && m.CountIDs(sub, rdf.Wildcard, rdf.Wildcard) > 0 {
			owner = slice
		}
		return owner >= 0
	})
	return owner
}

// --- write paths ---

// InsertAll bulk-inserts triple groups, routing each group by its
// acquisition timestamp (groups without one go to the static store) and
// batching one bulk insert per target store. The write lock taken is the
// target slice's own — inserts into the live slice leave every other
// shard readable.
func (s *Store) InsertAll(groups ...[]rdf.Triple) []int {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.insertRouted(strabon.EncodeGroups(s.dict, groups), false)
}

// insertRouted routes and lands encoded groups; the caller holds
// writeMu.
func (s *Store) insertRouted(groups [][]rdf.EncodedTriple, probeOwner bool) []int {
	timePred := s.timePredID()
	targets := make([]int, len(groups))
	for gi, g := range groups {
		targets[gi] = s.routeGroup(g, timePred, probeOwner, nil)
		if !s.split.Load() && s.groupSplits(g, targets[gi], nil) {
			s.split.Store(true)
		}
	}
	s.track(groups, targets)

	counts := make([]int, len(groups))
	for i, m := range s.members {
		var idxs []int
		var batch [][]rdf.EncodedTriple
		for gi, tg := range targets {
			if tg == i-1 {
				idxs = append(idxs, gi)
				batch = append(batch, groups[gi])
			}
		}
		if len(idxs) == 0 {
			continue
		}
		m.Lock()
		res := m.InsertEncodedLocked(batch...)
		if i > 0 {
			s.publishSpan(i - 1)
		}
		m.Unlock()
		for j, gi := range idxs {
			counts[gi] = res[j]
		}
	}
	return counts
}

// groupBySubject splits triples into per-subject groups, preserving
// first-seen subject order — the grouping unit of routed loads and
// routed update-plan application.
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
// subject and each subject group routes like an InsertAll group, with a
// subject-ownership probe for groups carrying no timestamp (so later
// additions to an already-stored acquisition follow it to its slice).
func (s *Store) LoadTriples(triples []rdf.Triple) int {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	total := 0
	for _, n := range s.insertRouted(groupBySubject(s.dict.EncodeTriples(triples)), true) {
		total += n
	}
	return total
}

// LoadTurtle parses and loads a Turtle document.
func (s *Store) LoadTurtle(src string) (int, error) {
	triples, err := rdf.ParseTurtle(src, s.ns)
	if err != nil {
		return 0, err
	}
	return s.LoadTriples(triples), nil
}

func (s *Store) countUpdate() {
	s.statsMu.Lock()
	s.updates++
	s.statsMu.Unlock()
}

func (s *Store) countQuery() {
	s.statsMu.Lock()
	s.queries++
	s.statsMu.Unlock()
}

// parseUpdate parses an update request.
func (s *Store) parseUpdate(src string) (*stsparql.Query, error) {
	q, err := stsparql.Parse(src, s.ns)
	if err != nil {
		return nil, err
	}
	if q.Update == nil {
		return nil, fmt.Errorf("shard: Update wants DELETE/INSERT")
	}
	return q, nil
}

// Update executes a DELETE/INSERT request atomically across shards:
// match and application both run under every member's write lock (taken
// in fixed order), with deletes applied wherever the triple lives and
// inserts routed like loads.
func (s *Store) Update(src string) (stsparql.UpdateStats, error) {
	q, err := s.parseUpdate(src)
	if err != nil {
		return stsparql.UpdateStats{}, err
	}
	s.countUpdate()
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	h := &held{write: make([]bool, len(s.slices)), staticWrite: true}
	for i := range s.slices {
		h.slices = append(h.slices, i)
		h.write[i] = true
	}
	defer s.lockWrite(h)()
	ev := stsparql.NewEvaluatorWithCache(s.viewAll(), s.cache)
	plan, err := ev.PlanUpdate(q.Update)
	if err != nil {
		return stsparql.UpdateStats{}, err
	}
	groups, targets, err := s.route(s.dict.EncodeTriples(plan.Inserts()), h)
	if err != nil {
		return stsparql.UpdateStats{}, err
	}
	var deletes []rdf.EncodedTriple
	for _, t := range plan.Deletes() {
		if enc, ok := s.dict.LookupTriple(t); ok { // a term never interned is in no triple
			deletes = append(deletes, enc)
		}
	}
	stats := s.commit(deletes, groups, targets, h)
	stats.Matched = plan.Matched
	return stats, nil
}

// ApplyFlush implements strabon.API for the acquisition pipeline's
// write. The slices the groups (routed by acquisition timestamp, like
// InsertAll) and f.At land in are the flush's write set; those plus the
// slices covering [f.Since, latest acquisition] and the static store
// are read-locked while the rules run over a strabon.Overlay of them —
// readers proceed beside the refinement. The overlay's net effect is
// then routed and committed under the write locks of the write set
// alone: one short hold, one generation bump per written slice, readers
// of every other slice never stalled. writeMu is held throughout, so
// the state the rules read is the state the commit lands on.
func (s *Store) ApplyFlush(f strabon.Flush, rules func(*strabon.FlushTx) error) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()

	h := &held{write: make([]bool, len(s.slices))}
	latest := f.Since
	lands := func(at time.Time) {
		if at.After(latest) {
			latest = at
		}
		h.write[s.sliceFor(at)] = true
	}
	groups := strabon.EncodeGroups(s.dict, f.Groups)
	timePred := s.timePredID()
	for gi, g := range groups {
		at, ok := s.groupTime(g, timePred)
		if !ok {
			return fmt.Errorf("shard: flush group %d carries no acquisition timestamp", gi)
		}
		lands(at)
	}
	for _, at := range f.At {
		lands(at)
	}
	reads := append([]bool(nil), h.write...)
	if !f.Since.IsZero() {
		for b, n := s.bucket(f.Since), 0; b <= s.bucket(latest) && n < len(s.slices); b, n = b+1, n+1 {
			reads[s.sliceOf(b)] = true
		}
	}
	base := strabon.View{s.static}
	for i, r := range reads {
		if r {
			h.slices = append(h.slices, i)
			base = append(base, s.slices[i])
		}
	}

	// Read phase: refine the overlay, then route its net effect — both
	// only read the held members.
	release := s.lockRead(h.slices)
	o, inserted := strabon.NewOverlay(base, groups)
	err := rules(strabon.NewFlushTx(inserted, o, s.cache))
	var deletes []rdf.EncodedTriple
	var routed [][]rdf.EncodedTriple
	var targets []int
	if err == nil {
		var inserts []rdf.EncodedTriple
		deletes, inserts = o.Effect()
		routed, targets, err = s.route(inserts, h)
	}
	release()
	if err != nil {
		return err
	}

	// Write phase: the write set only.
	defer s.lockWrite(h)()
	s.commit(deletes, routed, targets, h)
	return nil
}

// route groups the triples a write path is about to insert by subject
// and decides where each group lands — by timestamp, then owning slice,
// then static — reading only the members h holds. A group routed to a
// store h may not write fails the whole write before anything is
// applied. Co-location violations latch the split flag here, BEFORE the
// first member-store mutation.
func (s *Store) route(inserts []rdf.EncodedTriple, h *held) (groups [][]rdf.EncodedTriple, targets []int, err error) {
	groups = groupBySubject(inserts)
	targets = make([]int, len(groups))
	timePred := s.timePredID()
	for i, g := range groups {
		targets[i] = s.routeGroup(g, timePred, true, h)
		if !h.writable(targets[i]) {
			return nil, nil, fmt.Errorf("shard: write of %s lands outside the stores the write path holds", s.dict.Decode(g[0].S))
		}
		if !s.split.Load() && s.groupSplits(g, targets[i], h) {
			s.split.Store(true)
		}
	}
	return groups, targets, nil
}

// commit applies routed deletes and inserts under the write locks h
// names: deletes try each write-held store (the partition means at most
// one can hold the triple), inserts land in bulk per target, and every
// written slice then publishes its time summary. The track()
// registration happens BEFORE the first member-store mutation, and the
// publication before the caller's lockWrite release: routing knowledge
// must already cover the new data when the member generations move
// (genorder invariant, enforced by reprolint).
func (s *Store) commit(deletes []rdf.EncodedTriple, groups [][]rdf.EncodedTriple, targets []int, h *held) stsparql.UpdateStats {
	var stats stsparql.UpdateStats
	s.track(groups, targets)

	for _, t := range deletes {
		removed := false
		for _, i := range h.slices {
			if h.write[i] && s.slices[i].RemoveEncoded(t) {
				removed = true
				break
			}
		}
		if removed || (h.staticWrite && s.static.RemoveEncoded(t)) {
			stats.Deleted++
		}
	}

	land := func(target int, st *strabon.Store) {
		var batch [][]rdf.EncodedTriple
		for i, tg := range targets {
			if tg == target {
				batch = append(batch, groups[i])
			}
		}
		for _, n := range st.InsertEncodedLocked(batch...) {
			stats.Inserted += n
		}
	}
	if h.staticWrite {
		land(-1, s.static)
	}
	for _, i := range h.slices {
		if h.write[i] {
			land(i, s.slices[i])
			s.publishSpan(i)
		}
	}
	return stats
}

// timeSpan is a slice's time summary as the router reads it: the
// slice's size and its time index's span of the routing predicate.
type timeSpan struct {
	triples int
	strabon.TimeSpan
}

// loose reports a time literal whose instant order and text order may
// disagree, or that is not indexed at all: lexical windows stop pruning
// (see usableWindows).
func (sp *timeSpan) loose() bool { return sp.NonCanonical > 0 || sp.Other > 0 }

// publishSpan reads slice i's time summary off its time index and
// publishes it to the router. The caller holds slice i's write lock and
// calls it after the hold's last mutation, before the Unlock that bumps
// the slice's generation: a reader that sees the new generation sees the
// summary too. A run that turns loose advances knowGen here, after the
// summary and before the generation: a lexical window stops pruning, so
// partial vectors that do not list this slice must fail validation too.
func (s *Store) publishSpan(i int) {
	m := s.slices[i]
	sp := &timeSpan{
		triples:  m.CountIDs(rdf.Wildcard, rdf.Wildcard, rdf.Wildcard),
		TimeSpan: m.TimeSpanLocked(s.timePredID()),
	}
	if old := s.spans[i].Swap(sp); sp.loose() && (old == nil || !old.loose()) {
		s.knowGen.Add(1)
	}
}

// --- lock helpers ---

// lockAllRead read-locks every member store in fixed order (static,
// then slices ascending) and returns the matching unlock.
func (s *Store) lockAllRead() func() {
	for _, m := range s.members {
		m.RLock()
	}
	return func() {
		for i := len(s.members) - 1; i >= 0; i-- {
			s.members[i].RUnlock()
		}
	}
}

// lockRead read-locks the static store plus the given slices (ascending
// indices) and returns the matching unlock.
func (s *Store) lockRead(idxs []int) func() {
	s.static.RLock()
	for _, i := range idxs {
		s.slices[i].RLock()
	}
	return func() {
		for j := len(idxs) - 1; j >= 0; j-- {
			s.slices[idxs[j]].RUnlock()
		}
		s.static.RUnlock()
	}
}

// lockWrite write-locks the stores h may write, in fixed order — static
// if staticWrite, then the write slices ascending — and returns the
// matching unlock. Write paths only: the caller holds writeMu and no
// member read lock.
func (s *Store) lockWrite(h *held) func() {
	if h.staticWrite {
		s.static.Lock()
	}
	for _, i := range h.slices {
		if h.write[i] {
			s.slices[i].Lock()
		}
	}
	return func() {
		for j := len(h.slices) - 1; j >= 0; j-- {
			if i := h.slices[j]; h.write[i] {
				s.slices[i].Unlock()
			}
		}
		if h.staticWrite {
			s.static.Unlock()
		}
	}
}

// genFor composes the plan-invalidation generation of one slice view.
// Generations only grow, so the sum moves whenever any member mutates.
// Caller must hold the member locks.
func (s *Store) genFor(idx int) uint64 {
	return s.static.Generation() + s.slices[idx].Generation()
}

// genAll composes the union view's generation. Caller must hold every
// member lock.
func (s *Store) genAll() uint64 {
	g := uint64(0)
	for _, m := range s.members {
		g += m.Generation()
	}
	return g
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
// what makes the lock-free empty-prune path sound; the locked fan-out
// paths capture under their read locks anyway.
func (s *Store) fanVector(keyShards []int) resultcache.GenVector {
	gens := make([]resultcache.SliceGen, 0, len(keyShards)+1)
	gens = append(gens, resultcache.SliceGen{Slice: -1, Gen: s.static.Generation()})
	for _, i := range keyShards {
		gens = append(gens, resultcache.SliceGen{Slice: i, Gen: s.slices[i].Generation()})
	}
	return resultcache.GenVector{Gens: gens, Know: s.knowGen.Load(), Partial: true}
}

// GensValid implements strabon.API: a cached result is valid
// iff every member generation its vector lists is unchanged — and, for
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
