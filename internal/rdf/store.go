package rdf

import (
	"maps"
	"slices"
)

// EncodedTriple is a dictionary-encoded statement.
type EncodedTriple struct {
	S, P, O ID
}

// spillSize is the length past which a set leaves its sorted slice for a
// map, so the few very large sets — the subjects of one class, the
// (subject, predicate) pairs of a class object — keep O(1) insert and
// delete. A map shrinks back to a slice at half this size.
const spillSize = 64

// set is a set of K: a sorted slice while small, a map past spillSize.
// Nearly every set of the store holds a handful of elements, so the slice
// is what they cost: no map header, no buckets.
type set[K ID | uint64] struct {
	sorted []K
	big    map[K]struct{}
}

// IDSet is a set of IDs: the subjects of one (predicate, object) pair.
type IDSet = set[ID]

// SortedIDSet is the set of ids, which must be sorted and distinct.
func SortedIDSet(ids []ID) IDSet { return IDSet{sorted: ids} }

// Len reports the number of elements.
func (st set[K]) Len() int {
	if st.big != nil {
		return len(st.big)
	}
	return len(st.sorted)
}

// Has reports whether k is an element.
func (st set[K]) Has(k K) bool {
	if st.big != nil {
		_, ok := st.big[k]
		return ok
	}
	_, ok := slices.BinarySearch(st.sorted, k)
	return ok
}

func (st *set[K]) add(k K) bool {
	if st.big != nil {
		if _, ok := st.big[k]; ok {
			return false
		}
		st.big[k] = struct{}{}
		return true
	}
	i, ok := slices.BinarySearch(st.sorted, k)
	if ok {
		return false
	}
	if len(st.sorted) < spillSize {
		st.sorted = slices.Insert(st.sorted, i, k)
		return true
	}
	st.big = make(map[K]struct{}, 2*spillSize)
	for _, e := range st.sorted {
		st.big[e] = struct{}{}
	}
	st.big[k] = struct{}{}
	st.sorted = nil
	return true
}

func (st *set[K]) remove(k K) bool {
	if st.big == nil {
		i, ok := slices.BinarySearch(st.sorted, k)
		if ok {
			st.sorted = slices.Delete(st.sorted, i, i+1)
		}
		return ok
	}
	if _, ok := st.big[k]; !ok {
		return false
	}
	delete(st.big, k)
	if len(st.big) <= spillSize/2 {
		st.sorted = slices.Sorted(maps.Keys(st.big))
		st.big = nil
	}
	return true
}

// Each visits the elements — in order while the set is a slice — until
// visit returns false, and reports whether it ran to the end.
func (st set[K]) Each(visit func(K) bool) bool {
	if st.big != nil {
		for k := range st.big {
			if !visit(k) {
				return false
			}
		}
		return true
	}
	for _, k := range st.sorted {
		if !visit(k) {
			return false
		}
	}
	return true
}

// eachLow visits the low halves of the packed pairs whose high half is hi.
func eachLow(st set[uint64], hi ID, visit func(lo ID) bool) bool {
	if st.big != nil {
		return st.Each(func(k uint64) bool { return ID(k>>32) != hi || visit(ID(k)) })
	}
	i, _ := slices.BinarySearch(st.sorted, pack(hi, 0))
	for _, k := range st.sorted[i:] {
		if ID(k>>32) != hi {
			break
		}
		if !visit(ID(k)) {
			return false
		}
	}
	return true
}

func pack(hi, lo ID) uint64 { return uint64(hi)<<32 | uint64(lo) }

func unpack(k uint64) (hi, lo ID) { return ID(k >> 32), ID(k) }

func addTo[K ID | uint64](m map[ID]set[K], key ID, k K) bool {
	st := m[key]
	if !st.add(k) {
		return false
	}
	m[key] = st
	return true
}

func removeFrom[K ID | uint64](m map[ID]set[K], key ID, k K) bool {
	st := m[key]
	if !st.remove(k) {
		return false
	}
	if st.Len() == 0 {
		delete(m, key)
	} else {
		m[key] = st
	}
	return true
}

// Store is an in-memory dictionary-encoded triple store with three
// complete orderings, the classic layout of RDF column stores (and of
// Strabon's underlying schema), kept as sorted ID sets: spo maps a
// subject to its packed (predicate, object) pairs, osp an object to its
// packed (subject, predicate) pairs, and pos a predicate and object to
// their subjects. Alongside the indexes it
// maintains cheap cardinality statistics — triples and distinct subjects
// per predicate — kept up to date on every Add/Remove, so a query planner
// can cost join orders in O(1) per estimate.
type Store struct {
	dict *Dictionary
	spo  map[ID]set[uint64]
	pos  map[ID]map[ID]IDSet
	osp  map[ID]set[uint64]
	size int

	// predCount counts triples per predicate; predSubj counts distinct
	// subjects per predicate (distinct objects come free as len(pos[p])).
	predCount map[ID]int
	predSubj  map[ID]int
}

// NewStore returns an empty store with a fresh dictionary.
func NewStore() *Store { return NewStoreOver(NewDictionary()) }

// NewStoreOver returns an empty store encoding into dict — how the
// members of one store topology share a single ID space.
func NewStoreOver(dict *Dictionary) *Store {
	return &Store{
		dict:      dict,
		spo:       make(map[ID]set[uint64]),
		pos:       make(map[ID]map[ID]IDSet),
		osp:       make(map[ID]set[uint64]),
		predCount: make(map[ID]int),
		predSubj:  make(map[ID]int),
	}
}

// Dict exposes the store's dictionary.
func (s *Store) Dict() *Dictionary { return s.dict }

// Len reports the number of distinct triples.
func (s *Store) Len() int { return s.size }

// Add inserts a triple; it reports whether the triple was new.
func (s *Store) Add(t Triple) bool { return s.AddEncoded(s.dict.EncodeTriple(t)) }

// AddEncoded inserts an already-encoded triple.
func (s *Store) AddEncoded(t EncodedTriple) bool {
	if !addTo(s.spo, t.S, pack(t.P, t.O)) {
		return false
	}
	po := s.pos[t.P]
	if po == nil {
		po = make(map[ID]IDSet)
		s.pos[t.P] = po
	}
	addTo(po, t.O, t.S)
	addTo(s.osp, t.O, pack(t.S, t.P))
	s.size++
	s.predCount[t.P]++
	if s.CountIDs(t.S, t.P, Wildcard) == 1 {
		s.predSubj[t.P]++
	}
	return true
}

// Remove deletes a triple; it reports whether the triple was present.
func (s *Store) Remove(t Triple) bool {
	enc, ok := s.dict.LookupTriple(t)
	return ok && s.RemoveEncoded(enc)
}

// RemoveEncoded deletes an encoded triple.
func (s *Store) RemoveEncoded(t EncodedTriple) bool {
	if !removeFrom(s.spo, t.S, pack(t.P, t.O)) {
		return false
	}
	po := s.pos[t.P]
	if removeFrom(po, t.O, t.S); len(po) == 0 {
		delete(s.pos, t.P)
	}
	removeFrom(s.osp, t.O, pack(t.S, t.P))
	s.size--
	if s.predCount[t.P]--; s.predCount[t.P] == 0 {
		delete(s.predCount, t.P)
	}
	if s.CountIDs(t.S, t.P, Wildcard) == 0 {
		if s.predSubj[t.P]--; s.predSubj[t.P] == 0 {
			delete(s.predSubj, t.P)
		}
	}
	return true
}

// MatchIDs streams every encoded triple matching the pattern, where
// Wildcard (0) components match anything, choosing the index ordering
// from the bound components. visit returns false to stop the scan;
// MatchIDs reports whether it ran to its end, so a caller concatenating
// several scans knows when to stop without wrapping the visitor.
func (s *Store) MatchIDs(sub, pred, obj ID, visit func(EncodedTriple) bool) bool {
	switch {
	case sub != Wildcard && pred != Wildcard && obj != Wildcard:
		if s.spo[sub].Has(pack(pred, obj)) {
			return visit(EncodedTriple{sub, pred, obj})
		}
	case sub != Wildcard && pred != Wildcard:
		return eachLow(s.spo[sub], pred, func(o ID) bool { return visit(EncodedTriple{sub, pred, o}) })
	case sub != Wildcard && obj != Wildcard:
		// Walk whichever of the subject's pairs and the object's is shorter.
		po, sp := s.spo[sub], s.osp[obj]
		if sp.Len() < po.Len() {
			return eachLow(sp, sub, func(p ID) bool { return visit(EncodedTriple{sub, p, obj}) })
		}
		return po.Each(func(k uint64) bool {
			p, o := unpack(k)
			return o != obj || visit(EncodedTriple{sub, p, obj})
		})
	case sub != Wildcard:
		return s.spo[sub].Each(func(k uint64) bool {
			p, o := unpack(k)
			return visit(EncodedTriple{sub, p, o})
		})
	case pred != Wildcard && obj != Wildcard:
		return s.pos[pred][obj].Each(func(sid ID) bool { return visit(EncodedTriple{sid, pred, obj}) })
	case pred != Wildcard:
		for o, subs := range s.pos[pred] {
			if !subs.Each(func(sid ID) bool { return visit(EncodedTriple{sid, pred, o}) }) {
				return false
			}
		}
	case obj != Wildcard:
		return s.osp[obj].Each(func(k uint64) bool {
			sid, p := unpack(k)
			return visit(EncodedTriple{sid, p, obj})
		})
	default:
		for sid, po := range s.spo {
			if !po.Each(func(k uint64) bool {
				p, o := unpack(k)
				return visit(EncodedTriple{sid, p, o})
			}) {
				return false
			}
		}
	}
	return true
}

// --- cardinality statistics (the planner's cost inputs) ---

// CountIDs returns the exact number of triples matching an encoded
// pattern. With the subject unbound, or bound alone, the answer is a set
// length or a maintained per-predicate counter; otherwise CountIDs
// counts the subject's matches, a run of its sorted pairs — typically a
// handful.
func (s *Store) CountIDs(sub, pred, obj ID) int {
	switch {
	case sub == Wildcard && pred == Wildcard && obj == Wildcard:
		return s.size
	case sub == Wildcard && pred == Wildcard:
		return s.osp[obj].Len()
	case sub == Wildcard && obj == Wildcard:
		return s.predCount[pred]
	case sub == Wildcard:
		return s.pos[pred][obj].Len()
	case pred == Wildcard && obj == Wildcard:
		return s.spo[sub].Len()
	}
	n := 0
	s.MatchIDs(sub, pred, obj, func(EncodedTriple) bool { n++; return true })
	return n
}

// PredicateCard reports per-predicate cardinalities: total triples,
// distinct subjects and distinct objects. All three are O(1).
func (s *Store) PredicateCard(pred ID) (triples, distinctS, distinctO int) {
	return s.predCount[pred], s.predSubj[pred], len(s.pos[pred])
}

// StoreCard reports store-level cardinalities: total triples and the
// distinct subject, predicate and object counts. All four are O(1).
func (s *Store) StoreCard() (triples, subjects, predicates, objects int) {
	return s.size, len(s.spo), len(s.pos), len(s.osp)
}

// SubjectSet returns the set of subjects carrying (pred, obj), both
// bound: the store's own index entry, empty when there is none. Callers
// only read it, and only while the store is not being written.
func (s *Store) SubjectSet(pred, obj ID) IDSet { return s.pos[pred][obj] }
