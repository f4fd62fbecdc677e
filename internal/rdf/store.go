package rdf

// EncodedTriple is a dictionary-encoded statement.
type EncodedTriple struct {
	S, P, O ID
}

// index is a two-level map from first key to second key to a set of third
// keys. Three instances in different orders give the SPO, POS and OSP
// access paths of the store.
type index map[ID]map[ID]map[ID]struct{}

func (ix index) add(a, b, c ID) bool {
	m1, ok := ix[a]
	if !ok {
		m1 = make(map[ID]map[ID]struct{})
		ix[a] = m1
	}
	m2, ok := m1[b]
	if !ok {
		m2 = make(map[ID]struct{})
		m1[b] = m2
	}
	if _, exists := m2[c]; exists {
		return false
	}
	m2[c] = struct{}{}
	return true
}

func (ix index) remove(a, b, c ID) bool {
	m1, ok := ix[a]
	if !ok {
		return false
	}
	m2, ok := m1[b]
	if !ok {
		return false
	}
	if _, exists := m2[c]; !exists {
		return false
	}
	delete(m2, c)
	if len(m2) == 0 {
		delete(m1, b)
		if len(m1) == 0 {
			delete(ix, a)
		}
	}
	return true
}

// Store is an in-memory dictionary-encoded triple store with three
// complete orderings, the classic layout of RDF column stores (and of
// Strabon's underlying schema). Alongside the indexes it maintains cheap
// cardinality statistics — triples and distinct subjects per predicate —
// kept up to date on every Add/Remove, so a query planner can cost join
// orders in O(1) per estimate.
type Store struct {
	dict *Dictionary
	spo  index
	pos  index
	osp  index
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
		spo:       make(index),
		pos:       make(index),
		osp:       make(index),
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
	if !s.spo.add(t.S, t.P, t.O) {
		return false
	}
	s.pos.add(t.P, t.O, t.S)
	s.osp.add(t.O, t.S, t.P)
	s.size++
	s.predCount[t.P]++
	if len(s.spo[t.S][t.P]) == 1 {
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
	if !s.spo.remove(t.S, t.P, t.O) {
		return false
	}
	s.pos.remove(t.P, t.O, t.S)
	s.osp.remove(t.O, t.S, t.P)
	s.size--
	if s.predCount[t.P]--; s.predCount[t.P] == 0 {
		delete(s.predCount, t.P)
	}
	if _, ok := s.spo[t.S][t.P]; !ok {
		if s.predSubj[t.P]--; s.predSubj[t.P] == 0 {
			delete(s.predSubj, t.P)
		}
	}
	return true
}

// Has reports whether the triple is present.
func (s *Store) Has(t Triple) bool {
	enc, ok := s.dict.LookupTriple(t)
	return ok && s.Count(enc.S, enc.P, enc.O) > 0
}

// MatchIDs streams every encoded triple matching the pattern, where
// Wildcard (0) components match anything, choosing the index ordering
// from the bound components. visit returns false to stop the scan;
// MatchIDs reports whether it ran to its end, so a caller concatenating
// several scans knows when to stop without wrapping the visitor.
func (s *Store) MatchIDs(sub, pred, obj ID, visit func(EncodedTriple) bool) bool {
	switch {
	case sub != Wildcard && pred != Wildcard && obj != Wildcard:
		if _, ok := s.spo[sub][pred][obj]; ok {
			return visit(EncodedTriple{sub, pred, obj})
		}
	case sub != Wildcard && pred != Wildcard:
		for o := range s.spo[sub][pred] {
			if !visit(EncodedTriple{sub, pred, o}) {
				return false
			}
		}
	case sub != Wildcard:
		for p, m2 := range s.spo[sub] {
			if obj != Wildcard {
				// S and O bound: scan predicates of subject.
				if _, ok := m2[obj]; ok && !visit(EncodedTriple{sub, p, obj}) {
					return false
				}
				continue
			}
			for o := range m2 {
				if !visit(EncodedTriple{sub, p, o}) {
					return false
				}
			}
		}
	case pred != Wildcard && obj != Wildcard:
		for sid := range s.pos[pred][obj] {
			if !visit(EncodedTriple{sid, pred, obj}) {
				return false
			}
		}
	case pred != Wildcard:
		for o, m2 := range s.pos[pred] {
			for sid := range m2 {
				if !visit(EncodedTriple{sid, pred, o}) {
					return false
				}
			}
		}
	case obj != Wildcard:
		for sid, m2 := range s.osp[obj] {
			for p := range m2 {
				if !visit(EncodedTriple{sid, p, obj}) {
					return false
				}
			}
		}
	default:
		for sid, m1 := range s.spo {
			for p, m2 := range m1 {
				for o := range m2 {
					if !visit(EncodedTriple{sid, p, o}) {
						return false
					}
				}
			}
		}
	}
	return true
}

// Triples returns all triples, decoded. Intended for tests and small
// exports; large scans should use MatchIDs.
func (s *Store) Triples() []Triple {
	out := make([]Triple, 0, s.size)
	s.MatchIDs(Wildcard, Wildcard, Wildcard, func(t EncodedTriple) bool {
		out = append(out, s.dict.DecodeTriple(t))
		return true
	})
	return out
}

// --- cardinality statistics (the planner's cost inputs) ---

// Count returns the exact number of triples matching an encoded pattern
// without enumerating them: every case is answered from index map
// lengths or the maintained per-predicate counters. Worst case is O(number
// of predicates of one subject or object), typically a handful.
func (s *Store) Count(sub, pred, obj ID) int {
	switch {
	case sub != Wildcard && pred != Wildcard && obj != Wildcard:
		if _, ok := s.spo[sub][pred][obj]; ok {
			return 1
		}
		return 0
	case sub != Wildcard && pred != Wildcard:
		return len(s.spo[sub][pred])
	case pred != Wildcard && obj != Wildcard:
		return len(s.pos[pred][obj])
	case sub != Wildcard && obj != Wildcard:
		n := 0
		for _, m2 := range s.spo[sub] {
			if _, ok := m2[obj]; ok {
				n++
			}
		}
		return n
	case sub != Wildcard:
		n := 0
		for _, m2 := range s.spo[sub] {
			n += len(m2)
		}
		return n
	case pred != Wildcard:
		return s.predCount[pred]
	case obj != Wildcard:
		n := 0
		for _, m2 := range s.osp[obj] {
			n += len(m2)
		}
		return n
	default:
		return s.size
	}
}

// CountPattern returns the exact number of triples matching a term
// pattern (zero Terms are wildcards) in near-constant time. Terms absent
// from the dictionary match nothing.
func (s *Store) CountPattern(sub, pred, obj Term) int {
	var sid, pid, oid ID
	var ok bool
	if !sub.IsZero() {
		if sid, ok = s.dict.Lookup(sub); !ok {
			return 0
		}
	}
	if !pred.IsZero() {
		if pid, ok = s.dict.Lookup(pred); !ok {
			return 0
		}
	}
	if !obj.IsZero() {
		if oid, ok = s.dict.Lookup(obj); !ok {
			return 0
		}
	}
	return s.Count(sid, pid, oid)
}

// PredicateCard reports per-predicate cardinalities: total triples,
// distinct subjects and distinct objects. All three are O(1).
func (s *Store) PredicateCard(pred Term) (triples, distinctS, distinctO int) {
	pid, ok := s.dict.Lookup(pred)
	if !ok {
		return 0, 0, 0
	}
	return s.predCount[pid], s.predSubj[pid], len(s.pos[pid])
}

// StoreCard reports store-level cardinalities: total triples and the
// distinct subject, predicate and object counts. All four are O(1).
func (s *Store) StoreCard() (triples, subjects, predicates, objects int) {
	return s.size, len(s.spo), len(s.pos), len(s.osp)
}

// SubjectSet returns the set of subjects carrying (pred, obj), both
// bound: the store's own index entry, nil when there is none. Callers
// only read it, and only while the store is not being written.
func (s *Store) SubjectSet(pred, obj ID) map[ID]struct{} { return s.pos[pred][obj] }

// Subjects returns the distinct subject IDs with predicate pred and object
// obj (either may be Wildcard).
func (s *Store) Subjects(pred, obj ID) []ID {
	seen := make(map[ID]struct{})
	var out []ID
	s.MatchIDs(Wildcard, pred, obj, func(t EncodedTriple) bool {
		if _, dup := seen[t.S]; !dup {
			seen[t.S] = struct{}{}
			out = append(out, t.S)
		}
		return true
	})
	return out
}
