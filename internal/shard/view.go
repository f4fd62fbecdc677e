package shard

import "repro/internal/strabon"

// view returns the composite source of one slice evaluation: the static
// store plus that slice (see strabon.View).
func (s *Store) view(idx int) strabon.View {
	return strabon.View{s.static, s.slices[idx]}
}

// members enumerates every member store, static first then slices
// ascending — the canonical order of lock acquisition and routed
// application.
func (s *Store) members() []*strabon.Store {
	out := make([]*strabon.Store, 0, len(s.slices)+1)
	out = append(out, s.static)
	return append(out, s.slices...)
}

// viewAll returns the union view over every member store.
func (s *Store) viewAll() strabon.View { return s.members() }
