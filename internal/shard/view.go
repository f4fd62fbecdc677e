package shard

import "repro/internal/strabon"

// view returns the composite source of one slice evaluation: the static
// store plus that slice (see strabon.View).
func (s *Store) view(idx int) strabon.View {
	return strabon.View{s.static, s.slices[idx]}
}

// viewAll returns the union view over every member store.
func (s *Store) viewAll() strabon.View { return s.members }
