// Package member stands in for a member store whose mutators bump the
// shard generation vector.
package member

type Store struct{}

func (s *Store) Add(x string) bool          { return true }
func (s *Store) Remove(x string) bool       { return true }
func (s *Store) InsertAll(xs ...string) int { return 0 }
func (s *Store) Lock()                      {}
func (s *Store) Unlock()                    {}
