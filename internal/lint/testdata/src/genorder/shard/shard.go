// Package shard mirrors the real shard store's write-path shape: in
// any function that registers routing knowledge via track, no
// generation bump (member-store mutation or gen counter Add) may
// appear lexically before the track call; no publishSpan and no
// knowGen.Add may follow a member Unlock; and lockWrite's release is
// deferred.
package shard

import (
	"sync/atomic"

	"member"
)

type Store struct {
	m       *member.Store
	gen     atomic.Uint64
	knowGen atomic.Uint64
}

func (s *Store) track(groups []string) {
	s.knowGen.Add(1) // ok: track itself is exempt
}

func (s *Store) goodInsert(groups []string) {
	s.track(groups)
	s.m.InsertAll(groups...) // ok: after track
}

func (s *Store) badInsert(groups []string) {
	s.m.InsertAll(groups...) // bad: mutation before track
	s.track(groups)
}

func (s *Store) badRemove(groups []string) {
	s.m.Remove(groups[0]) // bad
	s.m.Add(groups[0])    // bad
	s.track(groups)
}

func (s *Store) badGenBump(groups []string) {
	s.gen.Add(1) // bad: gen counter bumped before track
	s.track(groups)
}

func (s *Store) helperNoTrack(groups []string) {
	s.m.Add(groups[0]) // ok: no track call in this function
}

func (s *Store) allowedOrder(groups []string) {
	//lint:allow genorder fixture pins the suppression pragma
	s.m.Add(groups[0])
	s.track(groups)
}

func (s *Store) publishSpan()      { s.knowGen.Add(1) } // ok: no Unlock before it
func (s *Store) lockWrite() func() { s.m.Lock(); return s.m.Unlock }

func (s *Store) goodPublish() {
	s.m.Lock()
	s.m.Add("x")
	s.publishSpan() // ok: before the Unlock
	s.m.Unlock()
}

func (s *Store) goodDeferredRelease() {
	defer s.lockWrite()()
	s.m.Add("x")
	s.publishSpan() // ok: the deferred release runs after it
}

func (s *Store) badPublish() {
	s.m.Lock()
	s.m.Unlock()
	s.publishSpan()  // bad: the generation moved first
	s.knowGen.Add(1) // bad
}

func (s *Store) badRelease() {
	release := s.lockWrite() // bad: a release the hold's publications may follow
	s.m.Add("x")
	release()
	s.publishSpan()
}
