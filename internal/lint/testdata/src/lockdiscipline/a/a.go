// Package a is the lockdiscipline fixture: reader entry points
// (QueryStream, QueryStreamCtx, Explain) must not reach a write-lock
// acquisition through any call chain.
package a

import (
	"sync"

	"member"
)

type Store struct {
	mu      sync.RWMutex
	writeMu sync.Mutex
	m       *member.Store
}

// QueryStream is a reader entry; badHelper reaches an RWMutex write
// Lock one hop down.
func (s *Store) QueryStream() {
	s.goodPath()
	s.badHelper()
	s.allowedHelper()
}

func (s *Store) badHelper() {
	s.mu.Lock() // bad: write lock on the reader path
	s.mu.Unlock()
}

// QueryStreamCtx reaches the writer mutex through two hops.
func (s *Store) QueryStreamCtx() { s.hop1() }
func (s *Store) hop1()           { s.hop2() }
func (s *Store) hop2() {
	s.writeMu.Lock() // bad: writer mutex two hops from a reader entry
	s.writeMu.Unlock()
}

// Explain takes a member-store write lock directly.
func (s *Store) Explain() {
	s.m.Lock() // bad: member write lock from a reader entry
	s.m.Unlock()
}

// Update is a writer, not a reader entry: write locks are fine here.
func (s *Store) Update() {
	s.mu.Lock()
	s.mu.Unlock()
	s.lockAllWrite()
}

func (s *Store) lockAllWrite() {
	s.m.Lock()
	s.m.Unlock()
}

// goodPath only ever takes read locks.
func (s *Store) goodPath() {
	s.mu.RLock()
	s.mu.RUnlock()
	s.m.RLock()
	s.m.RUnlock()
}

func (s *Store) allowedHelper() {
	//lint:allow lockdiscipline fixture pins the suppression pragma
	s.mu.Lock()
	s.mu.Unlock()
}

// source hides the lock acquisition behind an interface: the walk
// must fan out to every implementation.
type source interface{ Acquire() }

type IfaceStore struct{ src source }

func (is *IfaceStore) QueryStream() { is.src.Acquire() }

type impl struct{ mu sync.RWMutex }

func (i *impl) Acquire() {
	i.mu.Lock() // bad: reached through interface dispatch
	i.mu.Unlock()
}

// ApplyFlush is the flush entry: a write path that refines under the
// read lock and commits under the write lock. Releasing first is fine.
func (s *Store) ApplyFlush() {
	s.mu.RLock()
	s.mu.RUnlock()
	s.mu.Lock()
	s.mu.Unlock()
	s.flushHelperUpgrade()
	s.flushMemberUpgrade()
}

func (s *Store) lockRead() func()  { s.m.RLock(); return s.m.RUnlock }
func (s *Store) lockWrite() func() { s.m.Lock(); return s.m.Unlock }

// flushHelperUpgrade takes the write locks while the read helper's
// release is still pending: the RWMutex is not upgradable.
func (s *Store) flushHelperUpgrade() {
	release := s.lockRead()
	unlock := s.lockWrite() // bad: release() has not run yet
	unlock()
	release()

	release = s.lockRead()
	release()
	defer s.lockWrite()() // fine: released first
}

// flushMemberUpgrade upgrades one mutex in place.
func (s *Store) flushMemberUpgrade() {
	s.mu.RLock()
	s.mu.Lock() // bad: still read-locked
	s.mu.Unlock()
	s.mu.RUnlock()
}
