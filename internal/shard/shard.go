// Package shard is kept only so the frozen benchmark module (benchmark/)
// compiles unchanged: the time-partitioned store it names lives in
// package strabon now. Its tests are the store's black-box suite,
// written against these names.
package shard

import "repro/internal/strabon"

// Store is strabon.Store.
type Store = strabon.Store

// Config is strabon.Config.
type Config = strabon.Config

// New returns strabon.NewSharded(cfg).
func New(cfg Config) *Store { return strabon.NewSharded(cfg) }
