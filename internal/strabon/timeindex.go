package strabon

import (
	"fmt"
	"sort"

	"repro/internal/rdf"
	"repro/internal/stsparql"
)

// The time index: the valid-time access path beside the R-tree. Per
// predicate whose objects are xsd:dateTime literals the store keeps the
// (instant, subject, object) entries of its triples as one run sorted by
// instant, so "the hotspots of this acquisition window" is two binary
// searches and a slice walk instead of a predicate scan and a string
// comparison per row. Acquisitions arrive in order, so maintenance is an
// append; a bulk load that does bring older data sorts the run once.
// Like the spatial index it is guarded by the store's RWMutex and exact
// under every write path (Add, Remove, InsertEncodedLocked and through them
// the ApplyFlush commit), inside the write-lock hold whose release
// publishes the generation.

type timeEntry struct {
	unix int64
	s, o rdf.ID
}

// timeRun is one predicate's index.
type timeRun struct {
	entries []timeEntry // ascending unix once settled
	// unsorted marks a run an insert appended to out of order; the write
	// path settles it before releasing the lock.
	unsorted bool
	// nonCanonical counts entries whose literal is not in the canonical
	// unzoned form; other counts the predicate's triples that are not
	// indexed at all (objects that are no parseable xsd:dateTime). The
	// run serves a range only while other is zero — the range must not
	// miss a triple a filter could accept — and a lexical one only while
	// nonCanonical is zero too (see stsparql.TimeWindow).
	nonCanonical int
	other        int
}

func (r *timeRun) serves(w stsparql.TimeWindow) bool {
	return r.other == 0 && (!w.Lexical || r.nonCanonical == 0)
}

// span returns the half-open entry range whose instants lie in [lo, hi].
func (r *timeRun) span(w stsparql.TimeWindow) (i, j int) {
	i = sort.Search(len(r.entries), func(k int) bool { return r.entries[k].unix >= w.Lo })
	j = i + sort.Search(len(r.entries)-i, func(k int) bool { return r.entries[i+k].unix > w.Hi })
	return i, j
}

// timeAdd indexes a triple just added to the store (write lock held)
// and reports whether its run now needs settling.
func (s *Store) timeAdd(enc rdf.EncodedTriple) bool {
	run := s.times[enc.P]
	unix, canonical, ok := stsparql.TimeKey(s.triples.Dict().Decode(enc.O))
	if run == nil {
		if !ok {
			return false
		}
		// The predicate's first dateTime: whatever it carried before is
		// unindexed.
		run = &timeRun{other: s.triples.Count(rdf.Wildcard, enc.P, rdf.Wildcard) - 1}
		s.times[enc.P] = run
	}
	if !ok {
		run.other++
		return false
	}
	if !canonical {
		run.nonCanonical++
	}
	if n := len(run.entries); n > 0 && unix < run.entries[n-1].unix {
		run.unsorted = true
	}
	run.entries = append(run.entries, timeEntry{unix: unix, s: enc.S, o: enc.O})
	return run.unsorted
}

// settleTimes sorts the runs out-of-order inserts left unsorted.
func (s *Store) settleTimes() {
	for _, run := range s.times {
		if run.unsorted {
			sort.Slice(run.entries, func(i, j int) bool { return run.entries[i].unix < run.entries[j].unix })
			run.unsorted = false
		}
	}
}

// timeRemove drops a triple just removed from the store from its run.
func (s *Store) timeRemove(enc rdf.EncodedTriple) {
	run := s.times[enc.P]
	if run == nil {
		return
	}
	unix, canonical, ok := stsparql.TimeKey(s.triples.Dict().Decode(enc.O))
	if !ok {
		run.other--
		return
	}
	i, j := run.span(stsparql.TimeWindow{Lo: unix, Hi: unix})
	for ; i < j; i++ {
		if e := run.entries[i]; e.s == enc.S && e.o == enc.O {
			run.entries = append(run.entries[:i], run.entries[i+1:]...)
			if !canonical {
				run.nonCanonical--
			}
			return
		}
	}
}

// --- stsparql.TimeRangeSource ---
// Like the other source methods these run with the store lock already
// held by the calling endpoint method.

// CountTimeRange implements stsparql.TimeRangeSource. A predicate the
// store holds no triple of is served trivially, so a composite view's
// empty members never veto the others.
func (s *Store) CountTimeRange(p rdf.Term, w stsparql.TimeWindow) (int, bool) {
	pid, ok := s.triples.Dict().Lookup(p)
	if !ok {
		return 0, true
	}
	run := s.times[pid]
	if run == nil {
		return 0, s.triples.Count(rdf.Wildcard, pid, rdf.Wildcard) == 0
	}
	if !run.serves(w) {
		return 0, false
	}
	i, j := run.span(w)
	return j - i, true
}

// MatchTimeRangeIDs implements stsparql.TimeRangeSource: the index
// range when it is exact for w, the whole predicate otherwise.
func (s *Store) MatchTimeRangeIDs(p rdf.ID, w stsparql.TimeWindow, visit func(rdf.EncodedTriple) bool) bool {
	run := s.times[p]
	if run == nil || !run.serves(w) {
		return s.triples.MatchIDs(rdf.Wildcard, p, rdf.Wildcard, visit)
	}
	i, j := run.span(w)
	for _, e := range run.entries[i:j] {
		if !visit(rdf.EncodedTriple{S: e.s, P: p, O: e.o}) {
			return false
		}
	}
	return true
}

// TimeIndexStats reports the time index's size and the instants of its
// first and last entry (unix seconds; zero when empty) over every run.
func (s *Store) TimeIndexStats() (entries int, minUnix, maxUnix int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, run := range s.times {
		if len(run.entries) == 0 {
			continue
		}
		first, last := run.entries[0].unix, run.entries[len(run.entries)-1].unix
		if entries == 0 || first < minUnix {
			minUnix = first
		}
		if entries == 0 || last > maxUnix {
			maxUnix = last
		}
		entries += len(run.entries)
	}
	return entries, minUnix, maxUnix
}

// TimeSpan is what the time index knows of one predicate: its entry
// count, the instants of its first and last entry (unix seconds; zero
// when empty), and how many of its literals are non-canonical or not
// indexed at all (see timeRun).
type TimeSpan struct {
	Entries          int
	MinUnix, MaxUnix int64
	NonCanonical     int
	Other            int
}

// TimeSpanLocked reports the time index's span of predicate p. The
// caller holds the store lock (composite-store use: the sharded store
// reads it under a member's write lock).
func (s *Store) TimeSpanLocked(p rdf.ID) TimeSpan {
	run := s.times[p]
	if run == nil {
		if p == rdf.Wildcard {
			return TimeSpan{}
		}
		return TimeSpan{Other: s.triples.Count(rdf.Wildcard, p, rdf.Wildcard)}
	}
	sp := TimeSpan{Entries: len(run.entries), NonCanonical: run.nonCanonical, Other: run.other}
	if n := len(run.entries); n > 0 {
		sp.MinUnix, sp.MaxUnix = run.entries[0].unix, run.entries[n-1].unix
	}
	return sp
}

// VerifyTimeIndex recounts the index from the triples (caller holds the
// store lock): every run settled and in order, every entry a distinct
// triple the store still holds under the instant its literal parses to,
// and entries, non-canonical entries and unindexed objects agreeing
// with a scan of the store.
func (s *Store) VerifyTimeIndex() error {
	d := s.triples.Dict()
	type tally struct{ indexed, nonCanonical, other int }
	want := make(map[rdf.ID]*tally)
	s.triples.MatchIDs(rdf.Wildcard, rdf.Wildcard, rdf.Wildcard, func(t rdf.EncodedTriple) bool {
		c := want[t.P]
		if c == nil {
			c = &tally{}
			want[t.P] = c
		}
		switch _, canonical, ok := stsparql.TimeKey(d.Decode(t.O)); {
		case !ok:
			c.other++
		case canonical:
			c.indexed++
		default:
			c.indexed++
			c.nonCanonical++
		}
		return true
	})
	for pid, c := range want {
		if c.indexed > 0 && s.times[pid] == nil {
			return fmt.Errorf("time index misses predicate %s", d.Decode(pid))
		}
	}
	for pid, run := range s.times {
		p := d.Decode(pid)
		c := want[pid]
		if c == nil {
			c = &tally{}
		}
		if run.unsorted {
			return fmt.Errorf("time index of %s left unsorted", p)
		}
		if len(run.entries) != c.indexed || run.nonCanonical != c.nonCanonical || run.other != c.other {
			return fmt.Errorf("time index of %s holds %d entries (%d non-canonical) + %d unindexed, store has %d (%d) + %d",
				p, len(run.entries), run.nonCanonical, run.other, c.indexed, c.nonCanonical, c.other)
		}
		seen := make(map[[2]rdf.ID]bool, len(run.entries))
		for i, e := range run.entries {
			if i > 0 && e.unix < run.entries[i-1].unix {
				return fmt.Errorf("time index of %s out of order at entry %d", p, i)
			}
			t := rdf.Triple{S: d.Decode(e.s), P: p, O: d.Decode(e.o)}
			if seen[[2]rdf.ID{e.s, e.o}] || s.triples.Count(e.s, pid, e.o) == 0 {
				return fmt.Errorf("time index of %s holds a removed or repeated triple %s", p, t)
			}
			seen[[2]rdf.ID{e.s, e.o}] = true
			if unix, _, _ := stsparql.TimeKey(t.O); unix != e.unix {
				return fmt.Errorf("time index of %s keys %s at %d", p, t.O, e.unix)
			}
		}
	}
	return nil
}
