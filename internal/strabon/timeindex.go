package strabon

import (
	"fmt"
	"sort"

	"repro/internal/rdf"
	"repro/internal/stsparql"
)

// The time index: the valid-time access path beside the R-tree. Per
// predicate whose objects are xsd:dateTime literals a member keeps the
// (instant, subject, object) entries of its triples as one run sorted by
// instant, so "the hotspots of this acquisition window" is two binary
// searches and a slice walk instead of a predicate scan and a string
// comparison per row. Acquisitions arrive in order, so maintenance is an
// append; a bulk load that does bring older data sorts the run once.
// Like the spatial index it is guarded by the member's RWMutex and exact
// under every write path (addEncoded, RemoveEncoded, InsertEncodedLocked
// and through them every Store write), inside the write-lock hold whose
// release publishes the generation.

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
func (m *member) timeAdd(enc rdf.EncodedTriple) bool {
	run := m.times[enc.P]
	unix, canonical, ok := stsparql.TimeKey(m.triples.Dict().Decode(enc.O))
	if run == nil {
		if !ok {
			return false
		}
		// The predicate's first dateTime: whatever it carried before is
		// unindexed.
		run = &timeRun{other: m.triples.Count(rdf.Wildcard, enc.P, rdf.Wildcard) - 1}
		m.times[enc.P] = run
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
func (m *member) settleTimes() {
	for _, run := range m.times {
		if run.unsorted {
			sort.Slice(run.entries, func(i, j int) bool { return run.entries[i].unix < run.entries[j].unix })
			run.unsorted = false
		}
	}
}

// timeRemove drops a triple just removed from the store from its run.
func (m *member) timeRemove(enc rdf.EncodedTriple) {
	run := m.times[enc.P]
	if run == nil {
		return
	}
	unix, canonical, ok := stsparql.TimeKey(m.triples.Dict().Decode(enc.O))
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
// Like the other source methods these run with the member's lock
// already held by the Store.

// CountTimeRange implements stsparql.TimeRangeSource. A predicate the
// member holds no triple of is served trivially, so a composite view's
// empty members never veto the others.
func (m *member) CountTimeRange(p rdf.Term, w stsparql.TimeWindow) (int, bool) {
	pid, ok := m.triples.Dict().Lookup(p)
	if !ok {
		return 0, true
	}
	run := m.times[pid]
	if run == nil {
		return 0, m.triples.Count(rdf.Wildcard, pid, rdf.Wildcard) == 0
	}
	if !run.serves(w) {
		return 0, false
	}
	i, j := run.span(w)
	return j - i, true
}

// MatchTimeRangeIDs implements stsparql.TimeRangeSource: the index
// range when it is exact for w, the whole predicate otherwise.
func (m *member) MatchTimeRangeIDs(p rdf.ID, w stsparql.TimeWindow, visit func(rdf.EncodedTriple) bool) bool {
	run := m.times[p]
	if run == nil || !run.serves(w) {
		return m.triples.MatchIDs(rdf.Wildcard, p, rdf.Wildcard, visit)
	}
	i, j := run.span(w)
	for _, e := range run.entries[i:j] {
		if !visit(rdf.EncodedTriple{S: e.s, P: p, O: e.o}) {
			return false
		}
	}
	return true
}

// timeSpan is what a member's time index knows of one predicate: its
// entry count, the instants of its first and last entry (unix seconds;
// zero when empty), and how many of its literals are non-canonical or
// not indexed at all (see timeRun); triples is the member's size. The
// router publishes one per slice (see publishSpan).
type timeSpan struct {
	triples          int
	Entries          int
	MinUnix, MaxUnix int64
	NonCanonical     int
	Other            int
}

// loose reports a time literal whose instant order and text order may
// disagree, or that is not indexed at all: lexical windows stop pruning
// (see usableWindows).
func (sp *timeSpan) loose() bool { return sp.NonCanonical > 0 || sp.Other > 0 }

// span reports the member's time summary over predicate p. The caller
// holds the member's lock.
func (m *member) span(p rdf.ID) *timeSpan {
	sp := &timeSpan{triples: m.triples.Len()}
	run := m.times[p]
	if run == nil {
		if p != rdf.Wildcard {
			sp.Other = m.triples.Count(rdf.Wildcard, p, rdf.Wildcard)
		}
		return sp
	}
	sp.Entries, sp.NonCanonical, sp.Other = len(run.entries), run.nonCanonical, run.other
	if n := len(run.entries); n > 0 {
		sp.MinUnix, sp.MaxUnix = run.entries[0].unix, run.entries[n-1].unix
	}
	return sp
}

// verifyTimeIndex recounts the index from the triples (caller holds the
// member's lock): every run settled and in order, every entry a distinct
// triple the member still holds under the instant its literal parses
// to, and entries, non-canonical entries and unindexed objects agreeing
// with a scan of the member.
func (m *member) verifyTimeIndex() error {
	d := m.triples.Dict()
	type tally struct{ indexed, nonCanonical, other int }
	want := make(map[rdf.ID]*tally)
	m.triples.MatchIDs(rdf.Wildcard, rdf.Wildcard, rdf.Wildcard, func(t rdf.EncodedTriple) bool {
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
		if c.indexed > 0 && m.times[pid] == nil {
			return fmt.Errorf("time index misses predicate %s", d.Decode(pid))
		}
	}
	for pid, run := range m.times {
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
			if seen[[2]rdf.ID{e.s, e.o}] || m.triples.Count(e.s, pid, e.o) == 0 {
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
