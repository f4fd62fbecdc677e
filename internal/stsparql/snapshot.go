package stsparql

import "repro/internal/rdf"

// RowSnapshot is a compact, immutable copy of a materialised result:
// the header plus a flat row-major cell slab. The streaming cursors
// yield Rows that are views, reused on the next pull — a snapshot
// copies each row's terms out of that view as it streams past (the
// result-cache tee of the endpoint), so the retained result shares
// nothing with the engine.
//
// A cell keeps a term's lexical value and an index into the snapshot's
// table of term shapes — the (Kind, Datatype, Lang) combinations, of
// which a result has a handful (IRI, geometry literal, dateTime, …) —
// so a cached row costs 24 bytes a column, not the 56 of an rdf.Term.
// Its Cursor puts the terms back together exactly: an unbound column
// is the zero Term again, which the result encoders skip, so replaying
// through them is byte-identical to the original streamed encoding.
type RowSnapshot struct {
	vars   []string
	cells  []snapCell // row-major; len == rows*len(vars)
	shapes []rdf.Term // Value empty: what a cell's value completes
	rows   int
	bytes  int64
}

type snapCell struct {
	value string
	shape uint32
}

// NewRowSnapshot returns an empty snapshot with the given header. The
// header must be the exact var list the original encoding used — the
// replay is keyed by it.
func NewRowSnapshot(vars []string) *RowSnapshot {
	v := make([]string, len(vars))
	copy(v, vars)
	s := &RowSnapshot{vars: v}
	for _, n := range v {
		s.bytes += int64(len(n)) + 16
	}
	return s
}

// Append copies one row — one term per header variable — out of the
// (reused) cursor view.
func (s *RowSnapshot) Append(row Row) {
	for _, t := range row {
		s.cells = append(s.cells, snapCell{value: t.Value, shape: s.shapeOf(t)})
		s.bytes += int64(len(t.Value)) + 24
	}
	s.rows++
}

// shapeOf returns the table index of t's shape, adding it on first
// sight; the table stays short enough for a linear search.
func (s *RowSnapshot) shapeOf(t rdf.Term) uint32 {
	t.Value = ""
	for i, sh := range s.shapes {
		if sh == t {
			return uint32(i)
		}
	}
	s.shapes = append(s.shapes, t)
	s.bytes += int64(len(t.Datatype)+len(t.Lang)) + 56
	return uint32(len(s.shapes) - 1)
}

// term rebuilds cell i's term.
func (s *RowSnapshot) term(i int) rdf.Term {
	c := s.cells[i]
	t := s.shapes[c.shape]
	t.Value = c.value
	return t
}

// Bytes is the snapshot's estimated memory footprint, the unit the
// result cache's byte bound is enforced in.
func (s *RowSnapshot) Bytes() int64 { return s.bytes }

// Rows is the number of rows the snapshot holds.
func (s *RowSnapshot) Rows() int { return s.rows }

// Cursor replays the snapshot row by row, through one reused row (the
// view contract of the streaming cursors), each term rebuilt from its
// cell; an unbound column is the zero Term. It holds nothing to
// release: Err and Close are always nil.
func (s *RowSnapshot) Cursor() Cursor { return &snapCursor{snap: s} }

type snapCursor struct {
	snap *RowSnapshot
	row  Row
	pos  int
}

func (c *snapCursor) Vars() []string { return c.snap.vars }

func (c *snapCursor) Next() (Row, bool) {
	s := c.snap
	if c.pos >= s.rows {
		return nil, false
	}
	if c.row == nil {
		c.row = make(Row, len(s.vars))
	}
	for j := range c.row {
		c.row[j] = s.term(c.pos*len(s.vars) + j)
	}
	c.pos++
	return c.row, true
}

func (c *snapCursor) Err() error   { return nil }
func (c *snapCursor) Close() error { return nil }
