// Package a is the bindingclone fixture: row views from Cursor.Next
// are reused on the next pull and must be Cloned before retention.
package a

type Term struct{ V string }

type Row []Term

func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

type Cursor struct{}

func (c *Cursor) Next() (Row, bool) { return nil, false }

type sink struct {
	rows []Row
	last Row
	byID map[string]Row
}

func retainAppend(c *Cursor, s *sink) {
	for {
		row, ok := c.Next()
		if !ok {
			return
		}
		s.rows = append(s.rows, row) // bad: view appended without Clone
	}
}

func retainField(c *Cursor, s *sink) {
	row, ok := c.Next()
	if ok {
		s.last = row // bad: view stored into a field
	}
}

func retainMap(c *Cursor, s *sink) {
	row, _ := c.Next()
	s.byID["k"] = row // bad: view stored into a map
}

func retainChan(c *Cursor, ch chan Row) {
	row, _ := c.Next()
	ch <- row // bad: view crosses a channel
}

func retainComposite(c *Cursor) *sink {
	row, _ := c.Next()
	return &sink{last: row} // bad: view captured in a literal
}

func clonedAppend(c *Cursor, s *sink) {
	row, ok := c.Next()
	if ok {
		s.rows = append(s.rows, row.Clone()) // ok: cloned out
	}
}

func clonedField(c *Cursor, s *sink) {
	row, _ := c.Next()
	s.last = row.Clone() // ok
}

func copiedTerms(c *Cursor, slab []Term) []Term {
	row, _ := c.Next()
	return append(slab, row...) // ok: the terms are copied out
}

func consumed(c *Cursor, emit func(Row)) {
	row, ok := c.Next()
	if ok {
		emit(row) // ok: immediate consumption, no retention
	}
}

func allowedRetain(c *Cursor, s *sink) {
	row, _ := c.Next()
	//lint:allow bindingclone fixture pins the suppression pragma
	s.last = row
}
