package stsparql

import (
	"slices"
	"sort"

	"repro/internal/rdf"
)

// Columnar batches: the unit of exchange between physical operators.
// Instead of pulling one row at a time, operators pull
// *Batch slabs of up to batchSizeMax rows in a columnar layout — one
// []termID column per variable of the plan segment's schema, with a
// selection vector so filters and slices mark rows dead without moving
// or copying them. ID 0 encodes "unbound", exactly as the zero Term did
// in the term-columned representation (the engine never binds the
// unbound sentinel); terms materialise only at the late points — cursor
// row views, ORDER BY comparators, aggregate evaluation and blocking
// materialisation — through the evaluation's execDict.
//
// Scans start small (batchSizeMin) and grow their slabs geometrically,
// so early-terminating consumers — LIMIT pushdown, ASK, an abandoned
// cursor — stop the index scans after a few dozen visits rather than a
// full first slab.

const (
	batchSizeMin    = 64
	batchSizeMax    = 1024
	batchSizeGrowth = 4
)

// varSchema is the ordered variable layout of a plan segment, fixed at
// plan (or open) time: every batch flowing through the segment uses the
// same column order, so probe rows copy column-to-column. A schema holds
// a handful of variables, so a column is found by a scan of the names,
// not through a map.
type varSchema struct {
	names []string
}

func newSchema(names []string) *varSchema { return &varSchema{names: names} }

// schemaOf builds a schema over the sorted, deduplicated variable set.
func schemaOf(set map[string]bool) *varSchema {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return newSchema(names)
}

func (s *varSchema) col(name string) (int, bool) {
	c := slices.Index(s.names, name)
	return c, c >= 0
}

// Batch is a columnar slab of bindings, carrying the evaluation's term
// codec so consumers can materialise rows late. Rows [0,n) are
// physical; sel, when non-nil, lists the live physical rows in order
// (nil = all live). The columns share one backing slab, allocated per
// batch; producers that own their batch reuse the slab across next
// calls (see batchIter).
type Batch struct {
	schema *varSchema
	dict   *execDict
	cols   [][]termID
	n      int
	cap    int
	sel    []int32
}

func newBatch(dict *execDict, schema *varSchema, capacity int) *Batch {
	if capacity < 1 {
		capacity = 1
	}
	b := &Batch{schema: schema, dict: dict, cap: capacity}
	nv := len(schema.names)
	if nv > 0 {
		slab := make([]termID, nv*capacity)
		b.cols = make([][]termID, nv)
		for i := range b.cols {
			b.cols[i] = slab[i*capacity : (i+1)*capacity : (i+1)*capacity]
		}
	}
	return b
}

// live returns the number of live rows.
func (b *Batch) live() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// row maps a live ordinal to its physical row index.
func (b *Batch) row(ord int) int {
	if b.sel != nil {
		return int(b.sel[ord])
	}
	return ord
}

// grow doubles the slab capacity, preserving rows. Needed when a single
// probe row's fan-out overshoots the soft batch cap.
func (b *Batch) grow() {
	ncap := b.cap * 2
	nv := len(b.schema.names)
	if nv > 0 {
		slab := make([]termID, nv*ncap)
		for i := range b.cols {
			col := slab[i*ncap : (i+1)*ncap : (i+1)*ncap]
			copy(col, b.cols[i][:b.n])
			b.cols[i] = col
		}
	}
	b.cap = ncap
}

// beginRow stages a new physical row initialised from probe (zeroed
// where probe is unbound) and returns its index; commitRow makes it
// live. A staged row that is never committed is simply overwritten by
// the next beginRow.
func (b *Batch) beginRow(probe rowRef) int {
	if b.n == b.cap {
		b.grow()
	}
	b.setRow(b.n, probe)
	return b.n
}

// setRow overwrites physical row r with probe's bindings (zeroed where
// probe is unbound).
func (b *Batch) setRow(r int, probe rowRef) {
	if probe.b != nil && probe.b.schema == b.schema {
		for c := range b.cols {
			b.cols[c][r] = probe.b.cols[c][probe.i]
		}
		return
	}
	for c, name := range b.schema.names {
		if probe.b != nil {
			if bc, ok := probe.b.schema.col(name); ok {
				b.cols[c][r] = probe.b.cols[bc][probe.i]
				continue
			}
		}
		b.cols[c][r] = 0
	}
}

func (b *Batch) commitRow() { b.n++ }

// reset empties the batch for reuse (seed batches of per-row sub-plans,
// producer-owned output slabs).
func (b *Batch) reset() {
	b.n = 0
	b.sel = nil
}

// dropFirst removes the first k live rows from the selection.
func (b *Batch) dropFirst(k int) {
	b.materialiseSel()
	b.sel = b.sel[k:]
}

// truncLive keeps only the first k live rows.
func (b *Batch) truncLive(k int) {
	b.materialiseSel()
	b.sel = b.sel[:k]
}

func (b *Batch) materialiseSel() {
	if b.sel != nil {
		return
	}
	sel := make([]int32, b.n)
	for i := range sel {
		sel[i] = int32(i)
	}
	b.sel = sel
}

// rowRef is a view of one physical row of a batch for expression
// evaluation; the zero rowRef binds nothing.
type rowRef struct {
	b *Batch
	i int
}

// id returns the row's ID in column c: 0 (unbound) for c < 0 — a
// variable the schema does not hold — and for the zero rowRef.
func (r rowRef) id(c int) termID {
	if r.b == nil || c < 0 {
		return 0
	}
	return r.b.cols[c][r.i]
}

// term decodes the row's term in column c (the zero Term when unbound).
func (r rowRef) term(c int) rdf.Term {
	if id := r.id(c); id != 0 {
		return r.b.dict.decode(id)
	}
	return rdf.Term{}
}

// rowKey appends a composite fixed-width ID key of the row's values in
// columns cols to dst — 8 bytes per column with 0 encoding unbound.
func rowKey(dst []byte, row rowRef, cols []int) []byte {
	for _, c := range cols {
		dst = appendIDKey(dst, row.id(c))
	}
	return dst
}

// slotsOf returns the columns of names in s (-1 where s has none).
func slotsOf(s *varSchema, names []string) []int {
	cols := make([]int, len(names))
	for i, n := range names {
		cols[i] = slotOf(s, n)
	}
	return cols
}

// batchIter is the pull side of an opened operator pipeline: next
// yields the next batch (nil once exhausted or on error), close
// releases resources and must be idempotent. Returned batches are owned
// by the producer and only valid until the next call to next —
// producers exploit this by reusing one output slab across calls, so a
// consumer that needs two batches at once (or rows beyond the next
// pull) must copy first.
type batchIter interface {
	next() (*Batch, error)
	close()
}

// batchesIter yields a prepared batch list; it doubles as the seed
// iterator of a pipeline.
type batchesIter struct {
	batches []*Batch
	pos     int
}

func (it *batchesIter) next() (*Batch, error) {
	for it.pos < len(it.batches) {
		b := it.batches[it.pos]
		it.pos++
		if b.live() > 0 {
			return b, nil
		}
	}
	return nil, nil
}

func (it *batchesIter) close() {}

// seedIter builds the one-batch seed of a pipeline: row r binds vars[j]
// to r[j] (variables outside the schema are dropped).
func seedIter(dict *execDict, schema *varSchema, vars []string, rows []Row) batchIter {
	b := newBatch(dict, schema, len(rows))
	for _, row := range rows {
		r := b.beginRow(rowRef{})
		for j, v := range vars {
			if c, ok := schema.col(v); ok {
				b.cols[c][r] = dict.encode(row[j])
			}
		}
		b.commitRow()
	}
	return &batchesIter{batches: []*Batch{b}}
}

// cloneBatch copies the live rows of src into a fresh owned batch —
// used by consumers that must hold rows across a subsequent pull from
// the same producer (the hash-join strategy lookahead).
func cloneBatch(src *Batch) *Batch {
	out := newBatch(src.dict, src.schema, src.live())
	for ord := 0; ord < src.live(); ord++ {
		i := src.row(ord)
		for c := range out.cols {
			out.cols[c][out.n] = src.cols[c][i]
		}
		out.commitRow()
	}
	return out
}

// drainBatch pulls an iterator to exhaustion, copying every live row
// into one owned batch (over no columns when the input yields no
// batch at all).
func drainBatch(dict *execDict, in batchIter) (*Batch, error) {
	var out *Batch
	for {
		b, err := in.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if out == nil {
			out = newBatch(dict, b.schema, max(b.live(), batchSizeMin))
		}
		for ord := 0; ord < b.live(); ord++ {
			out.beginRow(rowRef{b: b, i: b.row(ord)})
			out.commitRow()
		}
	}
	if out == nil {
		out = newBatch(dict, newSchema(nil), 1)
	}
	return out, nil
}
