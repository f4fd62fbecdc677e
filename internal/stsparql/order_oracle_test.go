package stsparql

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// The references the ORDER BY path is held to: the map-row sort the
// order operator ran before (orderRows and its comparator, the bounded
// heap of drainTopK), kept verbatim apart from drainTopK's receiver and
// the map row type, which the engine no longer has — mapRow views one
// as a one-row batch, and evalOn compiles the key against it — and
// Term.String for the term comparison kernel.

// oracleRow is the map row the oracles sort: variable name to term,
// unbound variables absent.
type oracleRow map[string]rdf.Term

// mapRow views a map row for expression evaluation: a one-row batch
// over the evaluator's dictionary.
func (e *Evaluator) mapRow(b oracleRow) rowRef {
	vars := slices.Sorted(maps.Keys(b))
	batch := newBatch(e.dict, newSchema(vars), 1)
	r := batch.beginRow(rowRef{})
	for c, v := range vars {
		batch.cols[c][r] = e.dict.encode(b[v])
	}
	batch.commitRow()
	return rowRef{b: batch, i: r}
}

// evalOn evaluates an expression at a mapRow view, compiled against
// the view's schema.
func (e *Evaluator) evalOn(x Expr, row rowRef) Value {
	return compileExpr(x, row.b.schema, e.cache).eval(e, row)
}

// rowText renders a row for comparison: two rows of one header have
// equal texts exactly when their terms are equal column for column.
func rowText(row Row) string {
	var b strings.Builder
	for _, t := range row {
		fmt.Fprintf(&b, "%d%q%q%q|", t.Kind, t.Value, t.Datatype, t.Lang)
	}
	return b.String()
}

// binding decodes physical row i of a batch into a map row.
func (b *Batch) binding(i int) oracleRow {
	row := make(oracleRow, len(b.schema.names))
	for c, name := range b.schema.names {
		if id := b.cols[c][i]; id != 0 {
			row[name] = b.dict.decode(id)
		}
	}
	return row
}

func (e *Evaluator) orderRows(rows []oracleRow, keys []OrderKey) {
	sort.SliceStable(rows, func(i, j int) bool {
		return e.compareOrderKeys(rows[i], rows[j], keys) < 0
	})
}

// compareOrderKeys compares two rows under the ORDER BY keys: negative
// when a sorts before b, zero when the keys tie (incomparable values
// tie, like orderRows always did).
func (e *Evaluator) compareOrderKeys(a, b oracleRow, keys []OrderKey) int {
	for _, k := range keys {
		va := e.evalOn(k.Expr, e.mapRow(a))
		vb := e.evalOn(k.Expr, e.mapRow(b))
		c, err := va.compare(vb)
		if err != nil || c == 0 {
			continue
		}
		if k.Desc {
			return -c
		}
		return c
	}
	return 0
}

// seqRow tags a row with its arrival sequence so the bounded heap can
// reproduce the stable sort exactly: among equal keys the earliest
// arrivals win, and the final order breaks key ties by arrival.
type seqRow struct {
	row oracleRow
	seq int
}

// oracleDrainTopK pulls the input to exhaustion keeping only the k first rows
// of the stable sort order in a max-heap: the root is the worst kept row
// (by key, later arrival losing ties), so each new row either replaces
// it or is dropped. O(n log k) comparisons, O(k) memory.
func oracleDrainTopK(e *Evaluator, in batchIter, keys []OrderKey, k int) ([]oracleRow, *varSchema, error) {
	// after reports whether a sorts strictly after b in the final order.
	after := func(a, b seqRow) bool {
		if c := e.compareOrderKeys(a.row, b.row, keys); c != 0 {
			return c > 0
		}
		return a.seq > b.seq
	}
	var heap []seqRow // max-heap under after(): root = worst kept row
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			worst := i
			if l < len(heap) && after(heap[l], heap[worst]) {
				worst = l
			}
			if r < len(heap) && after(heap[r], heap[worst]) {
				worst = r
			}
			if worst == i {
				return
			}
			heap[i], heap[worst] = heap[worst], heap[i]
			i = worst
		}
	}
	var schema *varSchema
	seq := 0
	for {
		b, err := in.next()
		if err != nil {
			return nil, nil, err
		}
		if b == nil {
			break
		}
		schema = b.schema
		for ord := 0; ord < b.live(); ord++ {
			e := seqRow{row: b.binding(b.row(ord)), seq: seq}
			seq++
			if len(heap) < k {
				heap = append(heap, e)
				for i := len(heap) - 1; i > 0; { // sift up
					p := (i - 1) / 2
					if !after(heap[i], heap[p]) {
						break
					}
					heap[i], heap[p] = heap[p], heap[i]
					i = p
				}
				continue
			}
			if after(e, heap[0]) {
				continue // sorts after the worst kept row: unreachable
			}
			heap[0] = e
			siftDown(0)
		}
	}
	sort.Slice(heap, func(i, j int) bool { return after(heap[j], heap[i]) })
	rows := make([]oracleRow, len(heap))
	for i, e := range heap {
		rows[i] = e.row
	}
	return rows, schema, nil
}

// orderGen draws terms of every kind the comparators meet: IRIs that are
// prefixes of one another, blank nodes, plain, language-tagged and typed
// literals (numbers, dateTimes, booleans, geometries, a custom type),
// values strconv.Quote escapes, and the unbound term.
type orderGen struct{ r *rand.Rand }

func (g orderGen) text() string {
	pieces := []string{"", "a", "b", "ab", "h1", "h10", "h2", ">", "<", "\"", "\\", "\n", "\x00", "\x7f", "é", "\u2028", "\u00a0", "\xff", " ", "~", "^", "@"}
	var b strings.Builder
	for n := g.r.Intn(4); n > 0; n-- {
		b.WriteString(pieces[g.r.Intn(len(pieces))])
	}
	return b.String()
}

func (g orderGen) term() rdf.Term {
	switch g.r.Intn(12) {
	case 0:
		return rdf.Term{}
	case 1, 2:
		return rdf.NewIRI("http://example.org/" + g.text())
	case 3:
		return rdf.NewBlank(g.text())
	case 4:
		return rdf.NewLiteral(g.text())
	case 5:
		return rdf.NewLangLiteral(g.text(), []string{"el", "en", "en-GB"}[g.r.Intn(3)])
	case 6:
		return rdf.NewInteger(int64(g.r.Intn(7) - 3))
	case 7:
		return rdf.NewFloat(float64(g.r.Intn(9)) / 4)
	case 8:
		return rdf.NewDateTime(fmt.Sprintf("2007-08-2%dT1%d:00:00", g.r.Intn(3), g.r.Intn(3)))
	case 9:
		return rdf.NewBoolean(g.r.Intn(2) == 0)
	case 10:
		return rdf.NewTypedLiteral(g.text(), "http://example.org/"+g.text())
	default:
		return rdf.NewTypedLiteral(g.text(), rdf.XSDString)
	}
}

func TestCompareTermStringsMatchesString(t *testing.T) {
	g := orderGen{rand.New(rand.NewSource(251))}
	sign := func(c int) int {
		switch {
		case c < 0:
			return -1
		case c > 0:
			return 1
		}
		return 0
	}
	for i := 0; i < 200000; i++ {
		a, b := g.term(), g.term()
		if i%3 == 0 {
			b = a
			b.Value += g.text()
		}
		if got, want := sign(compareTermStrings(a, b)), strings.Compare(a.String(), b.String()); got != want {
			t.Fatalf("compareTermStrings(%s, %s) = %d, strings.Compare of String() = %d", a, b, got, want)
		}
	}
}

// orderCases are the ORDER BY clauses the sort is held to the oracle on:
// plain and DESC variables, ties broken or not, expression keys, a key
// on a variable no row binds.
var orderCases = []string{
	"?x", "DESC(?x)", "?x ?s", "DESC(?x) ?s", "?y ?x", "DESC(?y) DESC(?x) ?s",
	"ASC(str(?x))", "DESC(str(?y)) ?x", "ASC(?n + 1)", "?n ?x", "?nobody ?x", "ASC(lang(?x)) ?y",
}

func genOrderRows(g orderGen, n int) []oracleRow {
	rows := make([]oracleRow, n)
	for i := range rows {
		row := oracleRow{"s": rdf.NewIRI(fmt.Sprintf("http://example.org/s%03d", i))}
		for _, v := range []string{"x", "y", "n"} {
			t := g.term()
			if v == "n" && g.r.Intn(3) > 0 {
				t = rdf.NewInteger(int64(g.r.Intn(4)))
			}
			if !t.IsZero() {
				row[v] = t
			}
		}
		rows[i] = row
	}
	return rows
}

// orderVars is the header of the generated rows, in schema order.
var orderVars = []string{"n", "s", "x", "y"}

// positional converts map rows to rows over orderVars.
func positional(rows []oracleRow) []Row {
	out := make([]Row, len(rows))
	for i, m := range rows {
		out[i] = make(Row, len(orderVars))
		for j, v := range orderVars {
			out[i][j] = m[v]
		}
	}
	return out
}

// drainOrdered reads an opened pipeline over the orderVars schema.
func drainOrdered(t *testing.T, it batchIter) []Row {
	t.Helper()
	cur := &planCursor{it: it, vars: orderVars}
	res := ReadAll(cur)
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

func sameRows(t *testing.T, what string, got []Row, want []oracleRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, oracle %d", what, len(got), len(want))
	}
	for i, w := range positional(want) {
		if rowText(got[i]) != rowText(w) {
			t.Fatalf("%s: row %d is %v, oracle %v", what, i, got[i], w)
		}
	}
}

// TestOrderMatchesOracle runs the order operator — full sort and top-k —
// over generated rows against the oracles: the same rows in the same
// order, ties in arrival order.
func TestOrderMatchesOracle(t *testing.T) {
	g := orderGen{rand.New(rand.NewSource(252))}
	e := NewEvaluator(rdf.NewStore())
	for round := 0; round < 40; round++ {
		rows := genOrderRows(g, g.r.Intn(120))
		pos := positional(rows)
		schema := newSchema(orderVars)
		for _, clause := range orderCases {
			keys := mustParse(t, "SELECT * WHERE { ?s ?p ?o } ORDER BY "+clause).Select.OrderBy
			want := append([]oracleRow(nil), rows...)
			e.orderRows(want, keys)

			op := &orderOp{keys: keys}
			got := drainOrdered(t, op.open(e, seedIter(e.dict, schema, orderVars, pos)))
			sameRows(t, "sort by "+clause, got, want)

			for _, k := range []int{1, 2, 7, len(rows) / 2, len(rows), len(rows) + 3} {
				if k < 1 {
					continue
				}
				oracle, _, err := oracleDrainTopK(e, seedIter(e.dict, schema, orderVars, pos), keys, k)
				if err != nil {
					t.Fatal(err)
				}
				op := &orderOp{keys: keys, topK: k}
				got := drainOrdered(t, op.open(e, seedIter(e.dict, schema, orderVars, pos)))
				sameRows(t, fmt.Sprintf("top %d by %s", k, clause), got, oracle)
			}
		}
	}
}
