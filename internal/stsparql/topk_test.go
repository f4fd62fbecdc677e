package stsparql

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
)

// --- top-k ORDER BY + LIMIT ---

// valStore builds a store of n subjects with an integer ex:val — with
// deliberate duplicate values, so the bounded heap's tie handling is
// exercised against the stable sort.
func valStore(n int) *rdf.Store {
	s := rdf.NewStore()
	for i := 0; i < n; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://example.org/s%03d", i))
		s.Add(rdf.Triple{S: subj, P: rdf.NewIRI("http://example.org/val"),
			O: rdf.NewInteger(int64((i * 37) % 11))})
	}
	return s
}

// TestOrderTopKMatchesFullSort pins the bounded-heap order operator at
// the query level: for every k, ORDER BY ... LIMIT k must return exactly
// the first k rows of the unlimited sort. The keys carry a full
// tiebreak (?s) because index scan order — the engine's tie order — is
// not stable across separate query runs.
func TestOrderTopKMatchesFullSort(t *testing.T) {
	src := valStore(50)
	for _, desc := range []bool{false, true} {
		dir := ""
		if desc {
			dir = "DESC(?v) ?s"
		} else {
			dir = "ASC(?v) ?s"
		}
		full, err := selectAll(NewEvaluator(src), mustParse(t, fmt.Sprintf(
			`SELECT ?s ?v WHERE { ?s <http://example.org/val> ?v . } ORDER BY %s`, dir)))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, 3, 10, 49, 50, 80} {
			for _, offset := range []int{0, 5} {
				limited, err := selectAll(NewEvaluator(src), mustParse(t, fmt.Sprintf(
					`SELECT ?s ?v WHERE { ?s <http://example.org/val> ?v . } ORDER BY %s LIMIT %d OFFSET %d`,
					dir, k, offset)))
				if err != nil {
					t.Fatal(err)
				}
				want := full.Rows
				if offset < len(want) {
					want = want[offset:]
				} else {
					want = nil
				}
				if k < len(want) {
					want = want[:k]
				}
				if len(limited.Rows) != len(want) {
					t.Fatalf("%s k=%d off=%d: rows=%d want %d", dir, k, offset, len(limited.Rows), len(want))
				}
				for i := range want {
					if rowText(limited.Rows[i]) != rowText(want[i]) {
						t.Fatalf("%s k=%d off=%d row %d: got %v want %v", dir, k, offset, i,
							limited.Rows[i], want[i])
					}
				}
			}
		}
	}
}

// TestOrderTopKStableTies pins tie handling at the operator level,
// where arrival order is deterministic: the bounded heap must keep the
// earliest-arriving rows among equal keys and emit them in arrival
// order, exactly like the stable full sort.
func TestOrderTopKStableTies(t *testing.T) {
	var rows []oracleRow
	var pos []Row // rows over vars
	vars := []string{"s", "v"}
	for i := 0; i < 40; i++ {
		s, v := rdf.NewIRI(fmt.Sprintf("http://example.org/r%02d", i)), rdf.NewInteger(int64(i%4))
		rows = append(rows, oracleRow{"s": s, "v": v})
		pos = append(pos, Row{s, v})
	}
	keys := []OrderKey{{Expr: &VarExpr{Name: "v"}}}
	e := NewEvaluator(rdf.NewStore())

	sorted := make([]oracleRow, len(rows))
	copy(sorted, rows)
	e.orderRows(sorted, keys)

	for _, k := range []int{1, 2, 5, 13, 40, 100} {
		op := &orderOp{keys: keys, topK: k}
		cur := &planCursor{it: op.open(e, seedIter(e.dict, newSchema(vars), vars, pos)), vars: vars}
		got := ReadAll(cur).Rows
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		want := sorted
		if k < len(want) {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: rows=%d want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i][0].Value != want[i]["s"].Value {
				t.Fatalf("k=%d row %d: got %s want %s", k, i, got[i][0].Value, want[i]["s"].Value)
			}
		}
	}
}
