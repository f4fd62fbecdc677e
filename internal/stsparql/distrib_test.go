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
					if string(RowKey(nil, limited.Rows[i])) != string(RowKey(nil, want[i])) {
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
	e := NewEvaluator(emptySource{})

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

// --- partial-aggregate recombination ---

// TestAggMergeRecombination splits a dataset across two disjoint stores,
// runs the partial query on each, and requires Finalize over the
// concatenated partials to equal the direct evaluation on the union.
func TestAggMergeRecombination(t *testing.T) {
	mk := func() (*rdf.Store, *rdf.Store, *rdf.Store) {
		a, b, all := rdf.NewStore(), rdf.NewStore(), rdf.NewStore()
		for i := 0; i < 30; i++ {
			subj := rdf.NewIRI(fmt.Sprintf("http://example.org/h%02d", i))
			grp := rdf.NewLiteral(fmt.Sprintf("g%d", i%4))
			val := rdf.NewFloat(float64(i%7) / 2)
			ts := []rdf.Triple{
				{S: subj, P: rdf.NewIRI("http://example.org/group"), O: grp},
				{S: subj, P: rdf.NewIRI("http://example.org/score"), O: val},
			}
			target := a
			if i%3 == 0 {
				target = b
			}
			for _, tr := range ts {
				target.Add(tr)
				all.Add(tr)
			}
		}
		return a, b, all
	}

	queries := []string{
		`SELECT ?g (COUNT(?h) AS ?n) (SUM(?v) AS ?sum) (AVG(?v) AS ?avg)
   (MIN(?v) AS ?lo) (MAX(?v) AS ?hi)
 WHERE { ?h <http://example.org/group> ?g ; <http://example.org/score> ?v . }
 GROUP BY ?g`,
		`SELECT ?g (COUNT(?h) AS ?n)
 WHERE { ?h <http://example.org/group> ?g . }
 GROUP BY ?g HAVING (COUNT(?h) >= 8)`,
		`SELECT (COUNT(*) AS ?n) (AVG(?v) AS ?avg)
 WHERE { ?h <http://example.org/score> ?v . }`,
		`SELECT ?g ((MAX(?v) - MIN(?v)) AS ?spread)
 WHERE { ?h <http://example.org/group> ?g ; <http://example.org/score> ?v . }
 GROUP BY ?g`,
	}
	for qi, src := range queries {
		a, b, all := mk()
		q := mustParse(t, src)
		am, ok := PlanAggMerge(q.Select)
		if !ok {
			t.Fatalf("query %d: PlanAggMerge rejected", qi)
		}
		var partials []Row
		for _, st := range []*rdf.Store{a, b} {
			res, err := selectAll(NewEvaluator(st), am.Partial())
			if err != nil {
				t.Fatal(err)
			}
			partials = append(partials, res.Rows...)
		}
		merged, err := am.Finalize(partials)
		if err != nil {
			t.Fatal(err)
		}
		want, err := selectAll(NewEvaluator(all), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(merged.Rows) != len(want.Rows) {
			t.Fatalf("query %d: rows=%d want %d", qi, len(merged.Rows), len(want.Rows))
		}
		if fmt.Sprint(merged.Vars) != fmt.Sprint(want.Vars) {
			t.Fatalf("query %d: vars=%v want %v", qi, merged.Vars, want.Vars)
		}
		wantSet := make(map[string]bool)
		for _, r := range want.Rows {
			wantSet[string(RowKey(nil, r))] = true
		}
		for _, r := range merged.Rows {
			if k := string(RowKey(nil, r)); !wantSet[k] {
				t.Fatalf("query %d: merged row %v not in direct result", qi, r)
			}
		}
	}

	// AVG over a group containing non-numeric bound values: the engine
	// divides by the count of NUMERIC values only, and the recombined
	// result must agree (the partial ships #numcount, not COUNT).
	{
		a, b := rdf.NewStore(), rdf.NewStore()
		all := rdf.NewStore()
		add := func(st *rdf.Store, i int, o rdf.Term) {
			tr := rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://example.org/m%d", i)),
				P: rdf.NewIRI("http://example.org/score"), O: o}
			st.Add(tr)
			all.Add(tr)
		}
		add(a, 0, rdf.NewFloat(2))
		add(a, 1, rdf.NewLiteral("not-a-number"))
		add(b, 2, rdf.NewFloat(4))
		q := mustParse(t, `SELECT (AVG(?v) AS ?avg) WHERE { ?h <http://example.org/score> ?v . }`)
		am, ok := PlanAggMerge(q.Select)
		if !ok {
			t.Fatal("PlanAggMerge rejected avg")
		}
		var partials []Row
		for _, st := range []*rdf.Store{a, b} {
			res, err := selectAll(NewEvaluator(st), am.Partial())
			if err != nil {
				t.Fatal(err)
			}
			partials = append(partials, res.Rows...)
		}
		merged, err := am.Finalize(partials)
		if err != nil {
			t.Fatal(err)
		}
		want, err := selectAll(NewEvaluator(all), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(merged.Rows) != 1 || len(want.Rows) != 1 ||
			merged.at(0, "avg").Value != want.at(0, "avg").Value {
			t.Fatalf("mixed-type AVG: merged=%v want=%v", merged.Rows, want.Rows)
		}
		if want.at(0, "avg").Value != "3" {
			t.Fatalf("single-store AVG over {2, \"x\", 4} = %s, want 3", want.at(0, "avg").Value)
		}
	}

	// Zero partial rows with no GROUP BY still yields the implicit group.
	q := mustParse(t, `SELECT (COUNT(*) AS ?n) WHERE { ?h <http://example.org/none> ?v . }`)
	am, ok := PlanAggMerge(q.Select)
	if !ok {
		t.Fatal("PlanAggMerge rejected count(*)")
	}
	res, err := am.Finalize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.at(0, "n").Value != "0" {
		t.Fatalf("implicit group over nothing: %+v", res.Rows)
	}
}

// TestAggMergeRejections pins the queries partial aggregation must
// refuse (the union fallback handles them).
func TestAggMergeRejections(t *testing.T) {
	for _, src := range []string{
		// DISTINCT inside an aggregate.
		`SELECT (COUNT(DISTINCT ?v) AS ?n) WHERE { ?h <http://example.org/score> ?v . }`,
		// SAMPLE has no combine rule.
		`SELECT (SAMPLE(?v) AS ?s) WHERE { ?h <http://example.org/score> ?v . }`,
		// Spatial aggregate.
		`SELECT (strdf:union(?g) AS ?u) WHERE { ?h strdf:hasGeometry ?g . }`,
		// Plain projection that is not a group key.
		`SELECT ?h (COUNT(?v) AS ?n) WHERE { ?h <http://example.org/score> ?v . } GROUP BY ?g`,
	} {
		q := mustParse(t, src)
		if _, ok := PlanAggMerge(q.Select); ok {
			t.Errorf("PlanAggMerge accepted %q", src)
		}
	}
}

// TestOrderKeysCompare pins the merge comparator's direction and ties;
// TestOrderMatchesOracle holds it to the map-row comparator.
func TestOrderKeysCompare(t *testing.T) {
	q := mustParse(t, `SELECT ?s ?v WHERE { ?s <http://example.org/val> ?v . } ORDER BY DESC(?v)`)
	ok := NewOrderKeys(q.Select.OrderBy, []string{"s", "v"})
	lo := ok.Eval(nil, Row{{}, rdf.NewInteger(1)})
	hi := ok.Eval(nil, Row{{}, rdf.NewInteger(5)})
	if ok.Compare(hi, lo) >= 0 {
		t.Fatal("DESC: higher value must sort first")
	}
	if ok.Compare(lo, lo) != 0 {
		t.Fatal("equal keys must tie")
	}
}
