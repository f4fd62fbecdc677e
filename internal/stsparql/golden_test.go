package stsparql

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden result files from the current engine")

// modifierCorpus exercises the solution-modifier edge cases (plus the
// operator shapes around them) whose exact rows were materialised from
// the row-at-a-time engine into testdata/golden before the batch
// rewrite. ordered marks queries whose ORDER BY keys fully determine
// the row sequence; everything else is compared sorted, because store
// scan order is nondeterministic.
var modifierCorpus = []struct {
	name    string
	query   string
	ordered bool
}{
	{"offset-past-end", `SELECT ?h WHERE { ?h a noa:Hotspot . } OFFSET 10`, false},
	{"limit-zero", `SELECT ?h WHERE { ?h a noa:Hotspot . } LIMIT 0`, false},
	{"limit-larger", `SELECT ?h WHERE { ?h a noa:Hotspot . } LIMIT 100`, false},
	{"order-offset-limit", `SELECT ?h ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . }
ORDER BY DESC(?c) ?h OFFSET 1 LIMIT 1`, true},
	{"order-unbound", `SELECT ?h ?pop WHERE {
  ?h a noa:Hotspot .
  OPTIONAL { ?h gag:hasPopulation ?pop . }
} ORDER BY ?pop ?h`, true},
	{"order-mixed-bound", `SELECT ?x ?pop WHERE {
  { ?x a noa:Hotspot . } UNION { ?x a gag:Municipality . }
  OPTIONAL { ?x gag:hasPopulation ?pop . }
} ORDER BY DESC(?pop) ?x`, true},
	{"distinct-subset", `SELECT DISTINCT ?sensor WHERE {
  ?h a noa:Hotspot ; noa:isDerivedFromSensor ?sensor .
}`, false},
	{"distinct-pair", `SELECT DISTINCT ?h ?sensor WHERE {
  ?h a noa:Hotspot ; noa:isDerivedFromSensor ?sensor .
}`, false},
	{"distinct-expr", `SELECT DISTINCT (strdf:area(?g) AS ?a) WHERE {
  ?m a gag:Municipality ; strdf:hasGeometry ?g .
}`, false},
	{"distinct-order-limit", `SELECT DISTINCT ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . }
ORDER BY ?c LIMIT 1`, true},
	{"distinct-unbound", `SELECT DISTINCT ?pop WHERE {
  ?x a noa:Hotspot .
  OPTIONAL { ?x gag:hasPopulation ?pop . }
}`, false},
	{"offset-after-distinct-order", `SELECT DISTINCT ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . }
ORDER BY DESC(?c) OFFSET 1`, true},
	{"spatial-join", `SELECT ?h ?m WHERE {
  ?h a noa:Hotspot ; strdf:hasGeometry ?hg .
  ?m a gag:Municipality ; strdf:hasGeometry ?mg .
  FILTER( strdf:anyInteract(?hg, ?mg) )
}`, false},
	{"optional-not-bound", `SELECT ?h WHERE {
  ?h a noa:Hotspot ; strdf:hasGeometry ?hg .
  OPTIONAL {
    ?c a coast:Coastline ; strdf:hasGeometry ?cg .
    FILTER( strdf:anyInteract(?hg, ?cg) )
  }
  FILTER( !bound(?c) )
}`, false},
	{"group-having", `SELECT ?sensor (COUNT(?h) AS ?n) (AVG(?c) AS ?avgc) WHERE {
  ?h a noa:Hotspot ; noa:isDerivedFromSensor ?sensor ; noa:hasConfidence ?c .
} GROUP BY ?sensor HAVING (COUNT(?h) >= 1)`, false},
	{"count-empty", `SELECT (COUNT(*) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:hasConfidence ?c .
  FILTER( ?c > 2.0 )
}`, false},
	{"select-star", `SELECT * WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . }`, false},
	{"expr-projection", `SELECT ?m (strdf:area(?g) AS ?a) WHERE {
  ?m a gag:Municipality ; strdf:hasGeometry ?g .
}`, false},
}

// TestModifierGolden pins every modifier-corpus query row-for-row
// against results materialised before the batch execution rewrite.
func TestModifierGolden(t *testing.T) {
	s := fixtureStore()
	for _, tc := range modifierCorpus {
		t.Run(tc.name, func(t *testing.T) {
			res := runSelect(t, s, tc.query)
			got := renderResultGolden(res, tc.ordered)
			path := filepath.Join("testdata", "golden", tc.name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (run with -update-golden): %v", path, err)
			}
			if string(want) != got {
				t.Fatalf("result diverges from %s:\n--- want\n%s\n--- got\n%s", path, want, got)
			}
		})
	}
}

// TestModifierGoldenCursor runs the same corpus through the streaming
// cursor path and checks it agrees with the materialised wrapper.
func TestModifierGoldenCursor(t *testing.T) {
	s := fixtureStore()
	for _, tc := range modifierCorpus {
		t.Run(tc.name, func(t *testing.T) {
			want := renderResultGolden(runSelect(t, s, tc.query), tc.ordered)
			cur, err := openSelect(NewEvaluator(s), mustParse(t, tc.query))
			if err != nil {
				t.Fatal(err)
			}
			res := &Result{Vars: cur.Vars()}
			for row, ok := cur.Next(); ok; row, ok = cur.Next() {
				res.Rows = append(res.Rows, row.Clone())
			}
			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
			if got := renderResultGolden(res, tc.ordered); got != want {
				t.Fatalf("cursor path diverges:\n--- materialised\n%s\n--- cursor\n%s", want, got)
			}
		})
	}
}

// renderResultGolden canonicalises a result the same way the shard
// equivalence suite does: sorted header, "_" for unbound, rows sorted
// unless ORDER BY fully determines their sequence.
func renderResultGolden(res *Result, ordered bool) string {
	vars := append([]string(nil), res.Vars...)
	sort.Strings(vars)
	rows := make([]string, len(res.Rows))
	for i := range res.Rows {
		var b strings.Builder
		for _, v := range vars {
			if t := res.at(i, v); !t.IsZero() {
				fmt.Fprintf(&b, "%s=%s|", v, t.String())
			} else {
				fmt.Fprintf(&b, "%s=_|", v)
			}
		}
		rows[i] = b.String()
	}
	if !ordered {
		sort.Strings(rows)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "vars: %s\n", strings.Join(vars, ","))
	for _, r := range rows {
		b.WriteString(r)
		b.WriteByte('\n')
	}
	return b.String()
}
