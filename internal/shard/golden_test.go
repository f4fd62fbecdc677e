package shard

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/strabon"
	"repro/internal/stsparql"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden result files from the current engine")

// TestGoldenEquivalence pins the full corpus row-for-row against golden
// files materialised from the row-at-a-time engine before the batch
// rewrite: any divergence in the batched path — rows, values, headers,
// ORDER-BY sequences — fails here even if single and sharded stores
// drift in the same direction (which the live equivalence suite cannot
// see).
func TestGoldenEquivalence(t *testing.T) {
	single := strabon.New()
	loadFixture(single)
	sh := newSharded(2)
	loadFixture(sh)

	for _, tc := range corpus {
		t.Run(tc.name, func(t *testing.T) {
			res, err := runQuery(single, tc.query)
			if err != nil {
				t.Fatalf("single store: %v", err)
			}
			got := renderGolden(res, tc.ordered)
			compareGolden(t, filepath.Join("testdata", "golden", tc.name+".txt"), got)

			shRes, err := runQuery(sh, tc.query)
			if err != nil {
				t.Fatalf("sharded store: %v", err)
			}
			if shGot := renderGolden(shRes, tc.ordered); shGot != got {
				t.Fatalf("sharded result diverges from golden:\n--- golden\n%s\n--- sharded\n%s", got, shGot)
			}
		})
	}
	for _, tc := range askCorpus {
		t.Run(tc.name, func(t *testing.T) {
			res, err := runQuery(single, tc.query)
			if err != nil {
				t.Fatal(err)
			}
			got := renderGolden(res, true)
			compareGolden(t, filepath.Join("testdata", "golden", tc.name+".txt"), got)
		})
	}
}

// timeWindowText recognises a corpus text that confines an acquisition
// time to a window.
var timeWindowText = regexp.MustCompile(`FILTER\(\s*str\(\?\w+\)\s*(>=|<=|=)\s*"`)

// TestGoldenPlans pins the single store's plan for every corpus text.
// The time-range scan is the only access path that may differ from the
// plans of the scan-and-filter engine: a text carrying a time window
// opens with it, and no other text mentions it. A one-slice sharded
// store evaluates every text once over its union view and plans it the
// same: after its one route line, its Explain is the same golden.
func TestGoldenPlans(t *testing.T) {
	single := strabon.New()
	loadFixture(single)
	sh := newSharded(1)
	loadFixture(sh)
	texts := map[string]string{}
	for _, tc := range corpus {
		texts[tc.name] = tc.query
	}
	for _, tc := range askCorpus {
		texts[tc.name] = tc.query
	}
	for name, query := range texts {
		plan, err := single.Explain(query)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		golden := filepath.Join("testdata", "golden", name+".plan")
		compareGolden(t, golden, plan)
		shPlan, err := sh.Explain(query)
		if err != nil {
			t.Fatalf("%s on one slice: %v", name, err)
		}
		route, body, _ := strings.Cut(shPlan, "\n")
		if route != "shard union: single evaluation over static+1 slices" {
			t.Errorf("%s: one slice routes as %q", name, route)
		}
		if !*updateGolden {
			compareGolden(t, golden, body)
		}
		first := strings.TrimSpace(strings.SplitN(plan, "\n", 3)[1])
		if windowed := timeWindowText.MatchString(query); windowed != strings.HasPrefix(first, "scan[time-range]") ||
			(!windowed && strings.Contains(plan, "time-range")) {
			t.Errorf("%s: carries a time window: %v, but plans\n%s", name, windowed, plan)
		}
	}
}

// renderGolden canonicalises a result: header line, then one line per
// row (sorted lexicographically unless the query's ORDER BY fully
// determines the sequence — store scan order is nondeterministic).
func renderGolden(res *stsparql.Result, ordered bool) string {
	vars, rows := renderRows(res)
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

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
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
}
