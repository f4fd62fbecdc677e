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
// ORDER-BY sequences — fails here even if one-slice and two-slice
// stores drift in the same direction (which the live equivalence suite
// cannot see).
func TestGoldenEquivalence(t *testing.T) {
	one := strabon.New()
	loadFixture(one)
	sh := newSharded(2)
	loadFixture(sh)

	for _, tc := range corpus {
		t.Run(tc.name, func(t *testing.T) {
			res, err := runQuery(one, tc.query)
			if err != nil {
				t.Fatalf("one-slice store: %v", err)
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
			res, err := runQuery(one, tc.query)
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

// TestGoldenPlans pins the plan of every corpus text on a one-slice
// store: one route line — at one slice every text evaluates once over
// the union view — then the golden plan. The time-range scan is the
// only access path that may differ from the plans of the
// scan-and-filter engine: a text carrying a time window opens with it,
// and no other text mentions it. On four slices every text routes, and
// a windowed text that fans out opens its slices' plan with the same
// scan.
func TestGoldenPlans(t *testing.T) {
	one := strabon.New()
	loadFixture(one)
	four := newSharded(4)
	loadFixture(four)
	texts := map[string]string{}
	for _, tc := range corpus {
		texts[tc.name] = tc.query
	}
	for _, tc := range askCorpus {
		texts[tc.name] = tc.query
	}
	for name, query := range texts {
		out, err := one.Explain(query)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		route, plan, _ := strings.Cut(out, "\n")
		if route != "shard union: single evaluation over static+1 slices" {
			t.Errorf("%s: one slice routes as %q", name, route)
		}
		compareGolden(t, filepath.Join("testdata", "golden", name+".plan"), plan)
		windowed := timeWindowText.MatchString(query)
		if first := planFirstOp(plan); windowed != strings.HasPrefix(first, "scan[time-range]") ||
			(!windowed && strings.Contains(plan, "time-range")) {
			t.Errorf("%s: carries a time window: %v, but plans\n%s", name, windowed, plan)
		}

		out, err = four.Explain(query)
		if err != nil {
			t.Fatalf("%s on four slices: %v", name, err)
		}
		route, plan, _ = strings.Cut(out, "\n")
		switch {
		case strings.HasPrefix(route, "shard union: "):
		case strings.HasPrefix(route, "shard fan-out: "):
			if first := planFirstOp(plan); windowed && first != "" && !strings.HasPrefix(first, "scan[time-range]") {
				t.Errorf("%s: a windowed fan-out does not open with the time-range scan:\n%s", name, out)
			}
		default:
			t.Errorf("%s: four slices route as %q", name, route)
		}
	}
}

// planFirstOp is the first operator line of a plan: the line after its
// form line, routing notes skipped.
func planFirstOp(plan string) string {
	var ops []string
	for _, line := range strings.Split(plan, "\n") {
		if line = strings.TrimSpace(line); !strings.HasPrefix(line, "(") {
			ops = append(ops, line)
		}
	}
	if len(ops) < 2 {
		return ""
	}
	return ops[1]
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
