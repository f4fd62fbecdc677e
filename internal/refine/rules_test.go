package refine

import (
	"strings"
	"testing"

	"repro/internal/auxdata"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// TestRulePlansAreDeltaDriven pins the shape the prepared rules are
// planned in, which is what makes a rule's cost proportional to the
// flush: every scoped rule opens with an index probe of the seeded ?h
// (never a scan), reaches the auxiliary data through an R-tree window
// join, checks the candidate's class before paying for the spatial
// predicate, and — for the two delete rules — expands ?h into all its
// properties last, for the survivors only. Time Persistence reads the
// window's hour: the reinstatement aggregate opens with a time-range scan
// bounded by the seed's [?since, ?now], and the confirm join opens with
// whichever of that scan and the R-tree window around ?pixel its
// estimates pick, checking the class before the spatial predicate
// either way.
func TestRulePlansAreDeltaDriven(t *testing.T) {
	s := strabon.New()
	s.LoadTriples(auxdata.Generate(42).AllTriples())
	rules, err := NewRunner(s).compiled()
	if err != nil {
		t.Fatal(err)
	}
	ev := stsparql.NewEvaluatorWithCache(s, s.GeomCache())
	inOrder := func(name, plan string, parts ...string) {
		t.Helper()
		rest := plan
		for _, p := range parts {
			i := strings.Index(rest, p)
			if i < 0 {
				t.Fatalf("%s: plan lacks %q (in this order):\n%s", name, p, plan)
			}
			rest = rest[i+len(p):]
		}
	}
	for _, r := range rules.scoped {
		plan := r.prepared.Explain(ev)
		lines := strings.Split(strings.TrimSpace(plan), "\n")
		first := lines[1]
		if r.op == OpRefineInCoast {
			first = lines[2] // inside the sub-select, which takes the seed too
		}
		if !strings.Contains(first, "join[bind] {?h ") || !strings.Contains(first, "} on h") {
			t.Fatalf("%s: first operator is not a probe of the seeded ?h:\n%s", r.op, plan)
		}
		inOrder(string(r.op), plan, "join[window class=", "rdf-syntax-ns#type", "filter[pushed] strdf:")
		if r.deletes {
			if last := lines[len(lines)-1]; !strings.Contains(last, "{?h ?hProperty ?hObject}") && !strings.Contains(lines[len(lines)-2], "{?h ?hProperty ?hObject}") {
				t.Fatalf("%s: the all-properties expansion is not last:\n%s", r.op, plan)
			}
		}
	}
	confirm := rules.confirm.Explain(ev)
	inOrder("confirm", confirm, "sub-select", "rdf-syntax-ns#type", "filter[pushed] strdf:anyinteract", "aggregate group=?h", "join[bind] {?h ")
	if first := strings.TrimSpace(strings.Split(confirm, "\n")[3]); !strings.HasPrefix(first, "join[window] {?p ") &&
		!strings.HasPrefix(first, "scan[time-range] {?p ") {
		t.Fatalf("confirm: the sub-select opens with neither access path:\n%s", confirm)
	}
	persistent := rules.persistent.Explain(ev)
	if first := strings.Split(persistent, "\n")[1]; !strings.HasPrefix(first, "  scan[time-range] {?h ") ||
		!strings.Contains(first, "hasAcquisitionDateTime> ?hAt} [?since, ?now] est=") {
		t.Fatalf("persistent: first operator is not the seed's time range:\n%s", persistent)
	}
}
