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
// properties last, for the survivors only.
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
		inOrder(string(r.op), plan, "join[window]", "rdf-syntax-ns#type", "filter[pushed] strdf:")
		if r.deletes {
			if last := lines[len(lines)-1]; !strings.Contains(last, "{?h ?hProperty ?hObject}") && !strings.Contains(lines[len(lines)-2], "{?h ?hProperty ?hObject}") {
				t.Fatalf("%s: the all-properties expansion is not last:\n%s", r.op, plan)
			}
		}
	}
	inOrder("confirm", rules.confirm.Explain(ev), "sub-select", "join[window] {?p ", "rdf-syntax-ns#type", "aggregate group=?h", "join[bind] {?h ")
}
