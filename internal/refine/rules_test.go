package refine

import (
	"strings"
	"testing"

	"repro/internal/auxdata"
	"repro/internal/ontology"
	"repro/internal/rdf"
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

// TestSeedRowsMatchTheSeedList pins the positional seed contract on the
// rules' three seed shapes — ?h; ?h ?pixel ?since ?now ?min; ?since
// ?now ?min: a row as wide as the seed list runs, and a row one term
// short or one term long is refused instead of binding the wrong
// variables.
func TestSeedRowsMatchTheSeedList(t *testing.T) {
	s := strabon.New()
	s.LoadTriples(auxdata.Generate(42).AllTriples())
	rules, err := NewRunner(s).compiled()
	if err != nil {
		t.Fatal(err)
	}
	ev := stsparql.NewEvaluatorWithCache(s, s.GeomCache())
	h := rdf.NewIRI(ontology.NOA + "Hotspot_x")
	pixel := rdf.NewGeometry("POLYGON ((22.3 38.3, 22.34 38.3, 22.34 38.34, 22.3 38.34, 22.3 38.3))")
	window := stsparql.Row{rdf.NewLiteral("2007-08-24T11:00:00"), rdf.NewLiteral("2007-08-24T12:00:00"), rdf.NewInteger(2)}
	run := func(p *stsparql.Prepared, row stsparql.Row) error {
		if p == rules.persistent {
			_, err := ev.SelectPrepared(p, []stsparql.Row{row})
			return err
		}
		_, err := ev.PlanPrepared(p, []stsparql.Row{row})
		return err
	}
	for _, tc := range []struct {
		name string
		p    *stsparql.Prepared
		row  stsparql.Row
	}{
		{"?h", rules.scoped[0].prepared, stsparql.Row{h}},
		{"?h ?pixel ?since ?now ?min", rules.confirm, append(stsparql.Row{h, pixel}, window...)},
		{"?since ?now ?min", rules.persistent, window},
	} {
		if err := run(tc.p, tc.row); err != nil {
			t.Fatalf("%s: a full row is refused: %v", tc.name, err)
		}
		if err := run(tc.p, tc.row[:len(tc.row)-1]); err == nil {
			t.Errorf("%s: a short row runs", tc.name)
		}
		if err := run(tc.p, append(tc.row.Clone(), h)); err == nil {
			t.Errorf("%s: a long row runs", tc.name)
		}
	}
}
