package refine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/auxdata"
	"repro/internal/geom"
	"repro/internal/ontology"
	"repro/internal/products"
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
// either way. Both count only the seeded ?chain's detections, through an
// existence probe on the candidate, never a per-row string filter; the
// confirm join probes it before the exact geometry test.
func TestRulePlansAreDeltaDriven(t *testing.T) {
	s := strabon.New()
	s.LoadTriples(auxdata.Generate(42).AllTriples())
	rules, err := NewRunner(s).compiled()
	if err != nil {
		t.Fatal(err)
	}
	// Each rule plans on its first run, against the flush's overlay;
	// Explain then renders that plan.
	inFlush(t, s, func(tx *strabon.FlushTx) {
		h, pixel, window := seedTerms()
		for _, r := range rules.scoped {
			if _, err := tx.Plan(r.prepared, []stsparql.Row{{h}}); err != nil {
				t.Fatalf("%s: %v", r.op, err)
			}
		}
		if _, err := tx.Plan(rules.confirm, []stsparql.Row{append(stsparql.Row{h, pixel}, window...)}); err != nil {
			t.Fatalf("confirm: %v", err)
		}
		if _, err := tx.Select(rules.persistent, []stsparql.Row{window}); err != nil {
			t.Fatalf("persistent: %v", err)
		}
	})
	ev := stsparql.NewEvaluator(rdf.NewStore())
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
	inOrder("confirm", confirm, "sub-select", "rdf-syntax-ns#type", "isFromProcessingChain> ?chain} on p,chain",
		"filter[pushed] strdf:anyinteract", "aggregate group=?h", "join[bind] {?h ")
	if first := strings.TrimSpace(strings.Split(confirm, "\n")[3]); !strings.HasPrefix(first, "join[window] {?p ") &&
		!strings.HasPrefix(first, "scan[time-range] {?p ") {
		t.Fatalf("confirm: the sub-select opens with neither access path:\n%s", confirm)
	}
	// Over an hour of detections around the fresh pixel the confirm join
	// opens with the R-tree window, which checks the class, the seeded
	// chain and the seed's hour on each candidate before staging it.
	hist := strabon.New()
	hist.LoadTriples(auxdata.Generate(42).AllTriples())
	at := time.Date(2007, 8, 24, 11, 0, 0, 0, time.UTC)
	for i := 0; i < 400; i++ {
		h := products.Hotspot{ID: fmt.Sprint("hist", i), Geometry: geom.NewSquare(22.3+0.04*float64(i%20), 38.3+0.04*float64(i/20), 0.04),
			AcquiredAt: at.Add(time.Duration(i%12) * 5 * time.Minute), Sensor: "MSG1", Chain: "sciql", Producer: "noa"}
		hist.InsertAll(h.Triples())
	}
	histRules, err := NewRunner(hist).compiled()
	if err != nil {
		t.Fatal(err)
	}
	err = hist.ApplyFlush(strabon.Flush{Since: at, At: []time.Time{at.Add(time.Hour)}}, func(tx *strabon.FlushTx) error {
		h, pixel, window := seedTerms()
		_, err := tx.Plan(histRules.confirm, []stsparql.Row{append(stsparql.Row{h, pixel}, window...)})
		return err
	})
	if err != nil {
		t.Fatalf("confirm: %v", err)
	}
	confirm = histRules.confirm.Explain(ev)
	if first := strings.TrimSpace(strings.Split(confirm, "\n")[3]); !strings.HasPrefix(first, "join[window class=<"+ontology.ClassHotspot+"> <"+
		ontology.PropProcessingChain+">=?chain time=[?since, ?now]] {?p ") {
		t.Fatalf("confirm over a history: the sub-select does not open with the filtered window:\n%s", confirm)
	}
	persistent := rules.persistent.Explain(ev)
	if first := strings.Split(persistent, "\n")[1]; !strings.HasPrefix(first, "  scan[time-range] {?h ") ||
		!strings.Contains(first, "hasAcquisitionDateTime> ?hAt} [?since, ?now] est=") {
		t.Fatalf("persistent: first operator is not the seed's time range:\n%s", persistent)
	}
	inOrder("persistent", persistent, "isFromProcessingChain> ?chain} on h,chain", "aggregate group=?hGeo")
}

// TestSeedRowsMatchTheSeedList pins the positional seed contract on the
// rules' three seed shapes — ?h; ?h ?pixel ?since ?now ?min ?chain;
// ?since ?now ?min ?chain: a row as wide as the seed list runs, and a
// row one term short or one term long is refused instead of binding the
// wrong variables.
func TestSeedRowsMatchTheSeedList(t *testing.T) {
	s := strabon.New()
	s.LoadTriples(auxdata.Generate(42).AllTriples())
	rules, err := NewRunner(s).compiled()
	if err != nil {
		t.Fatal(err)
	}
	h, pixel, window := seedTerms()
	run := func(p *stsparql.Prepared, row stsparql.Row) (err error) {
		inFlush(t, s, func(tx *strabon.FlushTx) {
			if p == rules.persistent {
				_, err = tx.Select(p, []stsparql.Row{row})
				return
			}
			_, err = tx.Plan(p, []stsparql.Row{row})
		})
		return err
	}
	for _, tc := range []struct {
		name string
		p    *stsparql.Prepared
		row  stsparql.Row
	}{
		{"?h", rules.scoped[0].prepared, stsparql.Row{h}},
		{"?h ?pixel ?since ?now ?min ?chain", rules.confirm, append(stsparql.Row{h, pixel}, window...)},
		{"?since ?now ?min ?chain", rules.persistent, window},
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

// seedTerms are one seed of every shape the rules take: a hotspot, its
// pixel, and a persistence window (?since ?now ?min ?chain).
func seedTerms() (h, pixel rdf.Term, window stsparql.Row) {
	h = rdf.NewIRI(ontology.NOA + "Hotspot_x")
	pixel = rdf.NewGeometry("POLYGON ((22.3 38.3, 22.34 38.3, 22.34 38.34, 22.3 38.34, 22.3 38.3))")
	window = stsparql.Row{rdf.NewLiteral("2007-08-24T11:00:00"), rdf.NewLiteral("2007-08-24T12:00:00"), rdf.NewInteger(2),
		rdf.NewTypedLiteral("sciql", rdf.XSDString)}
	return h, pixel, window
}

var errDiscard = errors.New("discard the flush")

// inFlush hands fn the store as the rules of a flush see it, then
// discards the flush: prepared rules run, and plan, against the flush's
// overlay, the source they run on in service.
func inFlush(t *testing.T, s *strabon.Store, fn func(tx *strabon.FlushTx)) {
	t.Helper()
	err := s.ApplyFlush(strabon.Flush{}, func(tx *strabon.FlushTx) error {
		fn(tx)
		return errDiscard
	})
	if err != errDiscard {
		t.Fatalf("ApplyFlush = %v, want the discarding rules' error", err)
	}
}
