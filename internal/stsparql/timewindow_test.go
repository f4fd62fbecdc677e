package stsparql

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
)

func unixOf(t *testing.T, iso string) int64 {
	t.Helper()
	at, err := time.Parse(time.RFC3339, iso)
	if err != nil {
		t.Fatal(err)
	}
	return at.Unix()
}

// TestExtractTimeWindows pins the one extractor router and planner
// share: every recognised comparison form, the folding of several
// bounds, and which constants bound lexically, chronologically or not
// at all.
func TestExtractTimeWindows(t *testing.T) {
	const open = "open"
	cases := []struct {
		name    string
		filters string
		lo, hi  string // RFC3339, or open
		lexical bool
		none    bool
	}{
		{"paper idiom", `FILTER( str(?at) >= "2007-08-24T18:00:00" ) FILTER( str(?at) <= "2007-08-24T18:30:00" )`,
			"2007-08-24T18:00:00Z", "2007-08-24T18:30:00Z", true, false},
		{"typed", `FILTER( ?at >= "2007-08-24T18:00:00"^^xsd:dateTime && ?at < "2007-08-24T18:30:00"^^xsd:dateTime )`,
			"2007-08-24T18:00:00Z", "2007-08-24T18:30:00Z", false, false},
		{"typed zoned constant bounds by instant", `FILTER( ?at >= "2007-08-24T20:00:00+02:00"^^xsd:dateTime )`,
			"2007-08-24T18:00:00Z", open, false, false},
		{"str against a typed constant is chronological", `FILTER( str(?at) <= "2007-08-24T18:30:00Z"^^xsd:dateTime )`,
			open, "2007-08-24T18:30:00Z", false, false},
		{"direct against a plain constant is lexical", `FILTER( ?at > "2007-08-24T18:00:00" )`,
			"2007-08-24T18:00:00Z", open, true, false},
		{"mirrored", `FILTER( "2007-08-24T18:00:00" <= str(?at) ) FILTER( "2007-08-24T18:30:00" > str(?at) )`,
			"2007-08-24T18:00:00Z", "2007-08-24T18:30:00Z", true, false},
		{"equality", `FILTER( str(?at) = "2007-08-24T18:15:00" )`,
			"2007-08-24T18:15:00Z", "2007-08-24T18:15:00Z", true, false},
		{"tightest bounds win, one lexical bound marks the window", `FILTER( ?at >= "2007-08-24T17:00:00"^^xsd:dateTime )
			FILTER( str(?at) >= "2007-08-24T18:00" ) FILTER( ?at <= "2007-08-24T19:00:00"^^xsd:dateTime ) FILTER( ?at <= "2007-08-25"^^xsd:dateTime )`,
			"2007-08-24T18:00:00Z", "2007-08-24T19:00:00Z", true, false},
		{"empty window", `FILTER( str(?at) >= "2007-08-24T19:00:00" && str(?at) <= "2007-08-24T18:00:00" )`,
			"2007-08-24T19:00:00Z", "2007-08-24T18:00:00Z", true, false},
		{"fractions round outwards", `FILTER( ?at <= "2007-08-24T18:30:00.75Z"^^xsd:dateTime )`,
			open, "2007-08-24T18:30:00Z", false, false},
		{"plain zoned constant: string order is not its instant's", `FILTER( str(?at) >= "2007-08-24T18:00:00+02:00" )`, "", "", false, true},
		{"unparseable constant", `FILTER( str(?at) >= "yesterday" )`, "", "", false, true},
		{"numeric constant", `FILTER( ?at >= 2007 )`, "", "", false, true},
		{"disjunction", `FILTER( str(?at) >= "2007-08-24T18:00:00" || str(?at) <= "2007-08-24T17:00:00" )`, "", "", false, true},
		{"inequality", `FILTER( str(?at) != "2007-08-24T18:00:00" )`, "", "", false, true},
		{"another variable", `FILTER( str(?other) >= "2007-08-24T18:00:00" )`, "", "", false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := mustParse(t, `SELECT ?h WHERE { ?h noa:hasAcquisitionDateTime ?at ; noa:hasConfidence ?other . `+tc.filters+` }`)
			var conds []Expr
			for _, el := range q.Select.Where.Elements {
				if f, ok := el.(*FilterElement); ok {
					conds = append(conds, f.Cond)
				}
			}
			wins := ExtractTimeWindows(conds, map[string]bool{"at": true}, nil)
			w := wins["at"]
			if tc.none {
				if len(wins) != 0 {
					t.Fatalf("extracted %v, want no window", *w)
				}
				return
			}
			if w == nil {
				t.Fatal("no window extracted")
			}
			want := TimeWindow{Lo: math.MinInt64, Hi: math.MaxInt64, Lexical: tc.lexical}
			if tc.lo != open {
				want.Lo = unixOf(t, tc.lo)
			}
			if tc.hi != open {
				want.Hi = unixOf(t, tc.hi)
			}
			if *w != want {
				t.Fatalf("window %v lexical=%v, want %v lexical=%v", *w, w.Lexical, want, want.Lexical)
			}
		})
	}
}

func TestTimeKey(t *testing.T) {
	for _, tc := range []struct {
		term          rdf.Term
		iso           string
		canonical, ok bool
	}{
		{rdf.NewDateTime("2007-08-24T18:15:00"), "2007-08-24T18:15:00Z", true, true},
		{rdf.NewDateTime("2007-08-24T18:15:00+02:00"), "2007-08-24T16:15:00Z", false, true},
		{rdf.NewDateTime("2007-08-24T18:15:00Z"), "2007-08-24T18:15:00Z", false, true},
		{rdf.NewDateTime("2007-08-24T18:15"), "2007-08-24T18:15:00Z", false, true},
		{rdf.NewDateTime("2007-08-24"), "2007-08-24T00:00:00Z", false, true},
		{rdf.NewDateTime("24/08/2007 18:15"), "", false, false},
		{rdf.NewLiteral("2007-08-24T18:15:00"), "", false, false},
		{rdf.NewIRI("http://example.org/now"), "", false, false},
	} {
		unix, canonical, ok := TimeKey(tc.term)
		if ok != tc.ok || canonical != tc.canonical || (ok && unix != unixOf(t, tc.iso)) {
			t.Errorf("TimeKey(%s) = %d, %v, %v; want %s, %v, %v", tc.term, unix, canonical, ok, tc.iso, tc.canonical, tc.ok)
		}
	}
}

// timedFixture gives the fixture store a time-range capability by brute
// force, so the planner's promotion can be pinned inside this package
// (the real index lives in package strabon). It counts range scans.
type timedFixture struct {
	*rdf.Store
	scans *int
}

var _ TimeRangeSource = timedFixture{}

func (f timedFixture) CountTimeRange(p rdf.ID, w TimeWindow) (int, bool) {
	n := 0
	f.match(p, w, func(rdf.EncodedTriple) bool { n++; return true })
	return n, true
}

func (f timedFixture) MatchTimeRangeIDs(p rdf.ID, w TimeWindow, visit func(rdf.EncodedTriple) bool) bool {
	*f.scans++
	return f.match(p, w, visit)
}

func (f timedFixture) match(p rdf.ID, w TimeWindow, visit func(rdf.EncodedTriple) bool) bool {
	return f.MatchIDs(rdf.Wildcard, p, rdf.Wildcard, func(t rdf.EncodedTriple) bool {
		if unix, _, ok := TimeKey(f.Dict().Decode(t.O)); ok && unix >= w.Lo && unix <= w.Hi {
			return visit(t)
		}
		return true
	})
}

// TestTimeRangePlanning pins which patterns the planner promotes to a
// time-range scan — every window form reaches the same operator, first
// in the plan, with the filters kept as residuals — which it must not,
// and that promoted plans return the rows of the plain ones.
func TestTimeRangePlanning(t *testing.T) {
	scans := 0
	src := timedFixture{fixtureStore(), &scans}
	const atPattern = `{?h <` + noaNS + `hasAcquisitionDateTime> ?at}`
	promoted := []struct{ name, where, window string }{
		{"str", `?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
			FILTER( str(?at) >= "2007-08-24T18:15:00" ) FILTER( str(?at) < "2007-08-24T18:20:00" )`,
			"[2007-08-24T18:15:00, 2007-08-24T18:20:00] est=3"},
		{"typed", `?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
			FILTER( ?at > "2007-08-24T18:15:00"^^xsd:dateTime )`,
			"[2007-08-24T18:15:00, ..] est=3"},
		{"mirrored", `?h noa:hasAcquisitionDateTime ?at ; noa:hasConfidence ?c .
			FILTER( "2007-08-24T18:19:00" >= str(?at) )`,
			"[.., 2007-08-24T18:19:00] est=2"},
		{"equality", `?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?g .
			FILTER( str(?at) = "2007-08-24T18:20:00" )`,
			"[2007-08-24T18:20:00, 2007-08-24T18:20:00] est=1"},
		{"empty", `?h noa:hasAcquisitionDateTime ?at .
			FILTER( str(?at) >= "2007-08-24T19:00:00" && str(?at) <= "2007-08-24T18:00:00" )`,
			"[2007-08-24T19:00:00, 2007-08-24T18:00:00] est=0.062"}, // estimates floor at 1/16
		{"inside optional", `?h a noa:Hotspot . OPTIONAL { ?p noa:hasAcquisitionDateTime ?at . FILTER( str(?at) = "2007-08-24T18:20:00" ) }`, ""},
	}
	for _, tc := range promoted {
		t.Run(tc.name, func(t *testing.T) {
			text := `SELECT * WHERE { ` + tc.where + ` }`
			q := mustParse(t, text)
			plan, err := NewEvaluator(src).Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			if tc.window != "" {
				first := strings.SplitN(plan, "\n", 3)[1]
				if want := "  scan[time-range] " + atPattern + " " + tc.window; first != want {
					t.Fatalf("first operator:\n%s\nwant:\n%s\nplan:\n%s", first, want, plan)
				}
			} else if !strings.Contains(plan, "scan[time-range]") {
				t.Fatalf("no time-range scan in:\n%s", plan)
			}
			if strings.Count(plan, "filter") < strings.Count(text, "FILTER") {
				t.Fatalf("a window filter was consumed, not kept as residual:\n%s", plan)
			}
			before := scans
			got := renderResultGolden(runSelectSrc(t, src, text), false)
			if scans == before {
				t.Fatal("the plan never read the time index")
			}
			if want := renderResultGolden(runSelectSrc(t, src.Store, text), false); got != want {
				t.Fatalf("rows diverge from the plain scan:\n--- plain\n%s\n--- time-range\n%s", want, got)
			}
		})
	}

	for name, where := range map[string]string{
		"no window":            `?h noa:hasAcquisitionDateTime ?at .`,
		"constant subject":     `noa:Hotspot_land noa:hasAcquisitionDateTime ?at . FILTER( str(?at) >= "2007-08-24T18:00:00" )`,
		"variable predicate":   `?h ?p ?at . FILTER( str(?at) >= "2007-08-24T18:00:00" )`,
		"filter outside group": `?h a noa:Hotspot . OPTIONAL { ?h noa:hasAcquisitionDateTime ?at } FILTER( str(?at) >= "2007-08-24T18:00:00" )`,
		"unusable constant":    `?h noa:hasAcquisitionDateTime ?at . FILTER( str(?at) >= "2007-08-24T18:00:00+02:00" )`,
	} {
		plan, err := NewEvaluator(src).Explain(mustParse(t, `SELECT * WHERE { `+where+` }`))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan, "time-range") {
			t.Errorf("%s: promoted to a time-range scan:\n%s", name, plan)
		}
	}

	// A source without the capability plans as before.
	plan, err := NewEvaluator(src.Store).Explain(mustParse(t, `SELECT * WHERE { `+promoted[0].where+` }`))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "time-range") {
		t.Errorf("capability-free source planned a time-range scan:\n%s", plan)
	}
}

// TestTimeRangeScanYieldsToBoundProbe: a variable the planner could not
// count as bound (an OPTIONAL upstream may bind it) can still arrive
// bound at run time; the scan must then honour the binding instead of
// ranging over the index.
func TestTimeRangeScanYieldsToBoundProbe(t *testing.T) {
	scans := 0
	src := timedFixture{fixtureStore(), &scans}
	text := `SELECT * WHERE {
  OPTIONAL { noa:Hotspot_coast noa:hasAcquisitionDateTime ?at }
  ?h noa:hasAcquisitionDateTime ?at .
  FILTER( str(?at) >= "2007-08-24T18:00:00" )
}`
	plan, err := NewEvaluator(src).Explain(mustParse(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "scan[time-range]") {
		t.Fatalf("expected a time-range scan in:\n%s", plan)
	}
	got := renderResultGolden(runSelectSrc(t, src, text), false)
	want := renderResultGolden(runSelectSrc(t, src.Store, text), false)
	if got != want {
		t.Fatalf("rows diverge:\n--- plain\n%s\n--- time-range\n%s", want, got)
	}
	if scans != 0 {
		t.Fatalf("the scan ranged over the index %d times despite a bound time", scans)
	}
}
