package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// capabilityFree hides every optional capability of a source — the time
// index above all — leaving the plain scan-and-filter engine as the
// oracle the time-range access path is compared against.
type capabilityFree struct{ stsparql.Source }

// oracleQuery evaluates q with no index in play, over a flat copy of
// st's triples.
func oracleQuery(t *testing.T, st *Store, q string) *stsparql.Result {
	t.Helper()
	parsed, err := stsparql.Parse(q, st.Namespaces())
	if err != nil {
		t.Fatalf("parse %s: %v", q, err)
	}
	res, err := selectAll(stsparql.NewEvaluator(capabilityFree{flatCopy(t, st)}), parsed)
	if err != nil {
		t.Fatalf("oracle %s: %v", q, err)
	}
	return res
}

// selectAll compiles a SELECT on ev and drains it into a Result.
func selectAll(ev *stsparql.Evaluator, q *stsparql.Query) (*stsparql.Result, error) {
	cur, err := ev.RunCompiled(ev.Compile(q))
	if err != nil {
		return nil, err
	}
	res := stsparql.ReadAll(cur)
	if err := cur.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

// verifyTimeIndexes checks every member's time index against its
// triples.
func verifyTimeIndexes(t *testing.T, st *Store) {
	t.Helper()
	if err := st.VerifyTimeIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestShardZonedTimeLiteral is the topology-divergence regression: a
// group routes by the INSTANT of its time literal (05:00+02:00 is 03:00
// UTC) while the paper's str() idiom compares the literal's TEXT, so a
// lexical window must stop pruning slices — and index ranges — once a
// zoned literal is in play. A typed window keeps pruning: it compares
// instants, as the routing does.
func TestShardZonedTimeLiteral(t *testing.T) {
	zoned := []rdf.Triple{
		{S: iri("http://example.org/zoned"), P: iri(rdf.RDFType), O: iri(nsNOA + "Hotspot")},
		{S: iri("http://example.org/zoned"), P: iri(nsNOA + "hasAcquisitionDateTime"),
			O: rdf.NewDateTime("2007-08-25T11:00:00+02:00")},
	}
	lexical := `SELECT ?h ?at WHERE { ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  FILTER( str(?at) >= "2007-08-25T10:50:00" ) FILTER( str(?at) <= "2007-08-25T11:10:00" ) }`
	typed := `SELECT ?h ?at WHERE { ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  FILTER( ?at >= "2007-08-25T08:50:00"^^xsd:dateTime ) FILTER( ?at <= "2007-08-25T09:10:00"^^xsd:dateTime ) }`

	stores := map[string]*Store{}
	for _, n := range []int{1, 2, 4} {
		sh := newSharded(n)
		loadFixture(sh)
		sh.InsertAll(zoned)
		stores[fmt.Sprintf("slices=%d", n)] = sh
	}
	wantLexical, wantTyped := oracleQuery(t, stores["slices=1"], lexical), oracleQuery(t, stores["slices=1"], typed)
	if n := len(wantTyped.Rows); n != 1 {
		t.Fatalf("typed window finds %d rows, want the zoned hotspot alone", n)
	}
	found := false
	for i := range wantLexical.Rows {
		found = found || at(wantLexical, i, "h").Value == "http://example.org/zoned"
	}
	if !found {
		t.Fatal("lexical window misses the zoned hotspot on the oracle")
	}

	for name, st := range stores {
		for _, tc := range []struct {
			q    string
			want *stsparql.Result
		}{{lexical, wantLexical}, {typed, wantTyped}} {
			got, err := runQuery(st, tc.q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertEquivalent(t, name, tc.want, got, false)
		}
		plan, err := st.Explain(typed)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "scan[time-range]") {
			t.Errorf("%s: a typed window must still read the time index beside zoned literals:\n%s", name, plan)
		}
		verifyTimeIndexes(t, st)
	}
	// Four one-hour slices: the typed window prunes to the slice of
	// 09:00 UTC, the lexical one no longer prunes at all.
	plan, _ := stores["slices=4"].Explain(typed)
	if !strings.Contains(plan, "shard fan-out: 1/4 slices") {
		t.Errorf("typed window not pruned to one slice:\n%s", plan)
	}
	plan, _ = stores["slices=4"].Explain(lexical)
	if !strings.Contains(plan, "shard fan-out: 4/4 slices") {
		t.Errorf("lexical window still prunes beside a zoned literal:\n%s", plan)
	}
}

// --- differential test on generated input ---

const nsEx = "http://example.org/"

// genLiteral draws one acquisition-time object. Canonical histories
// hold only the form the products are stamped with; mixed ones add the
// forms that break "string order is time order" and the ones that are
// not times at all.
func genLiteral(r *rand.Rand, mixed bool) rdf.Term {
	at := day.Add(10*time.Hour + time.Duration(r.Intn(240))*time.Minute)
	if !mixed || r.Intn(100) < 55 {
		return rdf.NewDateTime(at.Format("2006-01-02T15:04:05"))
	}
	switch r.Intn(7) {
	case 0:
		return rdf.NewDateTime(at.Format("2006-01-02T15:04:05") + "+02:00")
	case 1:
		return rdf.NewDateTime(at.Format("2006-01-02T15:04:05") + "-03:00")
	case 2:
		return rdf.NewDateTime(at.Format("2006-01-02T15:04:05") + "Z")
	case 3:
		return rdf.NewDateTime(at.Format("2006-01-02")) // date-only
	case 4:
		return rdf.NewDateTime(at.Format("2006-01-02T15:04")) // minute resolution
	case 5:
		return rdf.NewDateTime(at.Format("02/01/2006 15:04")) // malformed
	default:
		return rdf.NewLiteral(at.Format("2006-01-02T15:04:05")) // a plain string
	}
}

// genHistory builds a small acquisition history: one group per hotspot,
// each with its acquisition time, place and chain and, for some, a
// second dateTime property.
func genHistory(r *rand.Rand, mixed bool) [][]rdf.Triple {
	groups := make([][]rdf.Triple, 6+r.Intn(10))
	for i := range groups {
		h := iri(fmt.Sprintf("%shot%d", nsEx, i))
		groups[i] = []rdf.Triple{
			{S: h, P: iri(rdf.RDFType), O: iri(nsNOA + "Hotspot")},
			{S: h, P: iri(nsNOA + "hasAcquisitionDateTime"), O: genLiteral(r, mixed)},
		}
		if r.Intn(2) == 0 {
			groups[i] = append(groups[i], rdf.Triple{S: h, P: iri(nsEx + "observedAt"), O: genLiteral(r, mixed)})
		}
		// One of three places and one of two chains, for the seeded
		// window join of checkSeededWindows.
		groups[i] = append(groups[i],
			rdf.Triple{S: h, P: iri(nsStRDF + "hasGeometry"), O: place(i % 3)},
			rdf.Triple{S: h, P: iri(nsNOA + "isFromProcessingChain"), O: chains[i%4/3]})
	}
	return groups
}

// chains are the processing chains of a generated history: the
// detections of the first, and the virtual hotspots of the second.
var chains = []rdf.Term{rdf.NewTypedLiteral("sciql", rdf.XSDString), rdf.NewTypedLiteral("persistence", rdf.XSDString)}

// place is the pixel of the i-th place of a generated history.
func place(i int) rdf.Term {
	return rdf.NewGeometry(fmt.Sprintf("POLYGON ((%d 0, %d 0, %d 1, %d 1, %d 0))", 2*i, 2*i+1, 2*i+1, 2*i, 2*i))
}

// genConst draws a window constant around the history's four hours.
func genConst(r *rand.Rand) string {
	at := day.Add(9*time.Hour + 30*time.Minute + time.Duration(r.Intn(300))*time.Minute)
	lex := at.Format("2006-01-02T15:04:05")
	switch r.Intn(10) {
	case 0:
		lex = at.Format("2006-01-02T15:04")
	case 1:
		lex = at.Format("2006-01-02")
	case 2:
		lex += "+02:00"
	case 3:
		lex += "Z"
	}
	if r.Intn(2) == 0 {
		return `"` + lex + `"^^xsd:dateTime`
	}
	return `"` + lex + `"`
}

// genBound renders one comparison of v with a constant: str() or direct,
// either way round.
func genBound(r *rand.Rand, v string, ops []string) string {
	lhs := "?" + v
	if r.Intn(2) == 0 {
		lhs = "str(?" + v + ")"
	}
	op := ops[r.Intn(len(ops))]
	if r.Intn(4) == 0 { // mirrored
		mirror := map[string]string{">=": "<=", ">": "<", "<=": ">=", "<": ">", "=": "="}
		return genConst(r) + " " + mirror[op] + " " + lhs
	}
	return lhs + " " + op + " " + genConst(r)
}

// genWindow renders the filters confining v: one- or two-sided (the two
// sides drawn independently, so some windows are empty), an equality,
// as separate FILTERs or one &&-nested condition.
func genWindow(r *rand.Rand, v string) string {
	lower, upper := []string{">=", ">"}, []string{"<=", "<"}
	switch r.Intn(6) {
	case 0:
		return "FILTER( " + genBound(r, v, lower) + " )"
	case 1:
		return "FILTER( " + genBound(r, v, upper) + " )"
	case 2:
		return "FILTER( " + genBound(r, v, []string{"="}) + " )"
	case 3:
		return "FILTER( " + genBound(r, v, lower) + " && " + genBound(r, v, upper) + " )"
	default:
		return "FILTER( " + genBound(r, v, lower) + " ) FILTER( " + genBound(r, v, upper) + " )"
	}
}

func genQuery(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString("SELECT ?h ?t ?u WHERE { ?h noa:hasAcquisitionDateTime ?t . ")
	if r.Intn(2) == 0 {
		b.WriteString("?h a noa:Hotspot . ")
	}
	second := r.Intn(3) == 0
	if second {
		fmt.Fprintf(&b, "?h <%sobservedAt> ?u . ", nsEx)
	}
	if !second || r.Intn(4) > 0 {
		b.WriteString(genWindow(r, "t") + " ")
	}
	if second && r.Intn(2) == 0 {
		b.WriteString(genWindow(r, "u") + " ")
	}
	b.WriteString("}")
	return b.String()
}

// TestTimeRangeDifferential compares the time-range access path with
// the capability-free engine on generated input: random small
// acquisition histories — loaded out of order, partly deleted again —
// times random windows in every recognised form, on stores of 1, 2 and
// 4 slices. Row sets must be equal and
// every member's time index exact. Each history is also read through
// prepared requests whose windows are seed variables, inside a flush
// whose overlay has deleted and added entries in the window
// (checkSeededWindows).
func TestTimeRangeDifferential(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	ranged := 0
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		mixed := seed%2 == 1
		groups := genHistory(r, mixed)
		r.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
		gone := fmt.Sprintf("DELETE { ?h ?p ?o } WHERE { ?h ?p ?o . FILTER( ?h = <%shot%d> || ?h = <%shot%d> ) }",
			nsEx, r.Intn(len(groups)), nsEx, r.Intn(len(groups)))

		stores := []*Store{newSharded(1), newSharded(2), newSharded(4)}
		for _, st := range stores {
			half := len(groups) / 2
			st.InsertAll(groups[:half]...)
			st.InsertAll(groups[half:]...)
			verifyTimeIndexes(t, st)
			if _, err := st.Update(gone); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			verifyTimeIndexes(t, st)
		}
		for k := 0; k < 25; k++ {
			q := genQuery(r)
			want := oracleQuery(t, stores[0], q)
			for _, st := range stores {
				got, err := runQuery(st, q)
				if err != nil {
					t.Fatalf("seed %d: %T: %s: %v", seed, st, q, err)
				}
				assertEquivalent(t, fmt.Sprintf("seed %d, %d slices\n%s", seed, st.Slices(), q), want, got, false)
			}
			if plan, err := stores[0].Explain(q); err != nil {
				t.Fatal(err)
			} else if strings.Contains(plan, "scan[time-range]") {
				ranged++
			}
		}
		checkSeededWindows(t, seed, r, groups, gone, stores)
	}
	// The comparison is only worth something if the access path ran.
	if ranged < seeds*5 {
		t.Fatalf("only %d of %d generated queries planned a time-range scan", ranged, seeds*25)
	}
}

// seededQueries bound their time variable by the seed variables ?since
// and ?now, in the rules' str() idiom, typed and mirrored.
var seededQueries = []string{
	`SELECT ?h ?t WHERE { ?h noa:hasAcquisitionDateTime ?t . FILTER( str(?t) >= ?since ) FILTER( str(?t) < ?now ) }`,
	`SELECT ?h ?t WHERE { ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?t . FILTER( ?t >= ?since && ?t <= ?now ) }`,
	`SELECT ?h ?t WHERE { ?h noa:hasAcquisitionDateTime ?t . FILTER( ?since <= str(?t) ) FILTER( ?now > str(?t) ) }`,
}

// seededWindowJoin is the confirm rule's sub-select: one chain's
// detections of the seed's window around the seed's pixel. It plans as
// an R-tree window filtered by class, chain and time.
const seededWindowJoin = `SELECT ?p ?t WHERE {
  ?p a noa:Hotspot ; noa:hasAcquisitionDateTime ?t ; noa:isFromProcessingChain ?chain ; strdf:hasGeometry ?g .
  FILTER( str(?t) >= ?since ) FILTER( str(?t) < ?now ) FILTER( strdf:anyInteract(?g, ?pixel) ) }`

// genSeedWindow draws the seed of one window: canonical plain bounds
// (lexical), typed ones (chronological), a zoned plain bound (which
// bounds nothing), or since after now (empty). The row binds ?since
// ?now.
func genSeedWindow(r *rand.Rand) stsparql.Row {
	since := day.Add(9*time.Hour + 30*time.Minute + time.Duration(r.Intn(240))*time.Minute)
	now := since.Add(time.Duration(r.Intn(120)) * time.Minute)
	lit := func(at time.Time) rdf.Term { return rdf.NewLiteral(at.Format("2006-01-02T15:04:05")) }
	switch r.Intn(4) {
	case 0:
		return stsparql.Row{lit(since), lit(now)}
	case 1:
		return stsparql.Row{rdf.NewDateTime(since.Format("2006-01-02T15:04:05")), rdf.NewDateTime(now.Format("2006-01-02T15:04:05"))}
	case 2:
		return stsparql.Row{rdf.NewLiteral(since.Format("2006-01-02T15:04:05") + "+02:00"), lit(now)}
	default:
		return stsparql.Row{lit(now.Add(time.Minute)), lit(since)}
	}
}

var errDiscard = errors.New("discard the flush")

// checkSeededWindows runs the seeded queries inside a flush on every
// store — over its Overlay, after the flush deleted one hotspot and added
// another inside the history's hours — and compares each result with
// the capability-free engine over a flat copy of the same state. The flush is then discarded. Over a canonical history every
// plan must read the time index.
func checkSeededWindows(t *testing.T, seed int, r *rand.Rand, groups [][]rdf.Triple, gone string, stores []*Store) {
	t.Helper()
	ns := stores[0].Namespaces()
	prepare := func(src string, vars ...string) *stsparql.Prepared {
		p, err := stsparql.Prepare(src, ns, vars...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	victim := groups[r.Intn(len(groups))][0].S
	born := iri(fmt.Sprintf("%sborn%d", nsEx, seed))
	added := []rdf.Triple{
		{S: born, P: iri(rdf.RDFType), O: iri(nsNOA + "Hotspot")},
		{S: born, P: iri(nsNOA + "hasAcquisitionDateTime"), O: rdf.NewDateTime(day.Add(11*time.Hour + time.Duration(r.Intn(120))*time.Minute).Format("2006-01-02T15:04:05"))},
		{S: born, P: iri(nsStRDF + "hasGeometry"), O: place(0)},
		{S: born, P: iri(nsNOA + "isFromProcessingChain"), O: chains[1]},
	}
	seeds := make([]stsparql.Row, 6)
	for i := range seeds {
		seeds[i] = genSeedWindow(r)
	}
	// The window join's seeds: each window, with the detections' chain
	// and one of the places.
	joinSeeds := make([]stsparql.Row, len(seeds))
	for i, sd := range seeds {
		joinSeeds[i] = append(sd.Clone(), chains[0], place(i%3))
	}
	joinVars := []string{"since", "now", "chain", "pixel"}

	// The oracle: the same state, applied directly, read without indexes.
	mod := newSharded(1)
	half := len(groups) / 2
	mod.InsertAll(groups[:half]...)
	mod.InsertAll(groups[half:]...)
	for _, u := range []string{gone, fmt.Sprintf("DELETE { <%s> ?p ?o } WHERE { <%s> ?p ?o }", victim.Value, victim.Value)} {
		if _, err := mod.Update(u); err != nil {
			t.Fatal(err)
		}
	}
	mod.InsertAll(added)
	want := make([][]*stsparql.Result, len(seededQueries))
	flat := flatCopy(t, mod)
	oracle := stsparql.NewEvaluator(capabilityFree{flat})
	for qi, q := range seededQueries {
		p := prepare(q, "since", "now")
		for _, sd := range seeds {
			res, err := oracle.SelectPrepared(p, []stsparql.Row{sd})
			if err != nil {
				t.Fatal(err)
			}
			want[qi] = append(want[qi], res)
		}
	}
	var wantJoin []*stsparql.Result
	join := prepare(seededWindowJoin, joinVars...)
	for _, sd := range joinSeeds {
		res, err := oracle.SelectPrepared(join, []stsparql.Row{sd})
		if err != nil {
			t.Fatal(err)
		}
		wantJoin = append(wantJoin, res)
	}
	// The join without each of its filters, over the same state.
	for name, src := range filteredSources(flat) {
		ev, p := stsparql.NewEvaluator(src), prepare(seededWindowJoin, joinVars...)
		for si, sd := range joinSeeds {
			got, err := ev.SelectPrepared(p, []stsparql.Row{sd})
			if err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, fmt.Sprintf("seed %d, %s copy\nseed %v", seed, name, sd), wantJoin[si], got, false)
		}
	}

	del := prepare(`DELETE { ?victim ?p ?o } WHERE { ?victim ?p ?o }`, "victim")
	for _, st := range stores {
		name := fmt.Sprintf("seed %d, %d slices", seed, st.Slices())
		prepared := make([]*stsparql.Prepared, len(seededQueries))
		join := prepare(seededWindowJoin, joinVars...)
		f := strabon.Flush{Since: day.Add(9 * time.Hour), At: []time.Time{day.Add(15 * time.Hour)}}
		err := st.ApplyFlush(f, func(tx *strabon.FlushTx) error {
			plan, err := tx.Plan(del, []stsparql.Row{{victim}})
			if err != nil {
				return err
			}
			plan.Insert(added...)
			tx.Apply(plan)
			for qi, q := range seededQueries {
				prepared[qi] = prepare(q, "since", "now")
				for si, sd := range seeds {
					got, err := tx.Select(prepared[qi], []stsparql.Row{sd})
					if err != nil {
						return err
					}
					assertEquivalent(t, fmt.Sprintf("%s, overlay\n%s\nseed %v", name, q, sd), want[qi][si], got, false)
				}
			}
			for si, sd := range joinSeeds {
				got, err := tx.Select(join, []stsparql.Row{sd})
				if err != nil {
					return err
				}
				assertEquivalent(t, fmt.Sprintf("%s, overlay\n%s\nseed %v", name, seededWindowJoin, sd), wantJoin[si], got, false)
			}
			return errDiscard
		})
		if !errors.Is(err, errDiscard) {
			t.Fatalf("%s: flush: %v", name, err)
		}
		for qi, p := range prepared {
			if seed%2 == 1 {
				break // a mixed history holds objects no index serves
			}
			if plan := p.Explain(stsparql.NewEvaluator(capabilityFree{flat})); !strings.Contains(plan, "scan[time-range]") || !strings.Contains(plan, "[?since, ?now]") {
				t.Fatalf("%s: %s planned without the seeded time range:\n%s", name, seededQueries[qi], plan)
			}
		}
		if plan := join.Explain(stsparql.NewEvaluator(capabilityFree{flat})); !strings.Contains(plan, "isFromProcessingChain>=?chain time=[?since, ?now]] {?p ") {
			t.Fatalf("%s: the window join does not filter by the seeded chain and window:\n%s", name, plan)
		}
	}
}
