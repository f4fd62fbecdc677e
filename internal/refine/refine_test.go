package refine_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/auxdata"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/ontology"
	"repro/internal/products"
	"repro/internal/rdf"
	. "repro/internal/refine"
	"repro/internal/seviri"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// testWorldStore loads a tiny hand-made world: one square island with an
// urban cell and a municipality.
func testWorldStore(t *testing.T) *strabon.Store {
	t.Helper()
	s := strabon.New()
	_, err := s.LoadTurtle(`
@prefix coast: <http://teleios.di.uoa.gr/ontologies/coastlineOntology.owl#> .
@prefix clc: <http://teleios.di.uoa.gr/ontologies/clcOntology.owl#> .
@prefix gag: <http://teleios.di.uoa.gr/ontologies/gagOntology.owl#> .
@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .

coast:Coastline_1 a coast:Coastline ;
  strdf:hasGeometry "POLYGON ((22 37, 24 37, 24 39, 22 39, 22 37))"^^strdf:geometry .

clc:Area_urban a clc:Area ;
  clc:hasLandUse clc:ContinuousUrbanFabric ;
  strdf:hasGeometry "POLYGON ((23 38, 23.5 38, 23.5 38.5, 23 38.5, 23 38))"^^strdf:geometry .

clc:Area_forest a clc:Area ;
  clc:hasLandUse clc:ConiferousForest ;
  strdf:hasGeometry "POLYGON ((22 37, 23 37, 23 38, 22 38, 22 37))"^^strdf:geometry .

gag:mun1 a gag:Municipality ;
  strdf:hasGeometry "POLYGON ((22 37, 24 37, 24 39, 22 39, 22 37))"^^strdf:geometry .
`)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func hotspotAt(lon, lat float64, at time.Time, id string) products.Hotspot {
	return products.Hotspot{
		ID:         id,
		Geometry:   geom.NewSquare(lon, lat, 0.04),
		Confidence: 1.0,
		AcquiredAt: at,
		Sensor:     "MSG1",
		Chain:      "sciql",
		Producer:   "noa",
	}
}

func TestApplyOperationOrder(t *testing.T) {
	s := testWorldStore(t)
	r := NewRunner(s)
	at := time.Date(2007, 8, 24, 12, 0, 0, 0, time.UTC)
	p := &products.Product{
		Sensor: "MSG1", Chain: "sciql", AcquiredAt: at,
		Hotspots: []products.Hotspot{
			hotspotAt(22.5, 37.5, at, "forest"),
			hotspotAt(25.5, 35.5, at, "sea"),
			hotspotAt(23.2, 38.2, at, "urban"),
		},
	}
	out, err := r.Apply([]*products.Product{p})
	if err != nil {
		t.Fatal(err)
	}
	timings := out[0].Timings
	if out[0].Refined != 1 {
		t.Fatalf("Refined = %d, want 1", out[0].Refined)
	}
	if len(timings) != len(AllOps) {
		t.Fatalf("%d timings", len(timings))
	}
	for i, tm := range timings {
		if tm.Op != AllOps[i] {
			t.Fatalf("op %d = %s, want %s", i, tm.Op, AllOps[i])
		}
		if tm.Duration <= 0 {
			t.Fatalf("op %s has no duration", tm.Op)
		}
	}
	// Only the forest hotspot must survive: sea deleted, urban deleted.
	res, err := r.CurrentHotspots(at)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%d hotspots survive, want 1", len(res.Rows))
	}
}

func TestMunicipalityAssociation(t *testing.T) {
	s := testWorldStore(t)
	r := NewRunner(s)
	at := time.Date(2007, 8, 24, 12, 0, 0, 0, time.UTC)
	p := &products.Product{
		Sensor: "MSG1", Chain: "sciql", AcquiredAt: at,
		Hotspots: []products.Hotspot{hotspotAt(22.5, 37.5, at, "h1")},
	}
	r.Store.LoadTriples(p.Triples())
	n, err := r.Municipalities(p)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("associations = %d", n)
	}
}

func TestRefineInCoastClipsGeometry(t *testing.T) {
	s := testWorldStore(t)
	r := NewRunner(s)
	at := time.Date(2007, 8, 24, 12, 0, 0, 0, time.UTC)
	// A hotspot square straddling the island's west edge at x=22.
	p := &products.Product{
		Sensor: "MSG1", Chain: "sciql", AcquiredAt: at,
		Hotspots: []products.Hotspot{hotspotAt(22.0, 38.0, at, "coastal")},
	}
	r.Store.LoadTriples(p.Triples())
	if _, err := r.RefineInCoast(p); err != nil {
		t.Fatal(err)
	}
	res, err := r.CurrentHotspots(at)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	g, err := geom.ParseWKT(res.Rows[0][res.Col("g")].Value)
	if err != nil {
		t.Fatal(err)
	}
	full := 0.04 * 0.04
	if a := geom.Area(g); a > full*0.6 || a < full*0.4 {
		t.Fatalf("clipped area = %g, want about half of %g", a, full)
	}
}

func TestTimePersistenceConfirmsAndReinstates(t *testing.T) {
	s := testWorldStore(t)
	r := NewRunner(s)
	r.PersistenceMin = 3
	base := time.Date(2007, 8, 24, 12, 0, 0, 0, time.UTC)
	loc := [2]float64{22.5, 37.5}
	// Three prior sightings of the same pixel within the hour.
	for i := 0; i < 3; i++ {
		at := base.Add(time.Duration(i*5) * time.Minute)
		p := &products.Product{
			Sensor: "MSG1", Chain: "sciql", AcquiredAt: at,
			Hotspots: []products.Hotspot{hotspotAt(loc[0], loc[1], at, "p")},
		}
		r.Store.LoadTriples(p.Triples())
	}
	// Fresh acquisition WITHOUT the persistent hotspot: reinstatement.
	at := base.Add(20 * time.Minute)
	empty := &products.Product{Sensor: "MSG1", Chain: "sciql", AcquiredAt: at}
	r.Store.LoadTriples(empty.Triples())
	n, err := r.TimePersistence(empty)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("persistence affected %d, want 1 reinstated hotspot", n)
	}
	res, err := r.CurrentHotspots(at)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("reinstated hotspots = %d", len(res.Rows))
	}
	// Fresh acquisition WITH the hotspot: confirmation path.
	at2 := base.Add(25 * time.Minute)
	h := hotspotAt(loc[0], loc[1], at2, "fresh")
	h.Confidence = 0.5
	h.Confirmation = false
	withHot := &products.Product{
		Sensor: "MSG1", Chain: "sciql", AcquiredAt: at2,
		Hotspots: []products.Hotspot{h},
	}
	r.Store.LoadTriples(withHot.Triples())
	if _, err := r.TimePersistence(withHot); err != nil {
		t.Fatal(err)
	}
	res2, err := r.CurrentHotspots(at2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 1 {
		t.Fatalf("rows = %d", len(res2.Rows))
	}
	if conf, _ := res2.Rows[0][res2.Col("conf")].Float(); conf != 1.0 {
		t.Fatalf("confidence = %g, want raised to 1.0", conf)
	}
}

func TestRefineAgainstGeneratedWorld(t *testing.T) {
	// Integration: the synthetic world's triples drive the full sequence.
	w := auxdata.Generate(42)
	s := strabon.New()
	s.LoadTriples(w.AllTriples())
	r := NewRunner(s)
	at := time.Date(2007, 8, 24, 12, 0, 0, 0, time.UTC)

	// One hotspot in deep sea, one on a forest point.
	fp, ok := w.RandomForestPoint(randSrc())
	if !ok {
		t.Skip("no forest point")
	}
	p := &products.Product{
		Sensor: "MSG1", Chain: "sciql", AcquiredAt: at,
		Hotspots: []products.Hotspot{
			hotspotAt(fp.X, fp.Y, at, "forest"),
			hotspotAt(25.9, 35.1, at, "deepsea"),
		},
	}
	if _, err := r.Apply([]*products.Product{p}); err != nil {
		t.Fatal(err)
	}
	res, err := r.CurrentHotspots(at)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%d hotspots survive, want only the forest one", len(res.Rows))
	}
}

func randSrc() *rand.Rand { return rand.New(rand.NewSource(9)) }

// --- differential oracle ---
//
// oracle is the refinement as it was formulated before Runner.Apply:
// every rule a text unique per acquisition, scoped by
// FILTER( str(?at) = "…" ), run through the atomic Update one at a
// time; Time Persistence one sightings query per fresh hotspot and one
// Update per confirmation and per virtual hotspot, counting only the
// product's chain's detections. It is slow, walks
// the whole store per rule and shares nothing with the prepared, seeded
// rules but the engine — which is what makes it a reference. The one
// deliberate difference from the historical code: virtual hotspots are
// numbered in sorted-WKT order (they used to be numbered in GROUP BY
// emission order, which depends on the store topology).
type oracle struct {
	store  *strabon.Store
	window time.Duration
	min    int
}

func xsd(t time.Time) string { return t.UTC().Format("2006-01-02T15:04:05") }

// step stores and refines one product, returning the Affected count of
// each operation in AllOps order.
func (o oracle) step(t *testing.T, p *products.Product) []int {
	t.Helper()
	update := func(text string) stsparql.UpdateStats {
		st, err := o.store.Update(text)
		if err != nil {
			t.Fatalf("oracle: %v\n%s", err, text)
		}
		return st
	}
	scope := fmt.Sprintf(`FILTER( str(?at) = "%s" )`, xsd(p.AcquiredAt))
	affected := []int{o.store.InsertAll(p.Triples())[0]}

	affected = append(affected, update(fmt.Sprintf(`
INSERT { ?h noa:isInMunicipality ?m }
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at ;
     strdf:hasGeometry ?hGeo .
  ?m a gag:Municipality ;
     strdf:hasGeometry ?mGeo .
  %s
  FILTER( strdf:anyInteract(?hGeo, ?mGeo) )
}`, scope)).Inserted)

	affected = append(affected, update(fmt.Sprintf(`
DELETE { ?h ?hProperty ?hObject }
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at ;
     strdf:hasGeometry ?hGeo ;
     ?hProperty ?hObject .
  %s
  OPTIONAL {
    ?c a coast:Coastline ;
       strdf:hasGeometry ?cGeo .
    FILTER( strdf:anyInteract(?hGeo, ?cGeo) )
  }
  FILTER( !bound(?c) )
}`, scope)).Deleted)

	affected = append(affected, update(fmt.Sprintf(`
DELETE { ?h ?hProperty ?hObject }
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at ;
     strdf:hasGeometry ?hGeo ;
     ?hProperty ?hObject .
  ?a a clc:Area ;
     clc:hasLandUse ?use ;
     strdf:hasGeometry ?aGeo .
  %s
  FILTER( ?use = <%s> || ?use = <%s> )
  FILTER( strdf:coveredBy(?hGeo, ?aGeo) )
}`, scope, ontology.ClassArable, ontology.ClassUrbanFabric)).Deleted)

	affected = append(affected, update(fmt.Sprintf(`
DELETE { ?h strdf:hasGeometry ?hGeo }
INSERT { ?h strdf:hasGeometry ?dif }
WHERE {
  SELECT DISTINCT ?h ?hGeo
    (strdf:intersection(?hGeo, strdf:union(?cGeo)) AS ?dif)
  WHERE {
    ?h a noa:Hotspot ;
       noa:hasAcquisitionDateTime ?at ;
       strdf:hasGeometry ?hGeo .
    ?c a coast:Coastline ;
       strdf:hasGeometry ?cGeo .
    %s
    FILTER( strdf:anyInteract(?hGeo, ?cGeo) )
  }
  GROUP BY ?h ?hGeo
  HAVING strdf:overlap(?hGeo, strdf:union(?cGeo))
}`, scope)).Inserted)

	// Time Persistence.
	query := func(text string) *stsparql.Result {
		res, err := strabon.MaterialiseQuery(context.Background(), o.store, text)
		if err != nil {
			t.Fatalf("oracle: %v\n%s", err, text)
		}
		return res
	}
	since, persisted := p.AcquiredAt.Add(-o.window), 0
	fresh := make(map[string]bool)
	for _, h := range p.Hotspots {
		wkt := geom.WKT(h.Geometry)
		fresh[wkt] = true
		sightings := query(fmt.Sprintf(`
SELECT ?h WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at ;
     noa:isFromProcessingChain "%s"^^xsd:string ;
     strdf:hasGeometry ?g .
  FILTER( str(?at) >= "%s" )
  FILTER( str(?at) < "%s" )
  FILTER( strdf:anyInteract(?g, "%s"^^strdf:WKT) )
}`, p.Chain, xsd(since), xsd(p.AcquiredAt), wkt))
		if len(sightings.Rows) >= o.min {
			persisted += update(fmt.Sprintf(`
DELETE { <%[1]s> noa:hasConfidence ?c . <%[1]s> noa:hasConfirmation ?cf }
INSERT { <%[1]s> noa:hasConfidence 1.0 . <%[1]s> noa:hasConfirmation noa:confirmed }
WHERE  { <%[1]s> noa:hasConfidence ?c ; noa:hasConfirmation ?cf . }`, products.HotspotURI(h))).Inserted / 2
		}
	}
	var absent []rdf.Term
	for _, row := range query(fmt.Sprintf(`
SELECT DISTINCT ?hGeo (COUNT(?h) AS ?n)
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at ;
     noa:isFromProcessingChain "%s"^^xsd:string ;
     strdf:hasGeometry ?hGeo .
  FILTER( str(?at) >= "%s" )
  FILTER( str(?at) < "%s" )
}
GROUP BY ?hGeo
HAVING (COUNT(?h) >= %d)`, p.Chain, xsd(since), xsd(p.AcquiredAt), o.min)).Rows {
		if g := row[0]; !fresh[g.Value] { // ?hGeo
			absent = append(absent, g)
		}
	}
	sort.Slice(absent, func(i, j int) bool { return absent[i].Value < absent[j].Value })
	for n, g := range absent {
		update(fmt.Sprintf(`
INSERT DATA {
  <%sHotspot_%s_%s_persist%d> a noa:Hotspot ;
    noa:hasAcquisitionDateTime "%s"^^xsd:dateTime ;
    noa:hasConfidence 0.5 ;
    noa:hasConfirmation noa:unconfirmed ;
    strdf:hasGeometry %s ;
    noa:isDerivedFromSensor "%s"^^xsd:string ;
    noa:isProducedBy noa:noa ;
    noa:isFromProcessingChain "time-persistence"^^xsd:string .
}`, ontology.NOA, p.Sensor, p.AcquiredAt.UTC().Format("20060102T150405"), n+1,
			xsd(p.AcquiredAt), g.String(), p.Sensor))
		persisted++
	}
	return append(affected, persisted)
}

// acquisitionTriples fingerprints everything the pipeline and the rules
// wrote: every triple of every subject carrying an acquisition time
// (hotspots, virtual hotspots, shapefiles), sorted.
func acquisitionTriples(t *testing.T, st *strabon.Store) []string {
	t.Helper()
	res, err := strabon.MaterialiseQuery(context.Background(), st, `SELECT ?s ?p ?o WHERE { ?s noa:hasAcquisitionDateTime ?t ; ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = rdf.Triple{S: row[0], P: row[1], O: row[2]}.String() // ?s ?p ?o
	}
	sort.Strings(out)
	return out
}

// scenarioProducts runs the real front half (simulated downlink, vault,
// SciQL chain) of n consecutive midday acquisitions of one scenario
// seed, then doctors the list so every seed covers the cases the rules
// must get right: a deep-sea hotspot (removed by Delete In Sea, and so
// invisible to every later rule) and a trailing EMPTY product (nothing
// to seed, everything persistent to reinstate).
func scenarioProducts(t *testing.T, seed int64, n int) (*auxdata.World, []*products.Product) {
	t.Helper()
	cfg := seviri.DefaultScenarioConfig()
	cfg.Days = 1
	svc, err := core.NewServiceWithStore(seed, cfg, strabon.New())
	if err != nil {
		t.Fatal(err)
	}
	from := cfg.Start.Add(11*time.Hour + 40*time.Minute)
	var ps []*products.Product
	for _, at := range seviri.AcquisitionTimes(seviri.MSG1, from, time.Duration(n)*seviri.MSG1.Cadence) {
		acq, err := svc.Sim.Acquire(seviri.MSG1, at, svc.Segments, svc.Compress)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.IngestAcquisition(svc.Vault, acq); err != nil {
			t.Fatal(err)
		}
		p, err := svc.Chain.Process(seviri.MSG1.Name, at)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	sea := hotspotAt(25.9, 35.1, ps[1].AcquiredAt, "MSG1_sea_"+ps[1].AcquiredAt.Format("150405"))
	ps[1].Hotspots = append(ps[1].Hotspots, sea)
	last := ps[len(ps)-1]
	ps = append(ps, &products.Product{Sensor: last.Sensor, Chain: last.Chain,
		AcquiredAt: last.AcquiredAt.Add(seviri.MSG1.Cadence)})
	return svc.Sim.Scenario.World, ps
}

// TestApplyMatchesOracle is the differential test of the delta-seeded
// rules: over generated scenarios, every store topology and both flush
// sizes, the store after every flush holds exactly the triples the
// oracle holds after the same acquisitions, and every operation reports
// the oracle's Affected. The shard slices are 10 minutes wide, so a
// flush of four acquisitions straddles two slices and the one-hour
// persistence window spans all of them.
func TestApplyMatchesOracle(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 3
	}
	const perSeed = 8
	var deleted, persisted atomic.Int64
	t.Run("seeds", func(t *testing.T) {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			t.Run(fmt.Sprint(seed), func(t *testing.T) {
				t.Parallel()
				d, p := applyVersusOracle(t, seed, perSeed)
				deleted.Add(int64(d))
				persisted.Add(int64(p))
			})
		}
	})
	if deleted.Load() == 0 || persisted.Load() == 0 {
		t.Fatalf("scenarios exercised Delete In Sea %d times, Time Persistence %d times", deleted.Load(), persisted.Load())
	}
	t.Logf("%d seeds: %d triples deleted in sea, %d hotspots confirmed or reinstated", seeds, deleted.Load(), persisted.Load())
}

// applyVersusOracle runs one scenario seed through the oracle and
// through Apply on every topology and flush size, and returns how many
// triples Delete In Sea removed and how many hotspots Time Persistence
// confirmed or reinstated in the oracle run.
func applyVersusOracle(t *testing.T, seed int64, perSeed int) (deleted, persisted int) {
	world, ps := scenarioProducts(t, seed, perSeed)
	epoch := ps[0].AcquiredAt.Truncate(24 * time.Hour)

	ref := oracle{store: strabon.New(), window: time.Hour, min: 2}
	ref.store.LoadTriples(world.AllTriples())
	want := make([][]int, len(ps))        // per product, per op
	snapshot := make([][]string, len(ps)) // after each product
	size := make([]int, len(ps))
	for i, p := range ps {
		want[i] = ref.step(t, p)
		snapshot[i], size[i] = acquisitionTriples(t, ref.store), ref.store.Len()
		deleted, persisted = deleted+want[i][2], persisted+want[i][5]
	}

	stores := map[string]func() *strabon.Store{}
	for _, n := range []int{1, 2, 4} {
		stores[fmt.Sprintf("shard%d", n)] = func() *strabon.Store {
			return strabon.NewSharded(strabon.Config{Slices: n, Width: 10 * time.Minute, Epoch: epoch})
		}
	}
	for name, mk := range stores {
		for _, flush := range []int{1, 4} {
			st := mk()
			st.LoadTriples(world.AllTriples())
			r := NewRunner(st)
			for lo := 0; lo < len(ps); lo += flush {
				hi := min(lo+flush, len(ps))
				out, err := r.Apply(ps[lo:hi])
				if err != nil {
					t.Fatalf("seed %d %s flush=%d: %v", seed, name, flush, err)
				}
				where := fmt.Sprintf("seed %d %s flush=%d products [%d,%d)", seed, name, flush, lo, hi)
				if got := acquisitionTriples(t, st); !slices.Equal(got, snapshot[hi-1]) {
					t.Fatalf("%s: %d triples, oracle %d; first difference: %s",
						where, len(got), len(snapshot[hi-1]), firstDiff(got, snapshot[hi-1]))
				}
				if st.Len() != size[hi-1] {
					t.Fatalf("%s: store holds %d triples, oracle %d", where, st.Len(), size[hi-1])
				}
				for i := lo; i < hi; i++ {
					refined, err := r.CurrentHotspots(ps[i].AcquiredAt)
					if err != nil {
						t.Fatal(err)
					}
					if out[i-lo].Refined != len(refined.Rows) {
						t.Fatalf("%s: product %d Refined = %d, CurrentHotspots lists %d", where, i, out[i-lo].Refined, len(refined.Rows))
					}
					for k, tm := range out[i-lo].Timings {
						wantAffected := want[i][k]
						if k > 0 && k < len(AllOps)-1 { // the four delta-wide rules report the flush total
							wantAffected = 0
							for j := lo; j < hi; j++ {
								wantAffected += want[j][k]
							}
						}
						if tm.Op != AllOps[k] || tm.Affected != wantAffected {
							t.Fatalf("%s: product %d op %d = %s affected %d, oracle %s affected %d",
								where, i, k, tm.Op, tm.Affected, AllOps[k], wantAffected)
						}
					}
				}
			}
		}
	}
	return deleted, persisted
}

func firstDiff(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("got %s, oracle %s", got[i], want[i])
		}
	}
	return "one is a prefix of the other"
}
