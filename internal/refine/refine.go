// Package refine implements the semantic refinement step of Section
// 3.2.4: the stSPARQL updates that run against Strabon after every
// acquisition's product is stored. The six operations are the ones
// timed in the paper's Figure 8: Store, Municipalities, Delete In Sea,
// Invalid For Fires, Refine In Coast, and Time Persistence.
//
// Refinement is one event-condition-action step per flush: the event is
// the flush (the hotspot subjects just written), the conditions are the
// five rules of rules.go evaluated over the event's bindings, and the
// action — every delete and insert the rules derive — is applied
// together with the flush's own insert as a single transition of the
// store (strabon.Store.ApplyFlush). Runner.Apply is the one
// implementation; the per-operation methods run one rule of it.
package refine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/ontology"
	"repro/internal/products"
	"repro/internal/rdf"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// Op names the refinement operations in execution order (the legend of
// Figure 8).
type Op string

// The Figure 8 operations.
const (
	OpStore           Op = "Store"
	OpMunicipalities  Op = "Municipalities"
	OpDeleteInSea     Op = "Delete In Sea"
	OpInvalidForFires Op = "Invalid For Fires"
	OpRefineInCoast   Op = "Refine In Coast"
	OpTimePersistence Op = "Time Persistence"
)

// AllOps lists the operations in execution order.
var AllOps = []Op{
	OpStore, OpMunicipalities, OpDeleteInSea,
	OpInvalidForFires, OpRefineInCoast, OpTimePersistence,
}

// Timing records one operation's response time at one acquisition — one
// point of Figure 8.
type Timing struct {
	Op       Op
	At       time.Time
	Duration time.Duration
	// Affected counts matched solutions / changed triples, whichever is
	// more informative for the op.
	Affected int
}

// Runner executes the refinement rules against a Strabon store.
type Runner struct {
	Store *strabon.Store
	// PersistenceWindow is the look-back of the Time Persistence
	// heuristic (the paper: "during the last hour(s)").
	PersistenceWindow time.Duration
	// PersistenceMin is how many sightings within the window confirm a
	// location.
	PersistenceMin int
	// Metrics, when set (NewMetrics), exports per-rule timings and
	// affected counts; nil disables instrumentation.
	Metrics *Metrics

	compile sync.Once
	rules   *ruleSet
	err     error
}

// NewRunner returns a Runner with the paper's defaults.
func NewRunner(s *strabon.Store) *Runner {
	return &Runner{Store: s, PersistenceWindow: time.Hour, PersistenceMin: 2}
}

func xsdTime(t time.Time) string { return t.UTC().Format("2006-01-02T15:04:05") }

// Outcome is what Apply did for one product of the delta.
type Outcome struct {
	// Timings holds one entry per operation, in AllOps order. Store and
	// the four hotspot-by-hotspot rules run once over the whole delta and
	// report an equal share of that duration; the rules' Affected is the
	// delta-wide count, Store's the product's own new triples. Time
	// Persistence runs per product.
	Timings []Timing
	// Refined is the number of the product's hotspots in the store after
	// refinement: raw, minus those the rules deleted, plus those Time
	// Persistence reinstated.
	Refined int
}

// Apply stores the delta — one flush's products, in acquisition order —
// and refines it, as one atomic transition of the store: a reader sees
// none of the delta or all of it refined. It returns one Outcome per
// product.
func (r *Runner) Apply(delta []*products.Product) ([]Outcome, error) {
	return r.apply(delta, "")
}

// Municipalities associates each hotspot of an already stored product
// with the municipalities its pixel interacts with — the operation the
// paper singles out as the slowest ("labeled as Municipalities ... there
// are cases where it needs four seconds").
func (r *Runner) Municipalities(p *products.Product) (int, error) {
	return r.only(p, OpMunicipalities)
}

// DeleteInSea removes the product's hotspots that touch no coastline
// polygon — the paper's first refinement update.
func (r *Runner) DeleteInSea(p *products.Product) (int, error) {
	return r.only(p, OpDeleteInSea)
}

// InvalidForFires removes the product's hotspots lying entirely on
// land-cover classes where forest fires are implausible (urban fabric,
// arable plains) — the paper's "hotspots located outside forested areas".
func (r *Runner) InvalidForFires(p *products.Product) (int, error) {
	return r.only(p, OpInvalidForFires)
}

// RefineInCoast clips the product's hotspots that straddle the
// coastline to their land part — the paper's second refinement update.
func (r *Runner) RefineInCoast(p *products.Product) (int, error) {
	return r.only(p, OpRefineInCoast)
}

// TimePersistence implements the paper's persistence heuristic: "check
// the number of times a specific fire was detected over the same or near
// the same geographic location during the last hour(s) ... attributing a
// level of confidence to each detected pixel". Two effects:
//
//  1. The product's hotspots whose location the product's chain
//     detected at least PersistenceMin times within the window are
//     confirmed (confidence raised to 1.0).
//  2. Persistent locations missing from the product are reinstated as
//     virtual hotspots — this is what grows the refined chain's hotspot
//     count in Table 1 and cuts the omission error.
//
// Only detections count: a virtual hotspot is never evidence, so a
// location the chain stops detecting drops out once its detections leave
// the window.
func (r *Runner) TimePersistence(p *products.Product) (int, error) {
	return r.only(p, OpTimePersistence)
}

// only runs one rule over an already stored product and returns its
// Affected count.
func (r *Runner) only(p *products.Product, op Op) (int, error) {
	out, err := r.apply([]*products.Product{p}, op)
	if err != nil {
		return 0, err
	}
	return out[0].Timings[0].Affected, nil
}

// apply is the one implementation of refinement. With only == "" it
// stores the delta and runs every rule; otherwise the delta is already
// stored and the one named rule runs.
func (r *Runner) apply(delta []*products.Product, only Op) ([]Outcome, error) {
	if len(delta) == 0 {
		return nil, nil
	}
	rules, err := r.compiled()
	if err != nil {
		return nil, err
	}
	all := only == ""

	// The event: every hotspot subject of the delta, and which product
	// wrote it.
	f := strabon.Flush{Since: delta[0].AcquiredAt.Add(-r.PersistenceWindow)}
	var seed []stsparql.Row // binds ?h
	owner := make(map[string]int)
	out := make([]Outcome, len(delta))
	for i, p := range delta {
		f.At = append(f.At, p.AcquiredAt)
		if all {
			f.Groups = append(f.Groups, p.TriplesInto(make([]rdf.Triple, 0, 9*len(p.Hotspots)+5)))
		}
		for _, h := range p.Hotspots {
			uri := products.HotspotURI(h)
			owner[uri] = i
			seed = append(seed, stsparql.Row{rdf.NewIRI(uri)})
		}
		out[i].Refined = len(p.Hotspots)
	}
	share := func(d time.Duration) time.Duration { return d / time.Duration(len(delta)) }
	record := func(i int, op Op, d time.Duration, affected int) {
		out[i].Timings = append(out[i].Timings, Timing{Op: op, At: delta[i].AcquiredAt, Duration: d, Affected: affected})
	}

	start := time.Now()
	err = r.Store.ApplyFlush(f, func(tx *strabon.FlushTx) error {
		if all {
			// The store applied the insert before calling the rules.
			d := share(time.Since(start))
			for i := range delta {
				record(i, OpStore, d, tx.Inserted[i])
			}
		}
		for _, rule := range rules.scoped {
			if !all && only != rule.op {
				continue
			}
			t0 := time.Now()
			plan, err := tx.Plan(rule.prepared, seed)
			if err != nil {
				return fmt.Errorf("refine: %s: %w", rule.op, err)
			}
			st := tx.Apply(plan)
			affected := st.Inserted
			if rule.deletes {
				affected = st.Deleted
				for _, t := range plan.Deletes() {
					if i, ok := owner[t.S.Value]; ok && t.P.Value == rdf.RDFType && t.O.Value == ontology.ClassHotspot {
						out[i].Refined--
					}
				}
			}
			d := time.Since(t0)
			r.Metrics.observe(rule.op, d, affected)
			for i := range delta {
				record(i, rule.op, share(d), affected)
			}
		}
		if !all && only != OpTimePersistence {
			return nil
		}
		// Time Persistence reads the hour before each acquisition — the
		// detections of the delta's earlier products included — so it
		// runs product by product, in order.
		for i, p := range delta {
			t0 := time.Now()
			confirmed, reinstated, err := r.persist(tx, rules, p)
			if err != nil {
				return fmt.Errorf("refine: %s: %w", OpTimePersistence, err)
			}
			out[i].Refined += reinstated
			d := time.Since(t0)
			r.Metrics.observe(OpTimePersistence, d, confirmed+reinstated)
			record(i, OpTimePersistence, d, confirmed+reinstated)
		}
		return nil
	})
	return out, err
}

// persist runs Time Persistence for one product inside a flush: the
// confirmations and the reinstated virtual hotspots form ONE plan,
// applied once. Virtual hotspots are numbered in sorted-WKT order, so
// every store topology mints the same URIs.
func (r *Runner) persist(tx *strabon.FlushTx, rules *ruleSet, p *products.Product) (confirmed, reinstated int, err error) {
	// The window binds ?since ?now ?min ?chain; the confirmation seed
	// binds ?h ?pixel and the window, one row per fresh hotspot.
	window := stsparql.Row{
		rdf.NewLiteral(xsdTime(p.AcquiredAt.Add(-r.PersistenceWindow))),
		rdf.NewLiteral(xsdTime(p.AcquiredAt)),
		rdf.NewInteger(int64(r.PersistenceMin)),
		rdf.NewTypedLiteral(p.Chain, rdf.XSDString),
	}
	fresh := make(map[string]bool, len(p.Hotspots))
	seed := make([]stsparql.Row, len(p.Hotspots))
	for i, h := range p.Hotspots {
		pixel := rdf.NewGeometry(geom.WKT(h.Geometry))
		fresh[pixel.Value] = true
		seed[i] = append(stsparql.Row{rdf.NewIRI(products.HotspotURI(h)), pixel}, window...)
	}
	plan, err := tx.Plan(rules.confirm, seed)
	if err != nil {
		return 0, 0, err
	}
	confirmed = plan.InsertCount() / 2

	res, err := tx.Select(rules.persistent, []stsparql.Row{window})
	if err != nil {
		return 0, 0, err
	}
	var absent []rdf.Term
	geo := res.Col("hGeo")
	for _, row := range res.Rows {
		if g := row[geo]; !fresh[g.Value] {
			absent = append(absent, g)
		}
	}
	sort.Slice(absent, func(i, j int) bool { return absent[i].Value < absent[j].Value })
	iri := rdf.NewIRI
	for n, g := range absent {
		s := iri(fmt.Sprintf("%sHotspot_%s_%s_persist%d", ontology.NOA,
			p.Sensor, p.AcquiredAt.UTC().Format("20060102T150405"), n+1))
		plan.Insert(
			rdf.Triple{S: s, P: iri(rdf.RDFType), O: iri(ontology.ClassHotspot)},
			rdf.Triple{S: s, P: iri(ontology.PropAcquisitionDateTime), O: rdf.NewDateTime(xsdTime(p.AcquiredAt))},
			rdf.Triple{S: s, P: iri(ontology.PropConfidence), O: rdf.NewTypedLiteral("0.5", rdf.XSDDouble)},
			rdf.Triple{S: s, P: iri(ontology.PropConfirmation), O: iri(ontology.UnconfirmedFire)},
			rdf.Triple{S: s, P: iri(ontology.HasGeometry), O: g},
			rdf.Triple{S: s, P: iri(ontology.PropSensor), O: rdf.NewTypedLiteral(p.Sensor, rdf.XSDString)},
			rdf.Triple{S: s, P: iri(ontology.PropProducedBy), O: iri(ontology.NOA + "noa")},
			rdf.Triple{S: s, P: iri(ontology.PropProcessingChain), O: rdf.NewTypedLiteral("time-persistence", rdf.XSDString)},
		)
	}
	tx.Apply(plan)
	return confirmed, len(absent), nil
}

// CurrentHotspots lists the hotspot URIs and geometries present in the
// store for one acquisition (post-refinement product extraction).
func (r *Runner) CurrentHotspots(at time.Time) (*stsparql.Result, error) {
	return strabon.MaterialiseQuery(context.Background(), r.Store, fmt.Sprintf(`
SELECT ?h ?g ?conf WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at ;
     noa:hasConfidence ?conf ;
     strdf:hasGeometry ?g .
  FILTER( str(?at) = "%s" )
}`, xsdTime(at)))
}
