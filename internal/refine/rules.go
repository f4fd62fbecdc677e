package refine

import (
	"time"

	"repro/internal/obs"
	"repro/internal/stsparql"
)

// The refinement rules, as stSPARQL. Each text is a legal update on its
// own — run unseeded it refines every hotspot in the store, which is how
// the paper prints them — and is prepared once per Runner with its seed
// variables bound: ?h, the hotspot subjects the flush just wrote, takes
// the place of the paper's per-acquisition FILTER on ?at, so a rule does
// work proportional to the flush, not to the history behind it.
//
// Statement order matters to the engine, which plans one statement at a
// time in source order: the all-properties statement `?h ?hProperty
// ?hObject` of the two delete rules comes LAST, so that only the hotspots
// surviving the spatial test are expanded into their ~9 triples —
// written first it multiplies every fresh hotspot before the test.
// Every rule opens with `?h a noa:Hotspot`, so a hotspot an earlier rule
// deleted matches nothing in a later one.
const (
	ruleMunicipalities = `
INSERT { ?h noa:isInMunicipality ?m }
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at ;
     strdf:hasGeometry ?hGeo .
  ?m a gag:Municipality ;
     strdf:hasGeometry ?mGeo .
  FILTER( strdf:anyInteract(?hGeo, ?mGeo) )
}`

	ruleDeleteInSea = `
DELETE { ?h ?hProperty ?hObject }
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at ;
     strdf:hasGeometry ?hGeo .
  OPTIONAL {
    ?c a coast:Coastline ;
       strdf:hasGeometry ?cGeo .
    FILTER( strdf:anyInteract(?hGeo, ?cGeo) )
  }
  FILTER( !bound(?c) )
  ?h ?hProperty ?hObject .
}`

	ruleInvalidForFires = `
DELETE { ?h ?hProperty ?hObject }
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at ;
     strdf:hasGeometry ?hGeo .
  ?a a clc:Area ;
     clc:hasLandUse ?use ;
     strdf:hasGeometry ?aGeo .
  FILTER( ?use = clc:NonIrrigatedArableLand || ?use = clc:ContinuousUrbanFabric )
  FILTER( strdf:coveredBy(?hGeo, ?aGeo) )
  ?h ?hProperty ?hObject .
}`

	ruleRefineInCoast = `
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
    FILTER( strdf:anyInteract(?hGeo, ?cGeo) )
  }
  GROUP BY ?h ?hGeo
  HAVING strdf:overlap(?hGeo, strdf:union(?cGeo))
}`

	// Time Persistence, effect 1: a spatial join of the fresh hotspots
	// against the window's history, grouped per fresh hotspot. The seed
	// binds, per hotspot, ?h, its pixel as the chain detected it (?pixel),
	// the window [?since, ?now) and the confirmation threshold ?min.
	ruleConfirm = `
DELETE { ?h noa:hasConfidence ?conf . ?h noa:hasConfirmation ?status }
INSERT { ?h noa:hasConfidence 1.0 . ?h noa:hasConfirmation noa:confirmed }
WHERE {
  { SELECT ?h (COUNT(?p) AS ?sightings)
    WHERE {
      ?p a noa:Hotspot ;
         noa:hasAcquisitionDateTime ?pAt ;
         strdf:hasGeometry ?pGeo .
      FILTER( str(?pAt) >= ?since )
      FILTER( str(?pAt) < ?now )
      FILTER( strdf:anyInteract(?pGeo, ?pixel) )
    }
    GROUP BY ?h
    HAVING (COUNT(?p) >= ?min) }
  ?h noa:hasConfidence ?conf ;
     noa:hasConfirmation ?status .
}`

	// Time Persistence, effect 2: the locations sighted at least ?min
	// times within [?since, ?now). Those absent from the fresh product are
	// reinstated as virtual hotspots.
	queryPersistent = `
SELECT DISTINCT ?hGeo (COUNT(?h) AS ?n)
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?hAt ;
     strdf:hasGeometry ?hGeo .
  FILTER( str(?hAt) >= ?since )
  FILTER( str(?hAt) < ?now )
}
GROUP BY ?hGeo
HAVING (COUNT(?h) >= ?min)`
)

// scopedRule is one of the four hotspot-by-hotspot rules, seeded with
// the delta's subjects.
type scopedRule struct {
	op       Op
	deletes  bool // Affected counts deleted triples (else inserted)
	prepared *stsparql.Prepared
}

type ruleSet struct {
	scoped     []scopedRule
	confirm    *stsparql.Prepared
	persistent *stsparql.Prepared
}

// compiled parses the rules once per Runner, before any store lock is
// taken; each is planned at its first run.
func (r *Runner) compiled() (*ruleSet, error) {
	r.compile.Do(func() {
		ns := r.Store.Namespaces()
		prepare := func(text string, seed ...string) *stsparql.Prepared {
			p, err := stsparql.Prepare(text, ns, seed...)
			if err != nil && r.err == nil {
				r.err = err
			}
			return p
		}
		window := []string{"since", "now", "min"}
		r.rules = &ruleSet{
			scoped: []scopedRule{
				{OpMunicipalities, false, prepare(ruleMunicipalities, "h")},
				{OpDeleteInSea, true, prepare(ruleDeleteInSea, "h")},
				{OpInvalidForFires, true, prepare(ruleInvalidForFires, "h")},
				{OpRefineInCoast, false, prepare(ruleRefineInCoast, "h")},
			},
			confirm:    prepare(ruleConfirm, append([]string{"h", "pixel"}, window...)...),
			persistent: prepare(queryPersistent, window...),
		}
	})
	return r.rules, r.err
}

// Metrics exports refinement per rule, in the stage vocabulary of the
// benchmark's refine.*_ms layer metrics.
type Metrics struct {
	seconds  *obs.HistogramVec // refine_rule_seconds{rule}
	affected *obs.CounterVec   // refine_rule_affected_total{rule}
}

// NewMetrics registers the refinement instrument families.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		seconds: reg.NewHistogramVec("refine_rule_seconds",
			"Wall time of one refinement rule over one flush (Time Persistence: over one acquisition).",
			[]string{"rule"}, nil),
		affected: reg.NewCounterVec("refine_rule_affected_total",
			"Triples or hotspots a refinement rule changed.",
			[]string{"rule"}),
	}
}

var ruleNames = map[Op]string{
	OpMunicipalities:  "municipalities",
	OpDeleteInSea:     "delete_in_sea",
	OpInvalidForFires: "invalid_for_fires",
	OpRefineInCoast:   "refine_in_coast",
	OpTimePersistence: "time_persistence",
}

func (m *Metrics) observe(op Op, d time.Duration, affected int) {
	if m == nil {
		return
	}
	m.seconds.With(ruleNames[op]).Observe(d.Seconds())
	m.affected.With(ruleNames[op]).Add(uint64(affected))
}
