// Quickstart: one MSG/SEVIRI acquisition end to end — synthetic downlink,
// data-vault ingestion, the SciQL processing chain, and stSPARQL
// refinement — in under a hundred lines.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/seviri"
	"repro/internal/strabon"
)

func main() {
	// A deterministic synthetic world + fire scenario (the paper's severe
	// fire days of August 2007).
	cfg := seviri.DefaultScenarioConfig()
	svc, err := core.NewServiceWithStore(42, cfg, strabon.New())
	if err != nil {
		log.Fatal(err)
	}

	// Service one 5-minute MSG1 acquisition at scenario midday.
	at := time.Date(2007, 8, 24, 12, 0, 0, 0, time.UTC)
	rep, err := svc.Step(seviri.MSG1, at)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("acquisition %s (%s)\n", at.Format(time.RFC3339), rep.Sensor)
	fmt.Printf("  chain time:        %v (deadline %v, met: %v)\n",
		rep.ChainTime.Round(time.Millisecond), seviri.MSG1.Cadence, rep.DeadlineMet)
	fmt.Printf("  hotspots detected: %d\n", rep.RawHotspot)
	fmt.Printf("  after refinement:  %d\n", rep.Refined)
	for _, op := range rep.RefineOps {
		fmt.Printf("    %-18s %8v\n", op.Op, op.Duration.Round(time.Microsecond))
	}

	// Query the refined products back through the canonical streaming
	// surface (the materialising wrapper over QueryStreamCtx).
	res, err := strabon.MaterialiseQuery(context.Background(), svc.Strabon, `
SELECT ?h ?g ?conf WHERE {
  ?h a noa:Hotspot ;
     noa:hasConfidence ?conf ;
     strdf:hasGeometry ?g .
}`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored hotspots:\n")
	for _, row := range res.Rows { // ?h ?g ?conf
		g, _ := geom.ParseWKT(row[1].Value)
		c := geom.Centroid(g)
		fmt.Printf("  %-60s conf=%s at (%.3f, %.3f)\n",
			shorten(row[0].Value), row[2].Value, c.X, c.Y)
	}
}

func shorten(iri string) string {
	for i := len(iri) - 1; i >= 0; i-- {
		if iri[i] == '#' || iri[i] == '/' {
			return iri[i+1:]
		}
	}
	return iri
}
