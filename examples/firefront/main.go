// Firefront: the paper's motivating scenario — emergency managers
// watching a fire front evolve in near real time. The example services a
// multi-hour MSG1 stream, tracks each ground-truth fire's detected
// footprint acquisition by acquisition, and reports growth, confidence
// upgrades from the time-persistence heuristic, and the nearest fire
// station (from the LinkedGeoData layer) for resource allocation.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/seviri"
	"repro/internal/strabon"
)

func main() {
	cfg := seviri.DefaultScenarioConfig()
	svc, err := core.NewServiceWithStore(7, cfg, strabon.New())
	if err != nil {
		log.Fatal(err)
	}
	world := svc.Sim.Scenario.World

	// Pick the biggest scenario fire and watch it from ignition.
	var fire seviri.FireEvent
	for _, f := range svc.Sim.Scenario.Fires {
		if f.PeakRadiusKm > fire.PeakRadiusKm {
			fire = f
		}
	}
	fmt.Printf("watching fire %d at (%.3f, %.3f), ignition %s\n",
		fire.ID, fire.Center.X, fire.Center.Y, fire.Start.Format("15:04"))

	// Nearest fire station (the added-value layer of Section 2).
	bestD := 1e18
	bestName := "none"
	for _, fs := range world.FireStations {
		if d := fs.Location.DistanceTo(fire.Center); d < bestD {
			bestD, bestName = d, fs.Name
		}
	}
	fmt.Printf("nearest fire station: %s (%.0f km)\n\n", bestName, bestD*88)

	watch := geom.NewSquare(fire.Center.X, fire.Center.Y, 0.5)
	from := fire.Start.Add(-10 * time.Minute)
	for _, at := range seviri.AcquisitionTimes(seviri.MSG1, from, 2*time.Hour) {
		if _, err := svc.Step(seviri.MSG1, at); err != nil {
			log.Fatal(err)
		}
		res, err := svc.Refiner.CurrentHotspots(at)
		if err != nil {
			log.Fatal(err)
		}
		var frontArea float64
		pixels, confirmed := 0, 0
		gc, cc := res.Col("g"), res.Col("conf")
		for _, row := range res.Rows {
			g, err := geom.ParseWKT(row[gc].Value)
			if err != nil {
				continue
			}
			if !geom.Intersects(g, watch) {
				continue
			}
			pixels++
			frontArea += geom.Area(g)
			if c, _ := row[cc].Float(); c >= 1.0 {
				confirmed++
			}
		}
		truthKm := fire.RadiusKmAt(at)
		fmt.Printf("%s  front: %2d px (%2d confirmed)  ~%5.0f km²   truth radius %4.1f km\n",
			at.Format("15:04"), pixels, confirmed, frontArea*88*111, truthKm)
	}
}
