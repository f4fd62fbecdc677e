// Command firewatch runs the end-to-end fire monitoring service over a
// synthetic fire day and disseminates the products: per-acquisition
// reports on stdout and, with -serve, an HTTP server combining the
// product endpoints (GeoJSON, SVG map — the role GeoServer plays in the
// pre-TELEIOS architecture) with Strabon's stSPARQL endpoint (/sparql,
// /update, /explain, /stats). The stSPARQL endpoint comes up before the
// acquisition window starts, so operator queries run against the store
// while detection and refinement are writing to it: SELECTs stream row
// by row under the store's read lock, and each pipeline flush bumps the
// store generation, invalidating cached query plans so repeated
// operator queries never see a stale plan.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/auxdata"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mapgen"
	"repro/internal/obs"
	"repro/internal/products"
	"repro/internal/refine"
	"repro/internal/seviri"
	"repro/internal/strabon"
)

func main() {
	var (
		seed       = flag.Int64("seed", 42, "world/scenario seed")
		sensor     = flag.String("sensor", "MSG1", "sensor stream: MSG1 (5 min) or MSG2 (15 min)")
		window     = flag.Duration("window", time.Hour, "monitored span")
		workers    = flag.Int("workers", 0, "acquisition pipeline workers (0 = NumCPU)")
		serve      = flag.String("serve", "", "optional HTTP listen address, e.g. :8080")
		shards     = flag.Int("shards", 1, "time-range store shards")
		shardWidth = flag.Duration("shard-width", time.Hour, "time span of one shard routing bucket")
		opsAddr    = flag.String("ops-addr", "", "serve /metrics, /debug/queries and pprof on this separate address (empty = off)")
	)
	flag.Parse()

	sens := seviri.MSG1
	if *sensor == "MSG2" {
		sens = seviri.MSG2
	}
	cfg := seviri.DefaultScenarioConfig()
	st := strabon.NewSharded(strabon.Config{Slices: *shards, Width: *shardWidth, Epoch: cfg.Start})
	if *shards > 1 {
		fmt.Printf("firewatch: sharded store: %d slices of %v\n", *shards, *shardWidth)
	}
	svc, err := core.NewServiceWithStore(*seed, cfg, st)
	fail(err)
	svc.Workers = *workers
	var fires []geom.Geometry // the plain products' hotspots, for the map
	svc.PlainSink = func(p *products.Product) {
		for _, h := range p.Hotspots {
			fires = append(fires, h.Geometry)
		}
	}

	var reg *obs.Registry
	var qlog *obs.QueryLog
	if *opsAddr != "" {
		reg = obs.NewRegistry()
		qlog = obs.NewQueryLog(256)
		svc.Metrics = core.NewPipelineMetrics(reg)
		svc.Refiner.Metrics = refine.NewMetrics(reg)
		svc.Vault.RegisterMetrics(reg)
		opsLn, err := net.Listen("tcp", *opsAddr)
		fail(err)
		go http.Serve(opsLn, obs.NewOpsMux(reg, qlog))
		fmt.Printf("firewatch: ops surface on %s (/metrics, /debug/queries, /debug/pprof/)\n", opsLn.Addr())
	}

	from := cfg.Start.Add(11 * time.Hour)
	fmt.Printf("firewatch: servicing %s from %s for %v (deadline %v per acquisition, %d workers)\n",
		sens.Name, from.Format(time.RFC3339), *window, sens.Cadence, svc.EffectiveWorkers())
	if svc.EffectiveWorkers() > 1 {
		fmt.Println("firewatch: pipeline mode — Store and scoped refinement figures are flush-level (shared across a batch)")
	}

	// With -serve, the stSPARQL endpoint comes up before the window runs:
	// operator queries and the acquisition pipeline's writes share the
	// store under its read-lock discipline. The product endpoints read the
	// service's in-memory report state, which is only stable once the
	// window completes; they answer 503 until then.
	var windowDone atomic.Bool
	if *serve != "" {
		mux := http.NewServeMux()
		ep := strabon.NewEndpoint(svc.Strabon)
		if reg != nil {
			strabon.EnableTelemetry(ep, reg, qlog)
		}
		mux.Handle("/sparql", ep)
		mux.Handle("/update", ep)
		mux.Handle("/explain", ep)
		mux.Handle("/stats", ep)
		mux.HandleFunc("/products.geojson", func(w http.ResponseWriter, r *http.Request) {
			if !windowDone.Load() {
				http.Error(w, "acquisition window in progress", http.StatusServiceUnavailable)
				return
			}
			m := productMap(svc, fires)
			w.Header().Set("Content-Type", "application/geo+json")
			fmt.Fprint(w, m.GeoJSON())
		})
		mux.HandleFunc("/map.svg", func(w http.ResponseWriter, r *http.Request) {
			if !windowDone.Load() {
				http.Error(w, "acquisition window in progress", http.StatusServiceUnavailable)
				return
			}
			m := productMap(svc, fires)
			w.Header().Set("Content-Type", "image/svg+xml")
			fmt.Fprint(w, m.SVG(900))
		})
		ln, err := net.Listen("tcp", *serve)
		fail(err)
		fmt.Printf("firewatch: serving on %s (/sparql, /update, /explain, /stats, /products.geojson, /map.svg)\n", *serve)
		go func() { fail(http.Serve(ln, mux)) }()
	}

	start := time.Now()
	runErr := svc.RunWindow(sens, from, *window)
	wall := time.Since(start)
	// Completed acquisitions are committed and reported even when a later
	// one failed.
	for _, rep := range svc.Reports {
		status := "OK"
		if !rep.DeadlineMet {
			status = "DEADLINE MISSED"
		}
		fmt.Printf("%s  chain=%8v  hotspots=%3d -> refined=%3d  [%s]\n",
			rep.At.Format("15:04"), rep.ChainTime.Round(time.Millisecond),
			rep.RawHotspot, rep.Refined, status)
		for _, op := range rep.RefineOps {
			fmt.Printf("      %-18s %8v  (affected %d)\n", op.Op,
				op.Duration.Round(time.Microsecond), op.Affected)
		}
	}
	if n := len(svc.Reports); n > 0 {
		fmt.Printf("firewatch: %d acquisitions in %v (%.1f acq/s)\n",
			n, wall.Round(time.Millisecond), float64(n)/wall.Seconds())
	}
	fail(runErr)

	if *serve == "" {
		return
	}
	windowDone.Store(true)
	fmt.Printf("firewatch: served %d queries during the window\n", svc.Strabon.Stats().Queries)
	fmt.Println("firewatch: window complete, continuing to serve (interrupt to stop)")
	select {}
}

func productMap(svc *core.Service, fires []geom.Geometry) *mapgen.Map {
	world := svc.Sim.Scenario.World
	m := mapgen.New(auxdata.Region, "firewatch: active fire products")
	var land []geom.Geometry
	for _, p := range world.Land {
		land = append(land, p)
	}
	m.AddLayer(mapgen.Layer{Name: "Coastline", Stroke: "#7a6a4f", Fill: "#f3ecd9", Geoms: land})
	m.AddLayer(mapgen.Layer{Name: "Hotspots", Stroke: "#990000", Fill: "#ff2200", Opacity: 0.6, Geoms: fires})
	return m
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "firewatch:", err)
		os.Exit(1)
	}
}
