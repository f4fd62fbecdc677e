// Command stsparqld serves Strabon's stSPARQL endpoint over HTTP: the
// query service NOA operators pose the thematic queries of Section 3.2.4
// against. It can serve a static store (the synthetic world plus optional
// Turtle files) or, with -live, a store being written by the fire
// monitoring service while queries run — detection and refinement writes
// and operator reads sharing one store under the read-lock discipline.
//
//	stsparqld -addr :7575
//	stsparqld -addr :7575 -load extra.ttl
//	stsparqld -addr :7575 -live -window 1h -workers 4
//	stsparqld -addr :7575 -live -shards 4 -shard-width 1h
//
// With -shards N the store (internal/strabon) partitions
// the acquisition history into N time-range slices — each
// with its own lock and R-tree — behind the same endpoint;
// time-constrained queries read and lock only the matching slices,
// and live writes lock only the slice they land in.
// /stats then reports per-shard cardinalities.
//
// Endpoints: /sparql (GET/POST query; JSON or format=tsv), /update
// (POST), /explain, /stats. SELECT responses stream row by row with
// X-Rows/X-Elapsed-Us trailers. Queries run under the request context,
// optionally capped by -query-timeout, so an abandoned or slow client
// cannot hold store read locks indefinitely.
//
// The serving tier layers on top: a generation-keyed result cache
// (-result-cache entries, -result-cache-bytes budget) replays repeated
// queries byte-for-byte without locks until a write to the slices they
// read invalidates them, and cache misses pass an admission gate
// (-max-concurrent evaluations with a -queue-depth FIFO wait queue;
// overflow answers 429 with Retry-After) under per-request -max-rows /
// -max-bytes response budgets.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/auxdata"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/refine"
	"repro/internal/resultcache"
	"repro/internal/seviri"
	"repro/internal/strabon"
)

func main() {
	var (
		addr       = flag.String("addr", ":7575", "HTTP listen address")
		seed       = flag.Int64("seed", 42, "synthetic world seed (0 disables world loading)")
		load       = flag.String("load", "", "optional Turtle file to load")
		live       = flag.Bool("live", false, "run the fire monitoring service against the served store")
		sensor     = flag.String("sensor", "MSG1", "live mode sensor stream: MSG1 or MSG2")
		window     = flag.Duration("window", time.Hour, "live mode monitored span")
		workers    = flag.Int("workers", 0, "live mode pipeline workers (0 = NumCPU)")
		shards     = flag.Int("shards", 1, "time-range shards")
		shardWidth = flag.Duration("shard-width", time.Hour, "time span of one shard routing bucket")
		queryTO    = flag.Duration("query-timeout", 0, "per-query evaluation timeout, queue wait included (0 = none)")
		resCache   = flag.Int("result-cache", 256, "result cache entries (0 disables result caching)")
		resBytes   = flag.Int64("result-cache-bytes", 64<<20, "result cache byte budget (0 = unbounded)")
		maxConc    = flag.Int("max-concurrent", 0, "concurrent query evaluations admitted (0 = unlimited)")
		queueDepth = flag.Int("queue-depth", 64, "admission wait-queue depth (with -max-concurrent)")
		maxRows    = flag.Int("max-rows", 0, "per-request row budget (0 = unlimited)")
		maxBytes   = flag.Int64("max-bytes", 0, "per-request response byte budget (0 = unlimited)")
		opsAddr    = flag.String("ops-addr", "", "serve /metrics, /debug/queries and pprof on this separate address (empty = off)")
		slowQuery  = flag.Duration("slow-query", 0, "cache-miss queries at/above this land in /debug/queries (0 = all misses)")
	)
	flag.Parse()

	cfg := seviri.DefaultScenarioConfig()
	st := strabon.NewSharded(strabon.Config{Slices: *shards, Width: *shardWidth, Epoch: cfg.Start})
	if *shards > 1 {
		fmt.Fprintf(os.Stderr, "stsparqld: sharded store: %d slices of %v\n", *shards, *shardWidth)
	}

	// The observability surface: a registry + slow-query log shared by
	// the endpoint (which instruments its request path against them) and
	// the separate ops listener (scrape + pprof stay reachable when the
	// serving port is saturated).
	var reg *obs.Registry
	var qlog *obs.QueryLog
	if *opsAddr != "" {
		reg = obs.NewRegistry()
		qlog = obs.NewQueryLog(256)
	}

	var svc *core.Service
	if *live {
		var err error
		svc, err = core.NewServiceWithStore(*seed, cfg, st)
		fail(err)
		svc.Workers = *workers
		if reg != nil {
			svc.Metrics = core.NewPipelineMetrics(reg)
			svc.Refiner.Metrics = refine.NewMetrics(reg)
			svc.Vault.RegisterMetrics(reg)
		}
		sens := seviri.MSG1
		if *sensor == "MSG2" {
			sens = seviri.MSG2
		}
		from := cfg.Start.Add(11 * time.Hour)
		go func() {
			fmt.Fprintf(os.Stderr, "stsparqld: live service %s from %s for %v (%d workers)\n",
				sens.Name, from.Format(time.RFC3339), *window, svc.EffectiveWorkers())
			start := time.Now()
			if err := svc.RunWindow(sens, from, *window); err != nil {
				fmt.Fprintln(os.Stderr, "stsparqld: live window:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "stsparqld: live window done: %d acquisitions in %v\n",
				len(svc.Reports), time.Since(start).Round(time.Millisecond))
		}()
	} else if *seed != 0 {
		world := auxdata.Generate(*seed)
		n := st.LoadTriples(world.AllTriples())
		fmt.Fprintf(os.Stderr, "stsparqld: loaded %d triples from synthetic world (seed %d)\n", n, *seed)
	}
	if *load != "" {
		src, err := os.ReadFile(*load)
		fail(err)
		n, err := st.LoadTurtle(string(src))
		fail(err)
		fmt.Fprintf(os.Stderr, "stsparqld: loaded %d triples from %s\n", n, *load)
	}

	ep := strabon.NewEndpoint(st)
	ep.QueryTimeout = *queryTO
	ep.MaxRows = *maxRows
	ep.MaxBytes = *maxBytes
	if *resCache > 0 {
		ep.Results = resultcache.New(*resCache, *resBytes)
	}
	if *maxConc > 0 {
		ep.Admission = strabon.NewAdmission(*maxConc, *queueDepth)
	}
	if reg != nil {
		tel := strabon.EnableTelemetry(ep, reg, qlog)
		tel.SlowQuery = *slowQuery
		opsLn, err := net.Listen("tcp", *opsAddr)
		fail(err)
		go http.Serve(opsLn, obs.NewOpsMux(reg, qlog))
		fmt.Fprintf(os.Stderr, "stsparqld: ops surface on %s (/metrics, /debug/queries, /debug/pprof/)\n", opsLn.Addr())
	}
	ln, err := net.Listen("tcp", *addr)
	fail(err)
	fmt.Fprintf(os.Stderr, "stsparqld: serving stSPARQL on %s (/sparql, /update, /explain, /stats; result cache %d entries)\n",
		*addr, *resCache)
	fail(http.Serve(ln, ep))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "stsparqld:", err)
		os.Exit(1)
	}
}
