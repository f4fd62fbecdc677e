package main

import (
	"context"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/hrit"
	"repro/internal/products"
	"repro/internal/rdf"
	"repro/internal/resultcache"
	"repro/internal/rtree"
	"repro/internal/seviri"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// The traced run (-trace 1) replays shortened blocks in which the
// benchmark itself drives every stage through the layer's public
// function, with a span around the call. It reports the per-layer
// metrics; README.md says which end-to-end metric each should move.

// stageMetric maps the span of an acquisition stage to its metric.
var stageMetric = []struct{ span, metric string }{
	{"seviri.acquire", "seviri.acquire_ms"},
	{"vault.attach", "vault.attach_ms"},
	{"vault.load", "vault.load_ms"},
	{"sciql.chain", "sciql.chain_ms"},
	{"products.rdfize", "products.rdfize_ms"},
	{"strabon.insert", "strabon.insert_ms"},
	{"refine.municipalities", "refine.municipalities_ms"},
	{"refine.delete_in_sea", "refine.delete_in_sea_ms"},
	{"refine.invalid_for_fires", "refine.invalid_for_fires_ms"},
	{"refine.refine_in_coast", "refine.refine_in_coast_ms"},
	{"refine.time_persistence", "refine.time_persistence_ms"},
	{"refine.current", "refine.current_ms"},
}

// ingestTrace is what the traced acquisitions leave behind for the
// counters and the probes.
type ingestTrace struct {
	insertTriples int
	affected      int
	products      []*products.Product
	segments      map[string][][]byte // the first acquisition's downlink
}

// tracedSteps services acquisitions the way Service.Step does, stage by
// stage through the layers' public functions: downlink, vault attach,
// vault load of both channels, chain, RDF-ization, InsertAll, the five
// refinement operations in RunAll's order, CurrentHotspots.
func (r *run) tracedSteps(tr *tracer, st *stack, times []time.Time, stop *atomic.Bool) *ingestTrace {
	svc := st.svc
	out := &ingestTrace{}
	if stop != nil {
		defer stop.Store(true)
	}
	for i, at := range times {
		r.attempted++
		id := i + 1
		root := tr.begin(id, 0, "core.step")
		var err error
		stage := func(name string, f func() error) {
			if err == nil {
				tr.in(id, root, name, func() { err = f() })
			}
		}
		var acq *seviri.RawAcquisition
		var product *products.Product
		var triples []rdf.Triple
		stage("seviri.acquire", func() (e error) {
			acq, e = svc.Sim.Acquire(seviri.MSG1, at, svc.Segments, svc.Compress)
			return e
		})
		stage("vault.attach", func() error { return core.IngestAcquisition(svc.Vault, acq) })
		stage("vault.load", func() error {
			for _, ch := range []string{hrit.ChannelIR039, hrit.ChannelIR108} {
				if _, e := svc.Vault.Load(ch, at); e != nil {
					return e
				}
			}
			return nil
		})
		stage("sciql.chain", func() (e error) {
			product, e = svc.Chain.Process(seviri.MSG1.Name, at)
			return e
		})
		stage("products.rdfize", func() error {
			triples = product.TriplesInto(make([]rdf.Triple, 0, 9*len(product.Hotspots)+5))
			return nil
		})
		stage("strabon.insert", func() error {
			for _, n := range svc.Strabon.InsertAll(triples) {
				out.insertTriples += n
			}
			return nil
		})
		for _, op := range []struct {
			name string
			fn   func(*products.Product) (int, error)
		}{
			{"refine.municipalities", svc.Refiner.Municipalities},
			{"refine.delete_in_sea", svc.Refiner.DeleteInSea},
			{"refine.invalid_for_fires", svc.Refiner.InvalidForFires},
			{"refine.refine_in_coast", svc.Refiner.RefineInCoast},
			{"refine.time_persistence", svc.Refiner.TimePersistence},
		} {
			stage(op.name, func() error {
				n, e := op.fn(product)
				out.affected += n
				return e
			})
		}
		stage("refine.current", func() error {
			_, e := svc.Refiner.CurrentHotspots(at)
			return e
		})
		tr.end(root)
		if err != nil {
			r.fail("traced acquisition %s: %v", at.Format(timeFmt), err)
			continue
		}
		out.products = append(out.products, product)
		if out.segments == nil {
			out.segments = acq.Segments
		}
	}
	return out
}

// tracedRequest is one request of a traced block.
type tracedRequest struct {
	op    op
	trace int
	bytes int64
}

const requestTraceBase = 1_000_000 // trace ids of requests start here

// runBlockTraced is runBlock with client-side spans: send to first
// response byte, send to last byte.
func (r *run) runBlockTraced(tr *tracer, st *stack, ops [][]op, next *atomic.Int64, stop *atomic.Bool) []tracedRequest {
	lists := make([][]tracedRequest, len(ops))
	var failed atomic.Int64
	var wg sync.WaitGroup
	for c := range ops {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, o := range ops[c] {
				if stop != nil && stop.Load() {
					break
				}
				if o.write > 0 {
					st.insertProduct(writeProduct(r.in.pools, o.write))
				}
				id := int(next.Add(1))
				n, err := st.fetchTraced(tr, id, st.clients[c], o.text)
				if err != nil {
					failed.Add(1)
				}
				lists[c] = append(lists[c], tracedRequest{op: o, trace: id, bytes: n})
			}
		}(c)
	}
	wg.Wait()
	var out []tracedRequest
	for _, l := range lists {
		out = append(out, l...)
	}
	r.attempted += len(out)
	r.failed += int(failed.Load())
	return out
}

func (s *stack) fetchTraced(tr *tracer, trace int, cl *http.Client, text string) (int64, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+"/sparql?query="+url.QueryEscape(text), nil)
	if err != nil {
		return 0, err
	}
	root := tr.begin(trace, 0, "endpoint.request")
	defer tr.end(root)
	ttfb := tr.begin(trace, root, "endpoint.ttfb")
	var once sync.Once
	first := func() { once.Do(func() { tr.end(ttfb) }) }
	defer first() // a request that fails before any byte still closes its span
	req = req.WithContext(httptrace.WithClientTrace(req.Context(),
		&httptrace.ClientTrace{GotFirstResponseByte: first}))
	resp, err := cl.Do(req)
	if err != nil {
		return 0, err
	}
	return finish(resp)
}

// replay evaluates a text in-process: QueryStreamCtx until the cursor
// returns, then the Next loop to Close.
func (r *run) replay(tr *tracer, st *stack, trace int, text string) error {
	root := tr.begin(trace, 0, "strabon.query")
	defer tr.end(root)
	open := tr.begin(trace, root, "strabon.open")
	cur, err := st.store.QueryStreamCtx(context.Background(), text)
	tr.end(open)
	if err != nil {
		return err
	}
	defer cur.Close()
	drainSpan := tr.begin(trace, root, "strabon.drain")
	defer tr.end(drainSpan)
	for {
		if _, ok := cur.Next(); !ok {
			break
		}
	}
	return cur.Close()
}

// memDelta is what the runtime did over an interval.
type memDelta struct {
	ms runtime.MemStats
	t0 time.Time
}

func memStart() memDelta {
	var d memDelta
	runtime.ReadMemStats(&d.ms)
	d.t0 = time.Now()
	return d
}

func (d memDelta) report(r *run, ops int) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	elapsed := time.Since(d.t0).Seconds()
	r.values["runtime.alloc_mb_per_s"] = float64(now.TotalAlloc-d.ms.TotalAlloc) / (1 << 20) / elapsed
	r.values["runtime.allocs_per_op"] = float64(now.Mallocs-d.ms.Mallocs) / float64(max(ops, 1))
	r.values["runtime.gc_cycles"] = float64(now.NumGC - d.ms.NumGC)
	r.values["runtime.gc_pause_ms"] = float64(now.PauseTotalNs-d.ms.PauseTotalNs) / 1e6
}

// workloadMix is the request mix a workload sends (archive-replay: in
// its reference serve phase), with its write cadence and client count.
func (r *run) workloadMix() (m mix, writeEvery, clients int) {
	switch r.wl.name {
	case "serve-hot":
		return mixHot, hotWriteEvery, serveClients
	case "serve-cold":
		return mixCold, coldWriteEvery, serveClients
	case "live-mixed":
		return mixLive, 0, liveClients
	}
	return mixReference, 0, serveClients
}

// traced is the -trace 1 run.
func (r *run) traced() {
	tr := newTracer()
	m, writeEvery, clients := r.workloadMix()
	live := r.wl.name == "live-mixed"
	times := acquisitionTimes(tracedAcquisitions + 1)[1:]
	var next atomic.Int64
	next.Store(requestTraceBase)

	// Traced blocks on stack A: the acquisitions stage by stage, the
	// requests with client-side spans; beside each other on live-mixed
	// only.
	st, _ := r.ready(clients)
	cacheBefore := st.ep.Results.Stats()
	admBefore := st.ep.Admission.Stats()
	planBefore := st.store.PlanStats()
	var ing *ingestTrace
	var reqs []tracedRequest
	runtime.GC()
	tracedIngestStart := time.Now()
	var tracedIngest, tracedServe time.Duration
	if live {
		ops := r.ops.block(m, clients, liveRequestList, 0)
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqs = r.runBlockTraced(tr, st, ops, &next, &stop)
		}()
		ing = r.tracedSteps(tr, st, times, &stop)
		tracedIngest = time.Since(tracedIngestStart)
		wg.Wait()
	} else {
		ing = r.tracedSteps(tr, st, times, nil)
		tracedIngest = time.Since(tracedIngestStart)
		ops := r.ops.block(m, clients, tracedRequests, writeEvery)
		runtime.GC()
		t0 := time.Now()
		reqs = r.runBlockTraced(tr, st, ops, &next, nil)
		tracedServe = time.Since(t0)
	}
	cacheAfter := st.ep.Results.Stats()
	admAfter := st.ep.Admission.Stats()
	planAfter := st.store.PlanStats()

	// In-process replay of every request that was not a cached hot text:
	// what the store did for it, without endpoint, cache and HTTP.
	replayed := make(map[int]int) // request trace -> replay trace
	for _, q := range reqs {
		if q.op.class.hot() {
			continue
		}
		id := int(next.Add(1))
		if err := r.replay(tr, st, id, q.op.text); err != nil {
			r.fail("replay: %v", err)
		}
		replayed[q.trace] = id
	}
	r.acquisitionLayers(tr, ing)
	r.requestLayers(tr, reqs, replayed)
	r.counterLayers(st, m, cacheBefore, cacheAfter, admBefore, admAfter, planBefore, planAfter, reqs)
	r.planLayers(st, m)
	r.probes(st, ing)

	// The same shortened blocks untraced, for the tracing overhead and
	// the runtime's counters: requests on stack A, acquisitions on a
	// fresh stack B with one worker, then on stack C with two.
	if !live {
		ops := r.ops.block(m, clients, tracedRequests, writeEvery)
		runtime.GC()
		mem := memStart()
		res := st.runBlock(r.in, ops, nil)
		r.attempted += res.attempted
		r.failed += res.failed
		if r.wl.name != "archive-replay" {
			mem.report(r, len(res.lats))
			r.values["trace.overhead_pct"] = 100 * (tracedServe.Seconds()/res.elapsed.Seconds() - 1)
		}
	}
	st.close()

	st, _ = r.ready(clients)
	st.svc.Workers = 1
	runtime.GC()
	mem := memStart()
	one := r.window(st, tracedAcquisitions)
	if r.wl.name == "archive-replay" {
		mem.report(r, tracedAcquisitions)
		r.values["trace.overhead_pct"] = 100 * (tracedIngest.Seconds()/one.Seconds() - 1)
	}
	st.close()

	st, _ = r.ready(clients)
	runtime.GC()
	two := r.window(st, tracedAcquisitions)
	st.close()
	r.values["core.pipeline_speedup"] = one.Seconds() / two.Seconds()

	if live {
		st, _ = r.ready(clients)
		runtime.GC()
		mem := memStart()
		_, untraced, _ := r.liveBlock(st, tracedAcquisitions)
		mem.report(r, tracedAcquisitions)
		r.values["trace.overhead_pct"] = 100 * (tracedIngest.Seconds()/untraced.Seconds() - 1)
		st.close()
	}

	path, err := tr.write(r.wl.name, r.seed)
	if err != nil {
		r.fail("trace file: %v", err)
	}
	r.note("trace: %d spans written to %s", len(tr.spans), path)
}

// acquisitionLayers reports the stage self times, the counters of the
// traced acquisitions and the history-scaling ratio.
func (r *run) acquisitionLayers(tr *tracer, ing *ingestTrace) {
	self := tr.selfTimes()
	sum := 0.0
	for _, s := range stageMetric {
		r.values[s.metric] = median(self[s.span])
		for _, v := range self[s.span] {
			sum += v
		}
	}
	steps := tr.durations("core.step")
	total := 0.0
	for _, v := range steps {
		total += v
	}
	// The stages are the whole of a traced acquisition: their self times
	// must add up to the acquisitions' time.
	r.attempted++
	if total == 0 || sum < 0.9*total || sum > 1.1*total {
		r.fail("stage self times sum to %.1f ms, traced acquisitions took %.1f ms", sum, total)
	}
	r.note("acquisition stages: self times sum to %.1f ms of %.1f ms traced (%d acquisitions)", sum, total, len(steps))
	r.values["strabon.insert_triples"] = float64(ing.insertTriples)
	r.values["refine.affected"] = float64(ing.affected)
	q := max(len(steps)/4, 1)
	r.values["core.acq_late_over_early"] = median(steps[len(steps)-q:]) / median(steps[:q])
}

// requestLayers reports what the clients saw and what the store did for
// the same texts in-process.
func (r *run) requestLayers(tr *tracer, reqs []tracedRequest, replayed map[int]int) {
	byTrace := func(name string) map[int]float64 {
		out := make(map[int]float64)
		tr.mu.Lock()
		defer tr.mu.Unlock()
		for _, s := range tr.spans {
			if s.Name == name {
				out[s.Trace] = float64(s.End-s.Start) / 1e6
			}
		}
		return out
	}
	request, ttfb, store := byTrace("endpoint.request"), byTrace("endpoint.ttfb"), byTrace("strabon.query")
	var reqMs, ttfbMs, overhead []float64
	var bytes int64
	for _, q := range reqs {
		reqMs = append(reqMs, request[q.trace])
		ttfbMs = append(ttfbMs, ttfb[q.trace])
		bytes += q.bytes
		// A cached hot text costs the store nothing; for the others the
		// replay says what the store's share was.
		overhead = append(overhead, request[q.trace]-store[replayed[q.trace]])
	}
	r.values["endpoint.request_ms"] = median(reqMs)
	r.values["endpoint.ttfb_ms"] = median(ttfbMs)
	r.values["endpoint.bytes_per_req"] = float64(bytes) / float64(max(len(reqs), 1))
	r.values["endpoint.overhead_ms"] = median(overhead)
	r.values["strabon.open_ms"] = median(tr.durations("strabon.open"))
	r.values["strabon.drain_ms"] = median(tr.durations("strabon.drain"))
	r.note("requests: %d traced, %d replayed in-process", len(reqs), len(replayed))
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counterLayers reports the deltas of the serving tier's own counters
// over the traced requests, and the store's size.
func (r *run) counterLayers(st *stack, m mix, cb, ca resultcache.Stats, ab, aa strabon.AdmissionStats, pb, pa stsparql.PlanCacheStats, reqs []tracedRequest) {
	hits, misses := ca.Hits-cb.Hits, ca.Misses-cb.Misses
	hot := uint64(0)
	for _, q := range reqs {
		if q.op.class.hot() {
			hot++
		}
	}
	r.values["resultcache.hit_ratio"] = ratio(hits, hits+misses)
	r.values["resultcache.hot_hit_ratio"] = ratio(hits, hot)
	r.values["resultcache.invalidations"] = float64(ca.Invalidations - cb.Invalidations)
	r.values["resultcache.evictions"] = float64(ca.Evictions - cb.Evictions)
	r.values["resultcache.bytes"] = float64(ca.Bytes)
	r.values["admission.admitted"] = float64(aa.Admitted - ab.Admitted)
	r.values["admission.rejected"] = float64(aa.Rejected - ab.Rejected)
	r.values["admission.timed_out"] = float64(aa.TimedOut - ab.TimedOut)
	ph, pm := pa.Hits-pb.Hits, pa.Misses-pb.Misses
	r.values["stsparql.plan_hit_ratio"] = ratio(ph, ph+pm)

	r.values["rdf.triples"] = float64(st.store.Len())
	_, dictBytes := st.store.DictStats()
	r.values["rdf.dict_bytes"] = float64(dictBytes)
	var maxT, sumT, slices float64
	for _, s := range st.store.ShardStats() {
		if s.Name == "static" {
			continue
		}
		maxT = max(maxT, float64(s.Triples))
		sumT += float64(s.Triples)
		slices++
	}
	r.values["shard.slice_skew"] = maxT / (sumT / slices)
	r.attempted++
	if r.wl.name == "serve-cold" && hits != 0 {
		r.fail("result cache served %d hits on unique texts", hits)
	}
}

var (
	fanoutLine = regexp.MustCompile(`^shard fan-out: (\d+)/(\d+) slices`)
	actualRows = regexp.MustCompile(`\(actual rows=(\d+) `)
	totalRows  = regexp.MustCompile(`(?m)^total: rows=(\d+) `)
)

// planLayers asks the store how it routes and executes one text of each
// class of the mix: Explain's fan-out line, and ExplainAnalyze's scan
// output against the rows returned. The counts repeat exactly.
func (r *run) planLayers(st *stack, m mix) {
	heavy := m.classAt(95)
	var fallback, share float64
	for c, s := range m {
		if s == 0 {
			continue
		}
		text := r.ops.text(class(c))
		plan, err := st.store.Explain(text)
		r.attempted++
		if err != nil {
			r.fail("Explain %s: %v", class(c), err)
			continue
		}
		share += float64(s)
		fan := fanoutLine.FindStringSubmatch(plan)
		if fan == nil {
			fallback += float64(s)
		}
		if class(c) != heavy {
			continue
		}
		if fan != nil {
			k, _ := strconv.Atoi(fan[1])
			r.values["shard.fanout_slices"] = float64(k)
		} else {
			r.values["shard.fanout_slices"] = float64(st.store.Slices())
		}
		analyzed, err := st.store.ExplainAnalyze(context.Background(), text)
		r.attempted++
		if err != nil {
			r.fail("ExplainAnalyze %s: %v", class(c), err)
			continue
		}
		r.values["stsparql.rows_scanned_per_row"] = scannedPerRow(analyzed)
	}
	r.values["shard.union_fallback_ratio"] = fallback / share
	r.note("plans: fan-out and scan counts taken on class %s", heavy)
}

// scannedPerRow divides the rows the first operator of each shard's
// plan put out (the scan) by the rows the query returned.
func scannedPerRow(analyzed string) float64 {
	scanned := 0
	wantScan := true
	for _, line := range strings.Split(analyzed, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "shard[") || strings.HasPrefix(trimmed, "select") {
			wantScan = true
			continue
		}
		if m := actualRows.FindStringSubmatch(line); m != nil && wantScan {
			n, _ := strconv.Atoi(m[1])
			scanned += n
			wantScan = false
		}
	}
	rows := 1
	if m := totalRows.FindStringSubmatch(analyzed); m != nil {
		if n, _ := strconv.Atoi(m[1]); n > 0 {
			rows = n
		}
	}
	return float64(scanned) / float64(rows)
}

// probes times the leaf layers that have no boundary of their own in
// the flow, on inputs taken from the workload: HRIT decode of one
// downlink, R-tree load and search over the hotspot pixels, and the
// geometry predicate on hotspot x municipality pairs.
func (r *run) probes(st *stack, ing *ingestTrace) {
	const repeats = 5
	timed := func(f func()) float64 {
		var ms []float64
		for i := 0; i < repeats; i++ {
			t0 := time.Now()
			f()
			ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		return median(ms)
	}

	r.attempted++
	r.values["hrit.decode_ms"] = timed(func() {
		for _, files := range ing.segments {
			segs := make([]hrit.Segment, 0, len(files))
			for _, raw := range files {
				seg, err := hrit.Decode(raw)
				if err != nil {
					r.fail("hrit.Decode: %v", err)
					return
				}
				segs = append(segs, seg)
			}
			if _, err := hrit.Assemble(segs); err != nil {
				r.fail("hrit.Assemble: %v", err)
			}
		}
	})

	var pixels []geom.Polygon
	for _, set := range [][]*products.Product{r.in.archive, ing.products} {
		for _, p := range set {
			for _, h := range p.Hotspots {
				pixels = append(pixels, h.Geometry)
			}
		}
	}
	items := make([]rtree.Item, len(pixels))
	for i, px := range pixels {
		items[i] = rtree.Item{Box: px.Envelope(), Data: i}
	}
	var tree *rtree.Tree
	r.values["rtree.bulkload_ms"] = timed(func() { tree = rtree.BulkLoad(items) })
	found := 0
	searchMs := timed(func() {
		for _, it := range items {
			tree.Search(it.Box, func(rtree.Item) bool { found++; return true })
		}
	})
	r.values["rtree.search_us"] = 1000 * searchMs / float64(len(items))
	if found < repeats*len(items) {
		r.fail("rtree.Search found %d of %d indexed pixels", found/repeats, len(items))
	}

	munis := st.svc.Sim.Scenario.World.Municipalities
	sample := pixels[max(len(pixels)-200, 0):]
	hit := 0
	pairMs := timed(func() {
		for _, px := range sample {
			for i := range munis {
				if geom.Intersects(px, munis[i].Geometry) {
					hit++
				}
			}
		}
	})
	r.values["geom.intersects_ns"] = 1e6 * pairMs / float64(len(sample)*len(munis))
	r.note("probes: %d pixels indexed, %d pixel x municipality pairs (%d intersect)", len(items), len(sample)*len(munis), hit/repeats)
}
