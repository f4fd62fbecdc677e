package main

// Frozen constants of the benchmark: workloads, block shapes and the
// metric names. They were calibrated once on the 2-core reference box
// (nproc = 2) so that a run takes about 24 s, and are not to be retuned
// by a change that claims a gain. BENCHMARK.json at the repository root
// repeats the names; names_test.go holds the two in step.

const (
	maxProcs        = 2 // GOMAXPROCS: no more runnable load than cores
	serveClients    = 2 // closed-loop clients of the serve workloads
	liveClients     = 1 // live-mixed: one ingest goroutine + one client
	pipelineWorkers = 2 // Service.Workers for archive-replay

	// Ingest blocks rebuild their state from scratch; serve blocks
	// reuse one warmed server. The counts fill a run of about 24 s: the
	// more blocks, the likelier one of them meets a quiet machine.
	replayBlocks = 3
	liveBlocks   = 4
	serveBlocks  = 5

	replayAcquisitions = 96 // archive-replay: one block
	replayWarmup       = 24 // its shortened warm-up block
	liveAcquisitions   = 48 // live-mixed: one block
	liveWarmup         = 12
	liveRequestList    = 12000 // three times what goroutine B sends in a block

	// Requests per client and block. A block has at least 600 requests,
	// so p95 has at least 30 samples beyond it.
	hotBlock       = 12000
	coldBlock      = 500
	referenceBlock = 500 // archive-replay: the reference mix

	hotWriteEvery  = 500 // client 0 inserts a hotspot before every n-th request
	coldWriteEvery = 100

	// The reference phases (workloads.go), which follow the primary one.
	referenceServeBlocks  = 3  // archive-replay: blocks of referenceBlock requests per client
	referenceIngestBlocks = 5  // serve-*: fresh stacks, each servicing
	referenceSteps        = 36 // ... this many sequential Steps
	referenceWarmup       = 8  // ... and the untimed first one this many

	// Traced run: shortened blocks.
	tracedAcquisitions = 24
	tracedRequests     = 150 // per client

	checkAcquisitions = 8  // replayed into a single store and compared
	checkColdEvery    = 50 // every n-th cold text is re-evaluated in-process
)

type workload struct {
	name string
	why  string
}

var workloads = []workload{
	{"archive-replay", "bulk ingest: chain, InsertAll and refinement do all the work, the serving tier none"},
	{"serve-hot", "recurring texts: result cache, encode and HTTP do the work, the engine almost none"},
	{"serve-cold", "unique texts: parse, plan, shard fan-out, R-tree and geometry do the work, the cache only pays Put"},
	{"live-mixed", "acquisitions beside queries: lock interplay and cache invalidation show here only"},
}

// metric describes one reported number.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"acq_per_s", "1/s", "higher"},
	{"acq_p50_ms", "ms", "lower"},
	{"query_per_s", "1/s", "higher"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p95_ms", "ms", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

var perLayer = []metric{
	{"seviri.acquire_ms", "ms", "lower"},
	{"vault.attach_ms", "ms", "lower"},
	{"vault.load_ms", "ms", "lower"},
	{"hrit.decode_ms", "ms", "lower"},
	{"sciql.chain_ms", "ms", "lower"},
	{"products.rdfize_ms", "ms", "lower"},
	{"strabon.insert_ms", "ms", "lower"},
	{"strabon.insert_triples", "count", "lower"},
	{"refine.municipalities_ms", "ms", "lower"},
	{"refine.delete_in_sea_ms", "ms", "lower"},
	{"refine.invalid_for_fires_ms", "ms", "lower"},
	{"refine.refine_in_coast_ms", "ms", "lower"},
	{"refine.time_persistence_ms", "ms", "lower"},
	{"refine.affected", "count", "lower"},
	{"refine.current_ms", "ms", "lower"},
	{"core.acq_late_over_early", "ratio", "lower"},
	{"core.pipeline_speedup", "ratio", "higher"},
	{"endpoint.request_ms", "ms", "lower"},
	{"endpoint.ttfb_ms", "ms", "lower"},
	{"endpoint.bytes_per_req", "B", "lower"},
	{"endpoint.overhead_ms", "ms", "lower"},
	{"resultcache.hit_ratio", "ratio", "higher"},
	{"resultcache.hot_hit_ratio", "ratio", "higher"},
	{"resultcache.invalidations", "count", "lower"},
	{"resultcache.evictions", "count", "lower"},
	{"resultcache.bytes", "B", "lower"},
	{"admission.admitted", "count", "lower"},
	{"admission.rejected", "count", "lower"},
	{"admission.timed_out", "count", "lower"},
	{"strabon.open_ms", "ms", "lower"},
	{"strabon.drain_ms", "ms", "lower"},
	{"stsparql.plan_hit_ratio", "ratio", "higher"},
	{"stsparql.rows_scanned_per_row", "ratio", "lower"},
	{"shard.fanout_slices", "count", "lower"},
	{"shard.union_fallback_ratio", "ratio", "lower"},
	{"shard.slice_skew", "ratio", "lower"},
	{"rdf.triples", "count", "lower"},
	{"rdf.dict_bytes", "B", "lower"},
	{"rtree.search_us", "us", "lower"},
	{"rtree.bulkload_ms", "ms", "lower"},
	{"geom.intersects_ns", "ns", "lower"},
	{"runtime.alloc_mb_per_s", "MB/s", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
