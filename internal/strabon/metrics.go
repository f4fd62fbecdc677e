package strabon

import (
	"strings"
	"time"

	"repro/internal/obs"
)

// Telemetry is the endpoint's observability bundle: the /metrics
// registry, the /debug/queries slow-query ring, and the live
// instruments the request path updates. A nil *Telemetry disables
// everything — the request path pays one nil check.
//
// Snapshot state (result-cache stats, admission depths, per-shard
// cardinalities) is rendered at scrape time through
// collect funcs, so the request path never maintains duplicates of
// counters other subsystems already keep. Scrape-time collectors take
// only the short internal mutexes of the subsystems they snapshot —
// never a store write lock, never a cursor.
type Telemetry struct {
	Registry *obs.Registry
	Queries  *obs.QueryLog

	// SlowQuery is the elapsed threshold at or above which a cache-miss
	// query lands in the slow-query log; 0 records every miss. Errors
	// and admission rejections are always recorded.
	SlowQuery time.Duration

	latency       *obs.HistogramVec // strabon_query_seconds{outcome}
	requests      *obs.CounterVec   // strabon_http_requests_total{path}
	rows          *obs.Counter      // strabon_result_rows_total
	admissionWait *obs.Histogram    // strabon_admission_wait_seconds
}

// EnableTelemetry wires a registry and slow-query log onto the
// endpoint: live latency/row instruments for the request path, plus
// scrape-time collectors over the endpoint's existing stat sources
// (result cache, admission, per-member state). Call once,
// before serving.
func EnableTelemetry(ep *Endpoint, reg *obs.Registry, qlog *obs.QueryLog) *Telemetry {
	t := &Telemetry{Registry: reg, Queries: qlog}
	t.latency = reg.NewHistogramVec("strabon_query_seconds",
		"Query latency by outcome (hit, miss, rejected, error).",
		[]string{"outcome"}, nil)
	t.requests = reg.NewCounterVec("strabon_http_requests_total",
		"HTTP requests by endpoint path.", []string{"path"})
	t.rows = reg.NewCounter("strabon_result_rows_total",
		"Result rows served by queries.")
	t.admissionWait = reg.NewHistogram("strabon_admission_wait_seconds",
		"Time spent queued for an admission slot.", nil)

	reg.NewGaugeFunc("strabon_store_triples",
		"Triples in the store.", func() float64 { return float64(ep.store.Len()) })

	reg.NewGaugeFunc("strabon_dict_entries",
		"Distinct terms interned in the store dictionary (one per store, shared by its shards).",
		func() float64 { entries, _ := ep.store.DictStats(); return float64(entries) })
	reg.NewGaugeFunc("strabon_dict_bytes",
		"Approximate heap bytes pinned by the store dictionary.",
		func() float64 { _, bytes := ep.store.DictStats(); return float64(bytes) })

	if ep.Results != nil {
		rc := ep.Results
		reg.NewCollectFunc("strabon_result_cache_hits_total",
			"Result cache hits.", "counter", nil, func() []obs.Sample {
				return []obs.Sample{{Value: float64(rc.Stats().Hits)}}
			})
		reg.NewCollectFunc("strabon_result_cache_misses_total",
			"Result cache misses.", "counter", nil, func() []obs.Sample {
				return []obs.Sample{{Value: float64(rc.Stats().Misses)}}
			})
		reg.NewCollectFunc("strabon_result_cache_evictions_total",
			"Result cache evictions (capacity).", "counter", nil, func() []obs.Sample {
				return []obs.Sample{{Value: float64(rc.Stats().Evictions)}}
			})
		reg.NewCollectFunc("strabon_result_cache_invalidations_total",
			"Result cache entries invalidated by writes.", "counter", nil, func() []obs.Sample {
				return []obs.Sample{{Value: float64(rc.Stats().Invalidations)}}
			})
		reg.NewGaugeFunc("strabon_result_cache_entries",
			"Entries resident in the result cache.",
			func() float64 { return float64(rc.Stats().Entries) })
		reg.NewGaugeFunc("strabon_result_cache_bytes",
			"Bytes resident in the result cache.",
			func() float64 { return float64(rc.Stats().Bytes) })
	}

	if ep.Admission != nil {
		ad := ep.Admission
		reg.NewCollectFunc("strabon_admission_admitted_total",
			"Evaluations admitted.", "counter", nil, func() []obs.Sample {
				return []obs.Sample{{Value: float64(ad.Stats().Admitted)}}
			})
		reg.NewCollectFunc("strabon_admission_rejected_total",
			"Evaluations rejected with 429 (queue full).", "counter", nil, func() []obs.Sample {
				return []obs.Sample{{Value: float64(ad.Stats().Rejected)}}
			})
		reg.NewCollectFunc("strabon_admission_timedout_total",
			"Queued evaluations abandoned before a slot freed.", "counter", nil, func() []obs.Sample {
				return []obs.Sample{{Value: float64(ad.Stats().TimedOut)}}
			})
		reg.NewGaugeFunc("strabon_admission_active",
			"Evaluations holding an admission slot.",
			func() float64 { return float64(ad.Stats().Active) })
		reg.NewGaugeFunc("strabon_admission_queued",
			"Evaluations waiting in the admission queue.",
			func() float64 { return float64(ad.Stats().Queued) })
	}

	ss := ep.store
	shardLabels := []string{"shard"}
	reg.NewCollectFunc("strabon_time_index_entries",
		"Entries in the store's time index (per member store of a sharded backend).",
		"gauge", []string{"store"}, func() []obs.Sample {
			sts := ss.ShardStats()
			out := make([]obs.Sample, len(sts))
			for i, s := range sts {
				out[i] = obs.Sample{LabelValues: []string{s.Name}, Value: float64(s.TimeEntries)}
			}
			return out
		})
	reg.NewCollectFunc("strabon_shard_triples",
		"Triples per shard.", "gauge", shardLabels, func() []obs.Sample {
			sts := ss.ShardStats()
			out := make([]obs.Sample, len(sts))
			for i, st := range sts {
				out[i] = obs.Sample{LabelValues: []string{st.Name}, Value: float64(st.Triples)}
			}
			return out
		})
	reg.NewCollectFunc("strabon_shard_generation",
		"Mutation generation per shard.", "gauge", shardLabels, func() []obs.Sample {
			sts := ss.ShardStats()
			out := make([]obs.Sample, len(sts))
			for i, st := range sts {
				out[i] = obs.Sample{LabelValues: []string{st.Name}, Value: float64(st.Gen)}
			}
			return out
		})
	reg.NewCollectFunc("strabon_shard_observed_min_time_seconds",
		"Oldest observed timestamp per shard (unix seconds; absent when empty).",
		"gauge", shardLabels, func() []obs.Sample {
			var out []obs.Sample
			for _, st := range ss.ShardStats() {
				if st.MinUnix != 0 {
					out = append(out, obs.Sample{LabelValues: []string{st.Name}, Value: float64(st.MinUnix)})
				}
			}
			return out
		})
	reg.NewCollectFunc("strabon_shard_observed_max_time_seconds",
		"Newest observed timestamp per shard (unix seconds; absent when empty).",
		"gauge", shardLabels, func() []obs.Sample {
			var out []obs.Sample
			for _, st := range ss.ShardStats() {
				if st.MaxUnix != 0 {
					out = append(out, obs.Sample{LabelValues: []string{st.Name}, Value: float64(st.MaxUnix)})
				}
			}
			return out
		})

	ep.Metrics = t
	return t
}

// countRequest bumps the per-path request counter.
func (t *Telemetry) countRequest(path string) {
	if t == nil {
		return
	}
	t.requests.With(path).Inc()
}

// observeWait records time spent queued for an admission slot.
func (t *Telemetry) observeWait(d time.Duration) {
	if t == nil {
		return
	}
	t.admissionWait.Observe(d.Seconds())
}

// recordQuery lands one finished query in the latency histogram, the
// row counter, and — for errors, rejections and slow misses — the
// slow-query log.
func (t *Telemetry) recordQuery(traceID, query, outcome string, rows int, elapsed time.Duration, plan string) {
	if t == nil {
		return
	}
	t.latency.With(outcome).Observe(elapsed.Seconds())
	if rows > 0 {
		t.rows.Add(uint64(rows))
	}
	if t.Queries == nil {
		return
	}
	log := outcome == "error" || outcome == "rejected" ||
		(outcome == "miss" && elapsed >= t.SlowQuery)
	if !log {
		return
	}
	t.Queries.Record(obs.QueryRecord{
		TraceID:    traceID,
		Query:      query,
		PlanDigest: planDigest(plan),
		AccessPath: accessPath(plan),
		Outcome:    outcome,
		Rows:       rows,
		Elapsed:    elapsed,
	})
}

// planDigest fingerprints a rendered plan — the slow-query log's
// grouping key.
func planDigest(plan string) string {
	if plan == "" {
		return ""
	}
	return obs.Digest(plan)
}

// accessPath names how a rendered plan opens: the label of its first
// scan or join — scan[time-range], join[bind] (a predicate scan),
// join[window] — so a slow-log entry tells a range scan from a full one.
func accessPath(plan string) string {
	for _, line := range strings.Split(plan, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "scan[") || strings.HasPrefix(line, "join[") {
			return line[:strings.IndexByte(line, ']')+1]
		}
	}
	return ""
}
