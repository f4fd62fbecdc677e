package strabon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/stsparql"
)

// Endpoint is an http.Handler exposing a Store over a minimal
// SPARQL-protocol surface — the role Strabon's endpoint plays for NOA
// operators' thematic queries (Section 3.2.4 of the paper):
//
//	GET  /sparql?query=...          evaluate a SELECT/ASK
//	POST /sparql                    form-encoded query=, or a raw
//	                                application/sparql-query body
//	POST /update                    form-encoded update=, or a raw
//	                                application/sparql-update body
//	GET  /explain?query=...         render the evaluation plan
//	GET  /stats                     store + endpoint statistics
//
// Result format negotiation: an explicit format=json|tsv parameter
// wins; otherwise the Accept header is matched (q-values and wildcards
// honoured) against application/sparql-results+json and
// text/tab-separated-values. No Accept, or */*, means SPARQL results
// JSON; an Accept naming only unsupported types is answered 406 with
// the supported list.
//
// SELECT responses stream: rows are encoded from the store cursor as
// they are produced and flushed in chunks, so the first byte goes out
// before the last row exists and no full result set is ever buffered.
// Because the byte count is unknown up front, per-request statistics
// for streamed SELECTs travel as HTTP trailers (X-Rows, X-Elapsed-Us,
// and X-Error if evaluation failed mid-stream) on the chunked response;
// ASK and /update responses are tiny and keep them as plain headers.
//
// Handlers take no locks of their own: the store's read-lock discipline
// lets any number of /sparql and /explain requests run concurrently with
// each other and with an /update's WHERE clause, which the store
// matches under read locks; only the update's commit write-locks, and
// only the members its effect touches. A streamed
// response holds the store read locks until the cursor closes. Queries
// run under r.Context(), optionally capped by QueryTimeout, and both
// are checked at row pulls only: a gone client, or one past the
// timeout, releases the locks at the next pull, but a client that
// stays connected and stops reading blocks the handler in a socket
// write and holds the cursor's read locks until it disconnects
// (ROADMAP item 20).
//
// /stats includes the per-member cardinalities of the store
// (ShardStats).
type Endpoint struct {
	store *Store

	// QueryTimeout, when positive, caps how long one /sparql evaluation
	// may hold store read locks; 0 means no cap beyond the client's own
	// context. The cap spans admission queueing and evaluation together.
	QueryTimeout time.Duration

	// Results, when set, caches materialised query results keyed by the
	// query text. A hit replays the stored snapshot — or, from its second
	// request in a format on, the body the first one rendered — through
	// the one response path a miss takes, byte-identical to a fresh
	// evaluation, trailers included, without taking any store lock or
	// admission slot. Entries carry the generation vector of the slices
	// their evaluation read and are validated against the store
	// (GensValid) on every Get, so a write to any of those slices
	// invalidates exactly the results that read it.
	Results *resultcache.Cache

	// Admission, when set, gates the cache-miss path: bounded concurrent
	// evaluations plus a FIFO wait queue. Overflow is answered 429 with
	// Retry-After.
	Admission *Admission

	// MaxRows and MaxBytes, when positive, bound one streamed response,
	// hit or miss (budget overruns abort the stream with an X-Error
	// trailer; an aborted result is not cached, nor is an aborted hit's
	// rendering recorded, so a hit replays one that fit).
	MaxRows  int
	MaxBytes int64

	// Metrics, when set (EnableTelemetry), instruments the request path:
	// latency histograms by outcome, per-path request counters, the
	// slow-query log, and /metrics + /debug/queries routes on this
	// handler. nil disables all of it at the cost of one nil check.
	Metrics *Telemetry

	mu    sync.Mutex
	stats EndpointStats
}

// EndpointStats counts served traffic.
type EndpointStats struct {
	Requests int // query/update/explain requests accepted
	Errors   int // requests answered with a non-2xx status
	Rows     int // result rows served by queries
}

// NewEndpoint returns an endpoint over a store.
func NewEndpoint(s *Store) *Endpoint { return &Endpoint{store: s} }

// Stats returns a snapshot of the endpoint counters.
func (ep *Endpoint) Stats() EndpointStats {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.stats
}

// endpointRoute names the endpoint a request path routes to — "/sparql"
// for the root too — or "other" for a path that routes nowhere. It is
// also the request counter's label, so clients sending arbitrary paths
// leave one "other" series, not a series per path.
func endpointRoute(path string) string {
	switch path = strings.TrimSuffix(path, "/"); path {
	case "", "/sparql":
		return "/sparql"
	case "/update", "/explain", "/stats", "/metrics", "/debug/queries":
		return path
	}
	return "other"
}

// ServeHTTP implements http.Handler.
func (ep *Endpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := endpointRoute(r.URL.Path)
	if ep.Metrics != nil {
		// Resolve the trace ID once (minting is not idempotent) and pin it
		// on the inbound headers so the handlers below see the same ID.
		rid := obs.RequestID(r)
		r.Header.Set(obs.RequestIDHeader, rid)
		w.Header().Set(obs.RequestIDHeader, rid)
		ep.Metrics.countRequest(path)
	}
	switch path {
	case "/sparql":
		ep.serveQuery(w, r)
	case "/update":
		ep.serveUpdate(w, r)
	case "/explain":
		ep.serveExplain(w, r)
	case "/stats":
		ep.serveStats(w, r)
	case "/metrics":
		if ep.Metrics != nil && ep.Metrics.Registry != nil {
			ep.Metrics.Registry.ServeHTTP(w, r)
			return
		}
		http.NotFound(w, r)
	case "/debug/queries":
		if ep.Metrics != nil && ep.Metrics.Queries != nil {
			ep.Metrics.Queries.ServeHTTP(w, r)
			return
		}
		http.NotFound(w, r)
	default:
		http.NotFound(w, r)
	}
}

// maxRequestBody caps request bodies (direct and form-encoded alike):
// no thematic query comes anywhere near 1 MB.
const maxRequestBody = 1 << 20

// requestText extracts the query/update text per the SPARQL protocol:
// the named form/URL parameter, or the raw body for direct-POST content
// types. The form is parsed first in every case — ParseForm reads a
// body only for form content types — so r.Form holds the URL's
// parameters (format=, analyze=) for a direct POST too.
func requestText(w http.ResponseWriter, r *http.Request, param, directType string) (string, error) {
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	}
	if err := r.ParseForm(); err != nil {
		return "", err
	}
	if r.Method == http.MethodPost && strings.HasPrefix(r.Header.Get("Content-Type"), directType) {
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			return "", err
		}
		return string(raw), nil
	}
	return r.Form.Get(param), nil
}

func (ep *Endpoint) count(rows int, failed bool) {
	ep.mu.Lock()
	ep.stats.Requests++
	ep.stats.Rows += rows
	if failed {
		ep.stats.Errors++
	}
	ep.mu.Unlock()
}

// streamFlushRows is the row interval at which a streamed response is
// flushed to the client (each flush emits an HTTP chunk).
const streamFlushRows = 64

// setElapsed stamps the X-Elapsed-Us header (or trailer, when already
// declared) — the one helper behind every response's elapsed stamp.
func setElapsed(w http.ResponseWriter, start time.Time) {
	w.Header().Set("X-Elapsed-Us", fmt.Sprint(time.Since(start).Microseconds()))
}

func (ep *Endpoint) serveQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		ep.count(0, true)
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
		return
	}
	q, err := requestText(w, r, "query", "application/sparql-query")
	if err != nil || q == "" {
		ep.count(0, true)
		http.Error(w, "missing query", http.StatusBadRequest)
		return
	}
	media, acceptable := negotiateFormat(r)
	if !acceptable {
		ep.count(0, true)
		http.Error(w, "not acceptable: supported result formats are "+
			strings.Join(resultMediaTypes, ", ")+" (or format=json|tsv)",
			http.StatusNotAcceptable)
		return
	}

	traceID := r.Header.Get(obs.RequestIDHeader)

	// Result-cache lookup, ahead of plan compilation and admission: the
	// key is the query text alone (the cached row set is
	// format-independent), and validation checks the entry's generation
	// vector against the live store without taking any lock. A hit takes
	// no lock, release, deadline or admission slot, and is answered by
	// the same respond a miss is: the first hit in a format renders the
	// snapshot and records the bytes onto the entry, and later hits in
	// that format write those bytes (replay).
	if ep.Results != nil {
		if ent, ok := ep.Results.Get(q, ep.store.GensValid); ok {
			start := time.Now()
			rows, _ := ep.respond(w, media, q, ep.replay(ent, media), start)
			ep.Metrics.recordQuery(traceID, q, "hit", rows, time.Since(start), "")
			return
		}
	}

	ctx := r.Context()
	if ep.QueryTimeout > 0 {
		var cancel func()
		ctx, cancel = context.WithTimeout(ctx, ep.QueryTimeout)
		defer cancel()
	}

	reqStart := time.Now()

	// Admission gates the miss path only — evaluations hold store read
	// locks, replays don't. The wait shares the query deadline.
	if !ep.admit(ctx, w, traceID, q) {
		return
	}
	if ep.Admission != nil {
		defer ep.Admission.Release()
	}

	start := time.Now()
	cur, err := ep.store.QueryStreamCtx(ctx, q)
	if err != nil {
		ep.count(0, true)
		http.Error(w, err.Error(), http.StatusBadRequest)
		ep.Metrics.recordQuery(traceID, q, "error", 0, time.Since(reqStart), "")
		return
	}
	rows, failed := ep.respond(w, media, q, ep.encode(cur, media), start)
	ep.recordMiss(traceID, q, rows, time.Since(reqStart), failed)
}

// admit takes an admission slot when the endpoint has an Admission,
// answering 429 with Retry-After on a full queue and 503 on a wait the
// request's context cancelled; false means the request was answered.
// The caller releases the slot.
func (ep *Endpoint) admit(ctx context.Context, w http.ResponseWriter, traceID, q string) bool {
	if ep.Admission == nil {
		return true
	}
	waitStart := time.Now()
	if err := ep.Admission.Acquire(ctx); err != nil {
		ep.count(0, true)
		if errors.Is(err, ErrAdmissionFull) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "busy: admission queue full", http.StatusTooManyRequests)
			ep.Metrics.recordQuery(traceID, q, "rejected", 0, time.Since(waitStart), "")
		} else {
			http.Error(w, "queue wait cancelled: "+err.Error(), http.StatusServiceUnavailable)
			ep.Metrics.recordQuery(traceID, q, "error", 0, time.Since(waitStart), "")
		}
		return false
	}
	ep.Metrics.observeWait(time.Since(waitStart))
	return true
}

// respond answers a query from its spans — a miss's evaluation or a
// hit's replay alike, so the two render the same bytes — and closes
// them. It returns the rows served and whether the request failed.
//
// The first row is pulled before committing to a status code: blocking
// plans (aggregates, ORDER BY) surface their evaluation errors there,
// keeping them 400s instead of mid-stream aborts. An ASK (one row)
// carries X-Rows and X-Elapsed-Us as plain headers; a SELECT declares
// them, with X-Error, as trailers and streams one Write per row,
// flushing every streamFlushRows rows and aborting on MaxRows/MaxBytes,
// both checked before each row. Only a clean completion writes the end
// of the document and keeps what the spans teed (spans.keep).
func (ep *Endpoint) respond(w http.ResponseWriter, media, q string, src *spans, start time.Time) (int, bool) {
	defer src.close()
	span, ok := src.next()
	if !ok {
		if err := src.close(); err != nil {
			ep.count(0, true)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return 0, true
		}
	}

	h := w.Header()
	if src.ask {
		h.Set("X-Rows", fmt.Sprint(src.rows))
		setElapsed(w, start)
	} else {
		h.Set("Trailer", "X-Rows, X-Elapsed-Us, X-Error")
	}
	if media == mediaTSV {
		h.Set("Content-Type", mediaTSV+"; charset=utf-8")
	} else {
		h.Set("Content-Type", mediaJSON)
	}
	flusher, _ := w.(http.Flusher)
	var sent int64
	var writeErr, budgetErr error
	for ; ok; span, ok = src.next() {
		if ep.MaxRows > 0 && src.rows > ep.MaxRows {
			budgetErr = fmt.Errorf("row budget exceeded (%d rows)", ep.MaxRows)
			break
		}
		if ep.MaxBytes > 0 && sent > ep.MaxBytes {
			budgetErr = fmt.Errorf("byte budget exceeded (%d bytes)", ep.MaxBytes)
			break
		}
		n, err := w.Write(span)
		sent += int64(n)
		if writeErr = err; err != nil {
			break // client gone: stop pulling rows
		}
		if src.rows%streamFlushRows == 0 && flusher != nil {
			flusher.Flush()
		}
	}
	if writeErr == nil && budgetErr == nil {
		_, writeErr = w.Write(src.end())
	}
	closeErr := src.close() // rows are final once the cursor is closed
	rows := src.rows
	if closeErr == nil && writeErr == nil && budgetErr == nil {
		src.keep(ep.Results, q)
	}
	if !src.ask {
		h.Set("X-Rows", fmt.Sprint(rows))
		setElapsed(w, start)
	}
	failed := writeErr != nil
	switch {
	case closeErr != nil:
		h.Set("X-Error", closeErr.Error())
		failed = true
	case budgetErr != nil:
		h.Set("X-Error", budgetErr.Error())
		failed = true
	}
	ep.count(rows, failed)
	return rows, failed
}

// spans is one response's bytes as respond walks them, a span per row,
// the first carrying the document head. Over a cursor, each row is
// encoded into out as it is pulled: a cacheable miss tees it into snap,
// and a hit's first rendering in a format keeps out whole, with each
// row's end, as the body to record onto ent. Over a recorded body (cur
// nil), out and ends are that body, and no term is rebuilt.
type spans struct {
	cur  *Cursor
	enc  RowWriter
	out  appendWriter
	ends []int
	pos  int // where the next span starts in out
	rows int
	ask  bool

	// Kept on a clean completion (keep) unless it outgrew bound, the
	// cache's per-entry bound: a miss's snapshot, Put under vec, or the
	// hit's rendering, recorded onto ent in format.
	snap   *stsparql.RowSnapshot
	vec    resultcache.GenVector
	ent    *resultcache.Entry
	format resultcache.Format
	bound  int64
}

// encode returns the spans of cur's rows rendered in media.
func (ep *Endpoint) encode(cur *Cursor, media string) *spans {
	s := &spans{cur: cur, ask: cur.IsAsk(), bound: ep.Results.MaxEntryBytes()}
	if media == mediaTSV {
		s.enc = NewTSVRowWriter(&s.out, cur.Vars())
	} else {
		s.enc = NewJSONRowWriter(&s.out, cur.Vars())
	}
	if vec, ok := cur.CacheVector(); ok && ep.Results != nil {
		s.vec, s.snap = vec, stsparql.NewRowSnapshot(cur.Vars())
	}
	return s
}

// replay returns the spans of a cache hit: the entry's body in media's
// format or, until one is recorded, its snapshot encoded into a body to
// record, sized from the snapshot and never past the per-entry bound.
func (ep *Endpoint) replay(ent *resultcache.Entry, media string) *spans {
	f := resultcache.JSON
	if media == mediaTSV {
		f = resultcache.TSV
	}
	if b := ent.Body(f); b != nil {
		return &spans{out: b.Bytes, ends: b.Ends, ask: ent.Ask}
	}
	s := ep.encode(&Cursor{inner: ent.Snap.Cursor(), ask: ent.Ask}, media)
	s.ent, s.format = ent, f
	size := 2 * ent.Snap.Bytes() // JSON measured 1–1.7x the snapshot, TSV 0.4–1x
	if s.bound > 0 {
		size = min(size, s.bound)
	}
	s.out = make(appendWriter, 0, size)
	s.ends = make([]int, 0, ent.Snap.Rows())
	return s
}

// next returns the next row's span; false once the rows are exhausted or
// the cursor failed.
func (s *spans) next() ([]byte, bool) {
	i := s.rows
	if s.cur != nil {
		row, ok := s.cur.Next()
		if !ok {
			return nil, false
		}
		if s.snap != nil {
			s.snap.Append(row)
			if s.bound > 0 && s.snap.Bytes() > s.bound {
				s.snap = nil // result outgrew the per-entry bound: stop teeing
			}
		}
		if s.ent == nil { // not recording: each span starts afresh
			s.out, s.ends, s.pos = s.out[:0], s.ends[:0], 0
		}
		s.enc.Row(row) // into memory: cannot fail
		s.ends = append(s.ends, len(s.out))
		i = len(s.ends) - 1
		if s.bound > 0 && int64(len(s.out)) > s.bound {
			s.ent = nil // body outgrew the per-entry bound: stop recording
		}
	} else if i == len(s.ends) {
		return nil, false
	}
	span := s.out[s.pos:s.ends[i]]
	s.pos = s.ends[i]
	s.rows++
	return span, true
}

// end returns the bytes that close the document.
func (s *spans) end() []byte {
	if s.cur != nil {
		if s.ent == nil {
			s.out, s.pos = s.out[:0], 0
		}
		s.enc.End()
	}
	return s.out[s.pos:]
}

func (s *spans) close() error {
	if s.cur == nil {
		return nil
	}
	return s.cur.Close()
}

// keep stores what a clean completion produced: a miss's snapshot as a
// new entry, or a hit's rendering, copied to its length, as its entry's
// body.
func (s *spans) keep(c *resultcache.Cache, q string) {
	switch {
	case s.snap != nil:
		c.Put(q, &resultcache.Entry{Ask: s.ask, Snap: s.snap}, s.vec)
	case s.ent != nil:
		c.Record(q, s.ent, s.format, &resultcache.Body{Bytes: bytes.Clone(s.out), Ends: s.ends})
	}
}

// appendWriter is an io.Writer appending to itself.
type appendWriter []byte

func (a *appendWriter) Write(p []byte) (int, error) {
	*a = append(*a, p...)
	return len(p), nil
}

// recordMiss lands a completed (or failed) evaluation in the telemetry:
// outcome miss or error, with the plan rendered — Explain parses and
// plans but does not evaluate — only for queries the slow-query log will
// actually keep.
func (ep *Endpoint) recordMiss(traceID, q string, rows int, elapsed time.Duration, failed bool) {
	tel := ep.Metrics
	if tel == nil {
		return
	}
	outcome := "miss"
	if failed {
		outcome = "error"
	}
	plan := ""
	if tel.Queries != nil && (failed || elapsed >= tel.SlowQuery) {
		plan, _ = ep.store.Explain(q) // a query that fails to plan logs without one
	}
	tel.recordQuery(traceID, q, outcome, rows, elapsed, plan)
}

func (ep *Endpoint) serveUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		ep.count(0, true)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	u, err := requestText(w, r, "update", "application/sparql-update")
	if err != nil || u == "" {
		ep.count(0, true)
		http.Error(w, "missing update", http.StatusBadRequest)
		return
	}
	start := time.Now()
	st, err := ep.store.Update(u)
	if err != nil {
		ep.count(0, true)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ep.count(0, false)
	w.Header().Set("Content-Type", "application/json")
	setElapsed(w, start)
	_ = json.NewEncoder(w).Encode(st)
}

func (ep *Endpoint) serveExplain(w http.ResponseWriter, r *http.Request) {
	q, err := requestText(w, r, "query", "application/sparql-query")
	if err != nil || q == "" {
		ep.count(0, true)
		http.Error(w, "missing query", http.StatusBadRequest)
		return
	}
	var plan string
	// analyze=1 or analyze=true, in the form or the query string.
	if v := r.Form.Get("analyze"); v == "1" || v == "true" {
		// ANALYZE evaluates under the store's read locks, so it queues
		// for admission like a miss; a plain EXPLAIN only plans.
		ctx := r.Context()
		if ep.QueryTimeout > 0 {
			var cancel func()
			ctx, cancel = context.WithTimeout(ctx, ep.QueryTimeout)
			defer cancel()
		}
		if !ep.admit(ctx, w, r.Header.Get(obs.RequestIDHeader), q) {
			return
		}
		if ep.Admission != nil {
			defer ep.Admission.Release()
		}
		plan, err = ep.store.ExplainAnalyze(ctx, q)
	} else {
		plan, err = ep.store.Explain(q)
	}
	if err != nil {
		ep.count(0, true)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ep.count(0, false)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, plan)
}

func (ep *Endpoint) serveStats(w http.ResponseWriter, r *http.Request) {
	type dictStats struct {
		Entries int `json:"entries"`
		Bytes   int `json:"bytes"`
	}
	doc := struct {
		Triples     int                `json:"triples"`
		Store       Stats              `json:"store"`
		Dict        dictStats          `json:"dictionary"`
		Endpoint    EndpointStats      `json:"endpoint"`
		ResultCache *resultcache.Stats `json:"result_cache,omitempty"`
		Admission   *AdmissionStats    `json:"admission,omitempty"`
		Shards      []ShardStat        `json:"shards,omitempty"`
	}{
		Triples:  ep.store.Len(),
		Store:    ep.store.Stats(),
		Endpoint: ep.Stats(),
		Shards:   ep.store.ShardStats(),
	}
	doc.Dict.Entries, doc.Dict.Bytes = ep.store.DictStats()
	if ep.Results != nil {
		rc := ep.Results.Stats()
		doc.ResultCache = &rc
	}
	if ep.Admission != nil {
		ad := ep.Admission.Stats()
		doc.Admission = &ad
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(doc)
}

// Media types the endpoint can render a result set in, in preference
// order (the first is the default for absent or fully-wildcard Accept).
const (
	mediaJSON = "application/sparql-results+json"
	mediaTSV  = "text/tab-separated-values"
)

var resultMediaTypes = []string{mediaJSON, mediaTSV}

// negotiateFormat resolves the result media type for a query request.
// An explicit format= parameter (json or tsv) overrides everything;
// otherwise the Accept header is parsed with q-values and matched
// against the supported set, wildcards honoured and specificity
// breaking q ties (an exact type beats text/* beats */*). An absent
// Accept header means JSON. ok is false when the client asked only for
// types the endpoint cannot produce — the caller answers 406 listing
// the supported set.
func negotiateFormat(r *http.Request) (media string, ok bool) {
	switch r.Form.Get("format") {
	case "tsv":
		return mediaTSV, true
	case "json":
		return mediaJSON, true
	case "":
	default:
		return "", false
	}
	accept := strings.TrimSpace(r.Header.Get("Accept"))
	if accept == "" {
		return mediaJSON, true
	}
	best, bestQ, bestSpec := "", -1.0, -1
	for _, part := range strings.Split(accept, ",") {
		fields := strings.Split(part, ";")
		pat := strings.ToLower(strings.TrimSpace(fields[0]))
		if pat == "" {
			continue
		}
		q := 1.0
		for _, p := range fields[1:] {
			if v, isQ := strings.CutPrefix(strings.TrimSpace(p), "q="); isQ {
				if parsed, err := strconv.ParseFloat(v, 64); err == nil {
					q = parsed
				}
			}
		}
		if q <= 0 {
			continue
		}
		for _, m := range resultMediaTypes {
			spec, match := mediaMatch(pat, m)
			if match && (q > bestQ || (q == bestQ && spec > bestSpec)) {
				best, bestQ, bestSpec = m, q, spec
			}
		}
	}
	return best, best != ""
}

// mediaMatch reports whether the Accept pattern covers the concrete
// media type, and how specifically (2 exact, 1 subtype wildcard, 0
// full wildcard).
func mediaMatch(pat, media string) (spec int, ok bool) {
	switch {
	case pat == media:
		return 2, true
	case pat == "*/*":
		return 0, true
	case strings.HasSuffix(pat, "/*"):
		return 1, strings.HasPrefix(media, pat[:len(pat)-1])
	}
	return 0, false
}
