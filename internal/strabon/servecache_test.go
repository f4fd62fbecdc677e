package strabon

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/resultcache"
)

// TestEndpointResultCache drives the serving tier over a one-slice
// store: a repeated query is served from the cache byte-for-byte, a
// write invalidates it, and /stats reports the cache counters.
func TestEndpointResultCache(t *testing.T) {
	_, ep := endpointFixture(t)
	ep.Results = resultcache.New(16, 1<<20)

	target := "/sparql?query=" + url.QueryEscape(`SELECT ?h ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . } ORDER BY ?h`)
	w1 := get(t, ep, target)
	w2 := get(t, ep, target)
	if w1.Code != http.StatusOK || w2.Code != http.StatusOK {
		t.Fatalf("status %d / %d", w1.Code, w2.Code)
	}
	if w1.Body.String() != w2.Body.String() {
		t.Fatalf("hit body differs from miss body:\n%s\n---\n%s", w1.Body, w2.Body)
	}
	if w2.Header().Get("X-Rows") != w1.Header().Get("X-Rows") {
		t.Fatalf("hit trailers differ: %v vs %v", w2.Header(), w1.Header())
	}
	if st := ep.Results.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("cache stats after replay: %+v", st)
	}

	// The cached row set is format-independent: the same entry renders
	// as TSV without a re-evaluation.
	w3 := get(t, ep, target+"&format=tsv")
	if w3.Code != http.StatusOK || !strings.HasPrefix(w3.Body.String(), "?h\t?c") {
		t.Fatalf("tsv replay: %d\n%s", w3.Code, w3.Body)
	}
	if st := ep.Results.Stats(); st.Hits != 2 {
		t.Fatalf("tsv replay missed: %+v", st)
	}

	// ASK verdicts cache too.
	ask := "/sparql?query=" + url.QueryEscape(`ASK { ?h a noa:Hotspot . }`)
	a1 := get(t, ep, ask)
	a2 := get(t, ep, ask)
	if a1.Body.String() != a2.Body.String() || !strings.Contains(a2.Body.String(), "true") {
		t.Fatalf("ask replay: %s vs %s", a1.Body, a2.Body)
	}
	if st := ep.Results.Stats(); st.Hits != 3 {
		t.Fatalf("ask replay missed: %+v", st)
	}

	// A write bumps the store generation: every entry goes stale and the
	// next lookup is an invalidation + miss, then re-caches.
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/update",
		strings.NewReader(`INSERT DATA { noa:hz a noa:Hotspot . }`))
	req.Header.Set("Content-Type", "application/sparql-update")
	ep.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("update: %d %s", w.Code, w.Body)
	}
	get(t, ep, ask)
	st := ep.Results.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("stats after write: %+v", st)
	}

	// /stats surfaces the cache and counts the traffic above.
	sw := get(t, ep, "/stats")
	if !strings.Contains(sw.Body.String(), `"result_cache"`) ||
		!strings.Contains(sw.Body.String(), `"invalidations":1`) {
		t.Fatalf("/stats missing result_cache: %s", sw.Body)
	}
}

// TestEndpointSampleUncached pins the cacheability gate end to end: a
// SAMPLE-bearing query is evaluated every time, never stored.
func TestEndpointSampleUncached(t *testing.T) {
	_, ep := endpointFixture(t)
	ep.Results = resultcache.New(16, 1<<20)
	target := "/sparql?query=" + url.QueryEscape(`SELECT (SAMPLE(?h) AS ?s) WHERE { ?h a noa:Hotspot . }`)
	get(t, ep, target)
	get(t, ep, target)
	if st := ep.Results.Stats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("SAMPLE result was cached: %+v", st)
	}
}

// TestEndpointAdmission429 saturates the gate and checks the endpoint
// answers 429 with Retry-After, then serves normally once freed — and
// that a cache hit bypasses the saturated gate entirely.
func TestEndpointAdmission429(t *testing.T) {
	_, ep := endpointFixture(t)
	ep.Results = resultcache.New(16, 1<<20)
	ep.Admission = NewAdmission(1, 0)

	target := "/sparql?query=" + url.QueryEscape(`SELECT ?h WHERE { ?h a noa:Hotspot . }`)
	warm := get(t, ep, target) // populate the cache while the gate is open
	if warm.Code != http.StatusOK {
		t.Fatalf("warm-up: %d %s", warm.Code, warm.Body)
	}

	if err := ep.Admission.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The hot query replays without an admission slot.
	if w := get(t, ep, target); w.Code != http.StatusOK {
		t.Fatalf("cache hit blocked by saturated gate: %d %s", w.Code, w.Body)
	}

	// A cold query needs a slot and is rejected with backoff advice.
	cold := "/sparql?query=" + url.QueryEscape(`SELECT ?m WHERE { ?m a gag:Municipality . }`)
	w := get(t, ep, cold)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated gate answered %d: %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After: %v", w.Header())
	}
	if st := ep.Admission.Stats(); st.Rejected != 1 {
		t.Fatalf("admission stats: %+v", st)
	}

	ep.Admission.Release()
	if w := get(t, ep, cold); w.Code != http.StatusOK {
		t.Fatalf("freed gate answered %d: %s", w.Code, w.Body)
	}

	sw := get(t, ep, "/stats")
	if !strings.Contains(sw.Body.String(), `"admission"`) ||
		!strings.Contains(sw.Body.String(), `"rejected":1`) {
		t.Fatalf("/stats missing admission: %s", sw.Body)
	}
}

// TestEndpointBudgets checks the response budgets abort the stream with
// an X-Error trailer and keep the truncated result out of the cache, and
// that a hit, which runs them too, replays a result stored under them.
func TestEndpointBudgets(t *testing.T) {
	target := "/sparql?query=" + url.QueryEscape(`SELECT ?h WHERE { ?h a noa:Hotspot . }`)

	_, ep := endpointFixture(t)
	ep.Results = resultcache.New(16, 1<<20)
	ep.MaxRows = 1
	w := get(t, ep, target)
	if !strings.Contains(w.Header().Get("X-Error"), "row budget exceeded") {
		t.Fatalf("row budget trailer: %v", w.Header())
	}
	if st := ep.Results.Stats(); st.Entries != 0 {
		t.Fatalf("truncated result cached: %+v", st)
	}

	_, ep2 := endpointFixture(t)
	ep2.MaxBytes = 8 // smaller than the first encoded row
	w2 := get(t, ep2, target)
	if !strings.Contains(w2.Header().Get("X-Error"), "byte budget exceeded") {
		t.Fatalf("byte budget trailer: %v", w2.Header())
	}

	// A hit runs the budgets too: a result stored under them replays in
	// full, with its miss's bytes.
	_, ep3 := endpointFixture(t)
	ep3.Results = resultcache.New(16, 1<<20)
	miss := get(t, ep3, target)
	rows, err := strconv.Atoi(miss.Header().Get("X-Rows"))
	if err != nil || rows < 2 || miss.Header().Get("X-Error") != "" {
		t.Fatalf("unbudgeted miss: X-Rows %q, X-Error %q", miss.Header().Get("X-Rows"), miss.Header().Get("X-Error"))
	}
	// The budgets are checked before each row, so a response exactly at
	// them passes; a hit rejects rows or bytes beyond them just the same.
	ep3.MaxRows = rows
	ep3.MaxBytes = int64(miss.Body.Len())
	hit := get(t, ep3, target)
	if st := ep3.Results.Stats(); st.Hits != 1 {
		t.Fatalf("second request was not a hit: %+v", st)
	}
	if hit.Header().Get("X-Error") != "" || hit.Header().Get("X-Rows") != miss.Header().Get("X-Rows") ||
		hit.Body.String() != miss.Body.String() {
		t.Fatalf("budgeted hit differs from its miss: X-Error %q X-Rows %q\n%s\n---\n%s",
			hit.Header().Get("X-Error"), hit.Header().Get("X-Rows"), hit.Body, miss.Body)
	}
	ep3.MaxRows = rows - 1
	if w := get(t, ep3, target); !strings.Contains(w.Header().Get("X-Error"), "row budget exceeded") {
		t.Fatalf("hit over the row budget: %v", w.Header())
	}
}

// TestExplainAnalyzeAdmission holds EXPLAIN ANALYZE, which evaluates
// under the store's read locks, to the admission gate a miss queues
// for; a plain EXPLAIN only plans and stays ungated.
func TestExplainAnalyzeAdmission(t *testing.T) {
	_, ep := endpointFixture(t)
	ep.Admission = NewAdmission(1, 0)
	if err := ep.Admission.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	target := "/explain?query=" + url.QueryEscape(`SELECT ?h WHERE { ?h a noa:Hotspot . }`)
	w := get(t, ep, target+"&analyze=1")
	if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") != "1" {
		t.Fatalf("analyze on a saturated gate: %d %v %s", w.Code, w.Header(), w.Body)
	}
	if w := get(t, ep, target); w.Code != http.StatusOK {
		t.Fatalf("plain explain on a saturated gate: %d %s", w.Code, w.Body)
	}
	ep.Admission.Release()
	if w := get(t, ep, target+"&analyze=1"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "total: rows=") {
		t.Fatalf("analyze on a free gate: %d %s", w.Code, w.Body)
	}
	if st := ep.Admission.Stats(); st.Rejected != 1 || st.Active != 0 {
		t.Fatalf("admission stats: %+v", st)
	}
}
