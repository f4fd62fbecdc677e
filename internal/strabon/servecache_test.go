package strabon

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

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
// that a hit, which runs them too — recording its body or writing the
// recorded one — answers under them what a miss answers.
func TestEndpointBudgets(t *testing.T) {
	const query = `SELECT ?h WHERE { ?h a noa:Hotspot . }`
	target := "/sparql?query=" + url.QueryEscape(query)

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

	// A hit runs the budgets too — the hit that records its body and the
	// hits that write the recorded body — and answers what a miss under
	// the same budget answers.
	_, ep3 := endpointFixture(t)
	ep3.Results = resultcache.New(16, 1<<20)
	miss := get(t, ep3, target)
	rows, err := strconv.Atoi(miss.Header().Get("X-Rows"))
	if err != nil || rows < 2 || miss.Header().Get("X-Error") != "" {
		t.Fatalf("unbudgeted miss: X-Rows %q, X-Error %q", miss.Header().Get("X-Rows"), miss.Header().Get("X-Error"))
	}
	budgeted := func(ep *Endpoint, maxRows int, maxBytes int64) *httptest.ResponseRecorder {
		ep.MaxRows, ep.MaxBytes = maxRows, maxBytes
		return get(t, ep, target)
	}
	// asMiss requests under the budget from ep3 and from a fresh
	// endpoint, which can only evaluate, and wants the same answer.
	asMiss := func(what string, maxRows int, maxBytes int64) {
		t.Helper()
		_, fresh := endpointFixture(t)
		want := budgeted(fresh, maxRows, maxBytes)
		hits := ep3.Results.Stats().Hits
		got := budgeted(ep3, maxRows, maxBytes)
		if ep3.Results.Stats().Hits != hits+1 {
			t.Fatalf("%s: not a cache hit", what)
		}
		for _, h := range []string{"X-Rows", "X-Error"} {
			if got.Header().Get(h) != want.Header().Get(h) {
				t.Fatalf("%s: %s %q, a miss gives %q", what, h, got.Header().Get(h), want.Header().Get(h))
			}
		}
		if got.Body.String() != want.Body.String() {
			t.Fatalf("%s: body differs from a miss's:\n%s\n---\n%s", what, got.Body, want.Body)
		}
	}
	entry := func() *resultcache.Entry {
		ent, ok := ep3.Results.Get(query, ep3.store.GensValid)
		if !ok {
			t.Fatal("the entry is gone")
		}
		return ent
	}

	// A recording hit cut by a budget publishes nothing; the next hit
	// records. The budgets are checked before each row, so a response
	// exactly at them passes.
	asMiss("recording hit over the row budget", rows-1, 0)
	if entry().Body(resultcache.JSON) != nil {
		t.Fatal("a hit cut by its budget recorded a body")
	}
	asMiss("recording hit at both budgets", rows, int64(miss.Body.Len()))
	body := entry().Body(resultcache.JSON)
	if body == nil || string(body.Bytes) != miss.Body.String() {
		t.Fatalf("recorded body %v differs from the miss's", body)
	}

	// Hits that write the recorded body, budgeted at and around it: the
	// row count, the whole length, and one byte either side of the end
	// of the first row.
	rowEnd := int64(body.Ends[0])
	asMiss("replay at the row budget", rows, 0)
	asMiss("replay over the row budget", rows-1, 0)
	asMiss("replay at the byte budget", 0, int64(miss.Body.Len()))
	asMiss("replay a byte short of a row end", 0, rowEnd-1)
	asMiss("replay a byte past a row end", 0, rowEnd+1)
	if entry().Body(resultcache.JSON) != body {
		t.Fatal("the recorded body was replaced")
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

// TestRecordedBodyConcurrentHits races first hits on one entry — each
// rendering the snapshot and offering its bytes as the entry's body —
// beside a writer whose inserts invalidate the entry without changing
// its answer. Every response must equal a fresh evaluation, and no entry
// ever has its body in a format replaced: at most one recording is
// published per entry and format. Run under -race in CI.
func TestRecordedBodyConcurrentHits(t *testing.T) {
	s, ep := endpointFixture(t)
	for i := 0; i < 40; i++ {
		s.InsertAll(hotspotGroup(i, float64(i%20)))
	}
	ep.Results = resultcache.New(16, 1<<20)
	const query = `SELECT ?h ?g WHERE { ?h a noa:Hotspot ; strdf:hasGeometry ?g . } ORDER BY ?h`
	formats := []struct {
		name string
		f    resultcache.Format
	}{{"json", resultcache.JSON}, {"tsv", resultcache.TSV}}
	target := func(format string) string { return "/sparql?format=" + format + "&query=" + url.QueryEscape(query) }
	want := map[string]string{}
	for _, f := range formats {
		want[f.name] = get(t, NewEndpoint(s), target(f.name)).Body.String()
	}

	var mu sync.Mutex
	seen := map[*resultcache.Entry]*[2]*resultcache.Body{} // the first body seen per entry and format
	observe := func() {
		ent, ok := ep.Results.Get(query, s.GensValid)
		if !ok {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		first := seen[ent]
		if first == nil {
			first = new([2]*resultcache.Body)
			seen[ent] = first
		}
		for _, f := range formats {
			switch b := ent.Body(f.f); {
			case first[f.f] == nil:
				first[f.f] = b
			case b != first[f.f]:
				t.Errorf("%s: an entry's recorded body was replaced", f.name)
			}
		}
	}

	start := make(chan struct{})
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		<-start
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Update(fmt.Sprintf(`INSERT DATA { noa:note%d noa:hasFilename "n%d" . }`, i, i)); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			<-start
			for i := 0; i < 60; i++ {
				f := formats[(g+i)%2].name
				w := get(t, ep, target(f))
				if w.Code != http.StatusOK || w.Body.String() != want[f] || w.Header().Get("X-Error") != "" {
					t.Errorf("%s response %d differs from a fresh evaluation (status %d, X-Error %q)", f, i, w.Code, w.Header().Get("X-Error"))
					return
				}
				observe()
			}
		}(g)
	}
	close(start)
	readers.Wait()
	close(stop)
	writer.Wait()

	// Quiet: a miss, then a hit per format, leaves both bodies recorded.
	for _, f := range formats {
		get(t, ep, target(f.name))
		get(t, ep, target(f.name))
	}
	observe()
	ent, ok := ep.Results.Get(query, s.GensValid)
	if !ok || ent.Body(resultcache.JSON) == nil || ent.Body(resultcache.TSV) == nil {
		t.Fatalf("no body recorded once the writer stopped (cached %v)", ok)
	}
	if st := ep.Results.Stats(); st.Invalidations == 0 || st.Hits == 0 {
		t.Fatalf("the race did not happen: %+v", st)
	}
}

// TestRecordedBodyWithinEntryBound: a rendering larger than the cache's
// per-entry bound is served in full but not recorded, while the same
// entry's smaller rendering in the other format is.
func TestRecordedBodyWithinEntryBound(t *testing.T) {
	s, ep := endpointFixture(t)
	for i := 0; i < 100; i++ {
		s.InsertAll(hotspotGroup(i, float64(i%50)))
	}
	const query = `SELECT ?h ?g WHERE { ?h a noa:Hotspot ; strdf:hasGeometry ?g . }`
	target := func(format string) string { return "/sparql?format=" + format + "&query=" + url.QueryEscape(query) }
	// A bound between the snapshot (≈ 11 KB) and the JSON body (≈ 18 KB);
	// the TSV body is about as large as the snapshot.
	ep.Results = resultcache.New(16, 4*15000)
	miss := map[string]string{}
	for _, f := range []string{"json", "tsv"} {
		for i := 0; i < 3; i++ {
			w := get(t, ep, target(f))
			if i == 0 {
				miss[f] = w.Body.String()
			} else if w.Body.String() != miss[f] {
				t.Fatalf("%s hit %d differs from the first response", f, i)
			}
		}
	}
	ent, ok := ep.Results.Get(query, s.GensValid)
	if !ok {
		t.Fatal("the result was not cached")
	}
	if int64(len(miss["json"])) <= ep.Results.MaxEntryBytes() || int64(len(miss["tsv"])) >= ep.Results.MaxEntryBytes() {
		t.Fatalf("bodies of %d (json) and %d (tsv) bytes do not straddle the bound %d",
			len(miss["json"]), len(miss["tsv"]), ep.Results.MaxEntryBytes())
	}
	if ent.Body(resultcache.JSON) != nil || ent.Body(resultcache.TSV) == nil {
		t.Fatalf("recorded: json %v, tsv %v; want only the tsv body", ent.Body(resultcache.JSON) != nil, ent.Body(resultcache.TSV) != nil)
	}
}
