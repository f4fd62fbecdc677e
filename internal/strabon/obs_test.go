package strabon

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/resultcache"
)

// newObsEndpoint builds a loaded endpoint with result cache, admission
// and telemetry wired — the full serving tier under observation.
func newObsEndpoint(t *testing.T) (*Endpoint, *Store) {
	t.Helper()
	s := New()
	if _, err := s.LoadTurtle(fixtureTurtle); err != nil {
		t.Fatal(err)
	}
	return obsEndpointOver(s), s
}

func obsEndpointOver(st *Store) *Endpoint {
	ep := NewEndpoint(st)
	ep.Results = resultcache.New(64, 1<<20)
	ep.Admission = NewAdmission(4, 16)
	EnableTelemetry(ep, obs.NewRegistry(), obs.NewQueryLog(32))
	return ep
}

func obsGet(t *testing.T, srv *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestStatsJSONShape(t *testing.T) {
	ep, _ := newObsEndpoint(t)
	srv := httptest.NewServer(ep)
	defer srv.Close()

	q := url.QueryEscape(`SELECT ?h WHERE { ?h a noa:Hotspot . }`)
	for i := 0; i < 2; i++ { // miss then hit
		if code, _, _ := obsGet(t, srv, "/sparql?query="+q); code != 200 {
			t.Fatalf("query -> %d", code)
		}
	}

	code, body, _ := obsGet(t, srv, "/stats")
	if code != 200 {
		t.Fatalf("/stats -> %d", code)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"triples", "store", "dictionary", "endpoint", "result_cache", "admission"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("/stats lacks %q: %s", key, body)
		}
	}
	var dict struct{ Entries, Bytes int }
	if err := json.Unmarshal(doc["dictionary"], &dict); err != nil || dict.Entries == 0 || dict.Bytes == 0 {
		t.Fatalf("dictionary = %s (%v), want the store's term count and bytes", doc["dictionary"], err)
	}
	var rc resultcache.Stats
	if err := json.Unmarshal(doc["result_cache"], &rc); err != nil {
		t.Fatal(err)
	}
	if rc.Hits != 1 || rc.Misses != 1 {
		t.Fatalf("result cache hits=%d misses=%d, want 1/1", rc.Hits, rc.Misses)
	}
	var ad AdmissionStats
	if err := json.Unmarshal(doc["admission"], &ad); err != nil {
		t.Fatal(err)
	}
	if ad.Admitted != 1 { // only the miss passed the gate
		t.Fatalf("admitted = %d, want 1", ad.Admitted)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ep, _ := newObsEndpoint(t)
	srv := httptest.NewServer(ep)
	defer srv.Close()

	hot := url.QueryEscape(`SELECT ?h WHERE { ?h a noa:Hotspot . }`)
	obsGet(t, srv, "/sparql?query="+hot)                                         // miss
	obsGet(t, srv, "/sparql?query="+hot)                                         // hit
	obsGet(t, srv, "/sparql?query="+url.QueryEscape(`SELECT ?x WHERE { broken`)) // error
	obsGet(t, srv, "/stats")

	code, body, hdr := obsGet(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics -> %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		`strabon_query_seconds_count{outcome="miss"} 1`,
		`strabon_query_seconds_count{outcome="hit"} 1`,
		`strabon_query_seconds_count{outcome="error"} 1`,
		`strabon_query_seconds_bucket{outcome="miss",le="+Inf"} 1`,
		`strabon_http_requests_total{path="/sparql"} 3`,
		`strabon_http_requests_total{path="/stats"} 1`,
		"strabon_result_rows_total 4", // 2 rows on the miss + 2 replayed on the hit
		"strabon_result_cache_hits_total 1",
		"strabon_result_cache_misses_total 2", // the broken query misses the cache before failing to parse
		"strabon_admission_admitted_total 2",  // ...and passes the admission gate too
		"strabon_admission_wait_seconds_count 2",
		"strabon_store_triples 8",
		"# TYPE strabon_dict_entries gauge",
		`strabon_time_index_entries{store="static"} 0`,
		`strabon_time_index_entries{store="s0"} 0`,
		`strabon_shard_triples{shard="static"} 8`,
		`strabon_shard_triples{shard="s0"} 0`,
		"# TYPE strabon_dict_bytes gauge",
		"# TYPE strabon_query_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if t.Failed() {
		t.Log(body)
	}
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9+.eEInf-]+$`)
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}

	// The scrape declares every family a dashboard names, the per-shard
	// ones included.
	for _, family := range []string{
		"strabon_query_seconds", "strabon_http_requests_total", "strabon_result_rows_total",
		"strabon_result_cache_hits_total", "strabon_admission_admitted_total",
		"strabon_store_triples", "strabon_dict_entries", "strabon_dict_bytes",
		"strabon_shard_triples", "strabon_shard_generation", "strabon_time_index_entries",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("/metrics does not declare %s", family)
		}
	}
}

func TestTraceIDAndSlowQueryLog(t *testing.T) {
	ep, _ := newObsEndpoint(t)
	srv := httptest.NewServer(ep)
	defer srv.Close()

	// Inbound X-Request-Id is echoed and lands in the slow-query log
	// (SlowQuery 0 records every miss).
	req, _ := http.NewRequest(http.MethodGet,
		srv.URL+"/sparql?query="+url.QueryEscape(`SELECT ?h WHERE { ?h a noa:Hotspot . }`), nil)
	req.Header.Set(obs.RequestIDHeader, "trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "trace-42" {
		t.Fatalf("trace id not echoed: %q", got)
	}

	// A minted ID appears when the client sends none.
	code, _, hdr := obsGet(t, srv, "/stats")
	if code != 200 || hdr.Get(obs.RequestIDHeader) == "" {
		t.Fatalf("no minted trace id (code %d)", code)
	}

	code, body, _ := obsGet(t, srv, "/debug/queries")
	if code != 200 {
		t.Fatalf("/debug/queries -> %d", code)
	}
	var recs []obs.QueryRecord
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("slow-query log has %d records, want 1: %s", len(recs), body)
	}
	if recs[0].TraceID != "trace-42" || recs[0].Outcome != "miss" || recs[0].Rows != 2 {
		t.Fatalf("record = %+v", recs[0])
	}
	if recs[0].PlanDigest == "" {
		t.Fatal("no plan digest on logged miss")
	}
	if recs[0].AccessPath != "join[bind]" {
		t.Fatalf("access path of a type scan = %q, want join[bind]", recs[0].AccessPath)
	}

	// A windowed query is logged under the access path it took instead.
	obsGet(t, srv, "/sparql?query="+url.QueryEscape(`SELECT ?h WHERE { ?h noa:hasAcquisitionDateTime ?at .
  FILTER( str(?at) >= "2007-08-24T18:00:00" ) }`))
	_, body, _ = obsGet(t, srv, "/debug/queries")
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].AccessPath != "scan[time-range]" {
		t.Fatalf("windowed query not logged as a time-range scan: %s", body)
	}
}

func TestExplainAnalyzeEndpoint(t *testing.T) {
	ep, _ := newObsEndpoint(t)
	srv := httptest.NewServer(ep)
	defer srv.Close()

	q := url.QueryEscape(`SELECT ?h ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . }`)
	code, body, _ := obsGet(t, srv, "/explain?analyze=1&query="+q)
	if code != 200 {
		t.Fatalf("/explain?analyze=1 -> %d: %s", code, body)
	}
	for _, want := range []string{"shard union: single evaluation over static+1 slices (analyze)", "actual rows=", "total: rows=2"} {
		if !strings.Contains(body, want) {
			t.Errorf("analyze output lacks %q:\n%s", want, body)
		}
	}

	// Plain explain is unchanged — no actuals.
	code, body, _ = obsGet(t, srv, "/explain?query="+q)
	if code != 200 || strings.Contains(body, "actual rows=") {
		t.Fatalf("plain explain grew actuals (code %d):\n%s", code, body)
	}
}

func TestStoreExplainAnalyze(t *testing.T) {
	s := New()
	if _, err := s.LoadTurtle(fixtureTurtle); err != nil {
		t.Fatal(err)
	}
	out, err := s.ExplainAnalyze(context.Background(), `SELECT ?h WHERE { ?h a noa:Hotspot . }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "actual rows=2") || !strings.Contains(out, "total: rows=2") {
		t.Fatalf("analyze output:\n%s", out)
	}

	ask, err := s.ExplainAnalyze(context.Background(), `ASK { ?h a noa:Hotspot }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ask, "slices (analyze)") || !strings.Contains(ask, "total: ask=true") {
		t.Fatalf("ask analyze output:\n%s", ask)
	}

	if _, err := s.ExplainAnalyze(context.Background(), `INSERT DATA { noa:x a noa:Hotspot . }`); err == nil {
		t.Fatal("update accepted by ExplainAnalyze")
	}

	// The analyze evaluation released its read lock: a write must succeed.
	if _, err := s.Update(`INSERT DATA { noa:h9 a noa:Hotspot . }`); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsScrapeRaces scrapes /metrics concurrently with a live
// writer and live queries — the -race guarantee that collectors touch
// shared state safely.
func TestMetricsScrapeRaces(t *testing.T) {
	ep, s := newObsEndpoint(t)
	srv := httptest.NewServer(ep)
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // live writer
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Update(fmt.Sprintf(`INSERT DATA { noa:w%d a noa:Hotspot . }`, i)); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(id int) { // scrapers + queriers
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if code, body, _ := obsGet(t, srv, "/metrics"); code != 200 || !strings.Contains(body, "# TYPE") {
					t.Errorf("scrape %d/%d -> %d", id, i, code)
					return
				}
				obsGet(t, srv, "/sparql?query="+url.QueryEscape(`SELECT ?h WHERE { ?h a noa:Hotspot . }`))
			}
		}(c)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}
