package strabon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/resultcache"
)

func endpointFixture(t testing.TB) (*Store, *Endpoint) {
	s := New()
	if _, err := s.LoadTurtle(fixtureTurtle); err != nil {
		t.Fatal(err)
	}
	return s, NewEndpoint(s)
}

func get(t testing.TB, ep *Endpoint, target string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	ep.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
	return w
}

func TestEndpointQueryJSON(t *testing.T) {
	_, ep := endpointFixture(t)
	w := get(t, ep, "/sparql?query="+url.QueryEscape(`SELECT ?h ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . }`))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Fatalf("content type %q", ct)
	}
	if w.Header().Get("X-Rows") != "2" || w.Header().Get("X-Elapsed-Us") == "" {
		t.Fatalf("per-request stats headers: %v", w.Header())
	}
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]struct {
				Type     string `json:"type"`
				Value    string `json:"value"`
				Datatype string `json:"datatype"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, w.Body)
	}
	if len(doc.Head.Vars) != 2 || len(doc.Results.Bindings) != 2 {
		t.Fatalf("doc: %+v", doc)
	}
	b := doc.Results.Bindings[0]
	if b["h"].Type != "uri" || b["c"].Type != "literal" || b["c"].Datatype == "" {
		t.Fatalf("binding typing: %+v", b)
	}
}

func TestEndpointQueryTSV(t *testing.T) {
	_, ep := endpointFixture(t)
	w := get(t, ep, "/sparql?format=tsv&query="+url.QueryEscape(`SELECT ?h WHERE { ?h a noa:Hotspot . }`))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != 3 || lines[0] != "?h" {
		t.Fatalf("tsv:\n%s", w.Body)
	}
	if !strings.HasPrefix(lines[1], "<") {
		t.Fatalf("tsv term encoding: %q", lines[1])
	}
}

// TestEndpointHoledGeometryOperations: strdf:difference of a polygon
// with a hole and a ring nested in its body, and strdf:intersection of
// two polygons with holes, used to recurse in the clipping until the
// stack overflowed — one query took the served process down. They must
// answer.
func TestEndpointHoledGeometryOperations(t *testing.T) {
	_, ep := endpointFixture(t)
	const (
		donut = `"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (1 1, 1 3, 3 3, 3 1, 1 1))"^^strdf:WKT`
		ring  = `"POLYGON ((5 5, 7 5, 7 7, 5 7, 5 5))"^^strdf:WKT`
		holed = `"POLYGON ((2 2, 12 2, 12 12, 2 12, 2 2), (8 8, 8 9, 9 9, 9 8, 8 8))"^^strdf:WKT`
	)
	for expr, area := range map[string]string{
		"strdf:difference(" + donut + ", " + ring + ")":    "92",
		"strdf:intersection(" + donut + ", " + holed + ")": "62",
	} {
		q := `SELECT (strdf:area(` + expr + `) AS ?a) WHERE { ?h a noa:Hotspot . }`
		w := get(t, ep, "/sparql?query="+url.QueryEscape(q))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", expr, w.Code, w.Body)
		}
		if !strings.Contains(w.Body.String(), `"value":"`+area+`"`) {
			t.Errorf("%s: area is not %s: %s", expr, area, w.Body)
		}
	}
}

func TestEndpointPostForms(t *testing.T) {
	_, ep := endpointFixture(t)

	// Form-encoded query.
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/sparql",
		strings.NewReader("query="+url.QueryEscape(`ASK { ?h a noa:Hotspot . }`)))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	ep.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "true") {
		t.Fatalf("form POST: %d %s", w.Code, w.Body)
	}

	// Direct POST body.
	w2 := httptest.NewRecorder()
	req2 := httptest.NewRequest(http.MethodPost, "/sparql",
		strings.NewReader(`SELECT ?h WHERE { ?h a noa:Hotspot . }`))
	req2.Header.Set("Content-Type", "application/sparql-query")
	ep.ServeHTTP(w2, req2)
	if w2.Code != http.StatusOK || w2.Header().Get("X-Rows") != "2" {
		t.Fatalf("direct POST: %d %s", w2.Code, w2.Body)
	}

	// A direct POST reads format= and analyze= from the URL.
	w3 := httptest.NewRecorder()
	req3 := httptest.NewRequest(http.MethodPost, "/sparql?format=tsv",
		strings.NewReader(`SELECT ?h WHERE { ?h a noa:Hotspot . }`))
	req3.Header.Set("Content-Type", "application/sparql-query")
	ep.ServeHTTP(w3, req3)
	if w3.Code != http.StatusOK || !strings.HasPrefix(w3.Header().Get("Content-Type"), mediaTSV) || !strings.HasPrefix(w3.Body.String(), "?h\n") {
		t.Fatalf("direct POST format=tsv: %d %q %s", w3.Code, w3.Header().Get("Content-Type"), w3.Body)
	}
	w4 := httptest.NewRecorder()
	req4 := httptest.NewRequest(http.MethodPost, "/explain?analyze=1",
		strings.NewReader(`SELECT ?h WHERE { ?h a noa:Hotspot . }`))
	req4.Header.Set("Content-Type", "application/sparql-query")
	ep.ServeHTTP(w4, req4)
	if w4.Code != http.StatusOK || !strings.Contains(w4.Body.String(), "actual rows=") {
		t.Fatalf("direct POST analyze=1: %d %s", w4.Code, w4.Body)
	}
}

func TestEndpointUpdateAndStats(t *testing.T) {
	s, ep := endpointFixture(t)
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/update",
		strings.NewReader(`INSERT DATA { noa:hx a noa:Hotspot . }`))
	req.Header.Set("Content-Type", "application/sparql-update")
	ep.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("update: %d %s", w.Code, w.Body)
	}
	var st struct {
		Inserted int
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || st.Inserted != 1 {
		t.Fatalf("update stats: %s (%v)", w.Body, err)
	}
	if s.Len() != 9 {
		t.Fatalf("store len %d", s.Len())
	}

	// Updates must not be accepted on the query route, nor via GET.
	if w := get(t, ep, "/update?update=x"); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /update: %d", w.Code)
	}
	if w := get(t, ep, "/sparql?query="+url.QueryEscape(`DELETE WHERE { ?s ?p ?o }`)); w.Code != http.StatusBadRequest {
		t.Fatalf("update via /sparql: %d", w.Code)
	}

	sw := get(t, ep, "/stats")
	var doc struct {
		Triples  int
		Endpoint EndpointStats
	}
	if err := json.Unmarshal(sw.Body.Bytes(), &doc); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if doc.Triples != 9 || doc.Endpoint.Requests == 0 || doc.Endpoint.Errors == 0 {
		t.Fatalf("stats: %+v", doc)
	}
}

func TestEndpointExplain(t *testing.T) {
	_, ep := endpointFixture(t)
	w := get(t, ep, "/explain?query="+url.QueryEscape(`
SELECT ?h ?c WHERE {
  ?h a noa:Hotspot ; strdf:hasGeometry ?hg .
  ?c a coast:Coastline ; strdf:hasGeometry ?cg .
  FILTER( strdf:anyInteract(?hg, ?cg) )
}`))
	if w.Code != http.StatusOK {
		t.Fatalf("explain: %d %s", w.Code, w.Body)
	}
	for _, want := range []string{"select\n", "join[window class=<http://teleios.di.uoa.gr/ontologies/coastlineOntology.owl#Coastline>]", "est="} {
		if !strings.Contains(w.Body.String(), want) {
			t.Fatalf("explain missing %q:\n%s", want, w.Body)
		}
	}
}

func TestEndpointErrors(t *testing.T) {
	_, ep := endpointFixture(t)
	if w := get(t, ep, "/sparql"); w.Code != http.StatusBadRequest {
		t.Fatalf("empty query: %d", w.Code)
	}
	if w := get(t, ep, "/sparql?query=NOT+SPARQL"); w.Code != http.StatusBadRequest {
		t.Fatalf("parse error: %d", w.Code)
	}
	if w := get(t, ep, "/nope"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown route: %d", w.Code)
	}
}

// TestEndpointConcurrent hammers the endpoint from many goroutines —
// queries, explains and updates at once — validating that the HTTP layer
// inherits the store's locking discipline. Run under -race in CI.
func TestEndpointConcurrent(t *testing.T) {
	_, ep := endpointFixture(t)
	query := "/sparql?query=" + url.QueryEscape(`SELECT ?h WHERE { ?h a noa:Hotspot . }`)
	explain := "/explain?query=" + url.QueryEscape(`SELECT ?h WHERE { ?h a noa:Hotspot ; strdf:hasGeometry ?g . FILTER( strdf:area(?g) > 0.5 ) }`)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch w % 3 {
				case 0:
					if rec := get(t, ep, query); rec.Code != http.StatusOK {
						t.Errorf("query: %d", rec.Code)
						return
					}
				case 1:
					if rec := get(t, ep, explain); rec.Code != http.StatusOK {
						t.Errorf("explain: %d", rec.Code)
						return
					}
				default:
					rec := httptest.NewRecorder()
					req := httptest.NewRequest(http.MethodPost, "/update",
						strings.NewReader(fmt.Sprintf(`INSERT DATA { noa:c%d_%d a noa:Hotspot . }`, w, i)))
					req.Header.Set("Content-Type", "application/sparql-update")
					ep.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Errorf("update: %d", rec.Code)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := ep.Stats()
	if st.Requests != 240 || st.Errors != 0 {
		t.Fatalf("endpoint stats after hammering: %+v", st)
	}
}

// BenchmarkServedQueries measures concurrent endpoint read throughput:
// b.RunParallel scales the client count with GOMAXPROCS, and the store's
// read-lock discipline lets all queries evaluate in parallel. Compare
// -cpu 1,4,8 runs to see the scaling.
func BenchmarkServedQueries(b *testing.B) {
	s := New()
	if _, err := s.LoadTurtle(fixtureTurtle); err != nil {
		b.Fatal(err)
	}
	// A store resembling a serviced window: many hotspots to scan.
	for i := 0; i < 300; i++ {
		s.InsertAll(hotspotGroup(i, float64(i%50)))
	}
	ep := NewEndpoint(s)
	target := "/sparql?query=" + url.QueryEscape(`
SELECT ?h WHERE {
  ?h a noa:Hotspot ; strdf:hasGeometry ?g .
  FILTER( strdf:anyInteract(?g, "POLYGON ((10 0, 20 0, 20 3, 10 3, 10 0))"^^strdf:WKT) )
}`)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			w := httptest.NewRecorder()
			ep.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body)
			}
		}
	})
	b.ReportMetric(float64(ep.Stats().Rows)/float64(b.N), "rows/req")
}

// BenchmarkCachedReplay is one result-cache hit through the endpoint —
// the serving tier's hot path: the request parsed and the entry's
// recorded JSON body written — over a hundred-row answer. The first
// timed hit is the one that renders the snapshot through the JSON
// encoder and records that body. CI gates its allocs/op at
// -benchtime=3x, recording hit included.
func BenchmarkCachedReplay(b *testing.B) {
	s, ep := endpointFixture(b)
	for i := 0; i < 100; i++ {
		s.InsertAll(hotspotGroup(i, float64(i%50)))
	}
	ep.Results = resultcache.New(16, 1<<20)
	target := "/sparql?query=" + url.QueryEscape(`SELECT ?h ?g WHERE { ?h a noa:Hotspot ; strdf:hasGeometry ?g . }`)
	if w := get(b, ep, target); w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		ep.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	if st := ep.Results.Stats(); st.Hits != uint64(b.N) {
		b.Fatalf("%d of %d requests hit the cache", st.Hits, b.N)
	}
}

func TestEndpointAcceptNegotiation(t *testing.T) {
	_, ep := endpointFixture(t)
	query := "/sparql?query=" + url.QueryEscape(`SELECT ?h WHERE { ?h a noa:Hotspot . }`)

	do := func(accept, format string) *httptest.ResponseRecorder {
		t.Helper()
		target := query
		if format != "" {
			target += "&format=" + format
		}
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, target, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		ep.ServeHTTP(w, req)
		return w
	}

	cases := []struct {
		name, accept, format string
		code                 int
		contentType          string // prefix match
	}{
		{"default is JSON", "", "", http.StatusOK, mediaJSON},
		{"exact TSV", mediaTSV, "", http.StatusOK, mediaTSV},
		{"exact JSON", mediaJSON, "", http.StatusOK, mediaJSON},
		{"full wildcard is JSON", "*/*", "", http.StatusOK, mediaJSON},
		{"text wildcard is TSV", "text/*", "", http.StatusOK, mediaTSV},
		{"q-values rank", mediaJSON + ";q=0.3, " + mediaTSV + ";q=0.9", "", http.StatusOK, mediaTSV},
		{"specific beats wildcard at same q", "*/*, " + mediaTSV, "", http.StatusOK, mediaTSV},
		{"q=0 excludes", mediaTSV + ";q=0, */*", "", http.StatusOK, mediaJSON},
		{"browser-style falls through to JSON", "text/html;q=0.9, */*;q=0.8", "", http.StatusOK, mediaJSON},
		{"format param overrides Accept", mediaJSON, "tsv", http.StatusOK, mediaTSV},
		{"unsupported only is 406", "application/xml", "", http.StatusNotAcceptable, ""},
		{"unknown format param is 406", "", "csv", http.StatusNotAcceptable, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(tc.accept, tc.format)
			if w.Code != tc.code {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.code, w.Body)
			}
			if tc.code == http.StatusNotAcceptable {
				if !strings.Contains(w.Body.String(), mediaJSON) || !strings.Contains(w.Body.String(), mediaTSV) {
					t.Fatalf("406 body should list supported types: %s", w.Body)
				}
				return
			}
			if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, tc.contentType) {
				t.Fatalf("content type %q, want prefix %q", ct, tc.contentType)
			}
		})
	}
}
