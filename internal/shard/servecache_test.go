package shard

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/products"
	"repro/internal/rdf"
	"repro/internal/resultcache"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// The serving-tier suite over the sharded store: cached replays must be
// byte-identical to fresh evaluations across the whole equivalence
// corpus, and a live writer must invalidate exactly the entries whose
// slices it touches.

func serve(t testing.TB, ep *strabon.Endpoint, target string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	ep.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
	return w
}

// TestServedCacheByteIdentity requests every corpus query twice per
// format over an endpoint with the result cache on: the second response
// (the replay) must match the first byte for byte — body, headers and
// trailers — with only X-Elapsed-Us allowed to differ. Cacheable plans
// must actually hit; the SAMPLE plan must never be stored.
func TestServedCacheByteIdentity(t *testing.T) {
	sh := newSharded(4)
	loadFixture(sh)

	type q struct{ name, query string }
	var queries []q
	for _, tc := range corpus {
		queries = append(queries, q{tc.name, tc.query})
	}
	for _, tc := range askCorpus {
		queries = append(queries, q{tc.name, tc.query})
	}
	queries = append(queries, q{"sample-uncacheable",
		`SELECT (SAMPLE(?c) AS ?s) WHERE { ?h noa:hasConfidence ?c . }`})

	for _, format := range []string{"json", "tsv"} {
		// A fresh endpoint (and cache) per format so each pair is one
		// miss followed by one replay of that miss.
		ep := strabon.NewEndpoint(sh)
		ep.Results = resultcache.New(256, 32<<20)
		for _, tc := range queries {
			parsed, err := stsparql.Parse(tc.query, sh.Namespaces())
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			cacheable := stsparql.Cacheable(parsed)

			target := "/sparql?format=" + format + "&query=" + url.QueryEscape(tc.query)
			before := ep.Results.Stats()
			w1 := serve(t, ep, target)
			w2 := serve(t, ep, target)
			if w1.Code != http.StatusOK || w2.Code != http.StatusOK {
				t.Fatalf("%s/%s: status %d / %d: %s", tc.name, format, w1.Code, w2.Code, w1.Body)
			}
			hits := ep.Results.Stats().Hits - before.Hits
			if !cacheable {
				// An uncacheable plan (SAMPLE) may legitimately answer
				// differently per evaluation — the only contract is
				// that it is never served from the cache.
				if hits != 0 {
					t.Fatalf("%s/%s: uncacheable plan hit the cache", tc.name, format)
				}
				continue
			}
			if hits != 1 {
				t.Fatalf("%s/%s: second request was not a cache hit (%d hits)", tc.name, format, hits)
			}
			if w1.Body.String() != w2.Body.String() {
				t.Fatalf("%s/%s: replay body differs:\n%s\n---\n%s", tc.name, format, w1.Body, w2.Body)
			}
			h1, h2 := w1.Header().Clone(), w2.Header().Clone()
			h1.Del("X-Elapsed-Us")
			h2.Del("X-Elapsed-Us")
			if !reflect.DeepEqual(h1, h2) {
				t.Fatalf("%s/%s: replay headers differ:\n%v\n---\n%v", tc.name, format, h1, h2)
			}
		}
	}
}

// insertAt routes one single-hotspot product through the write path.
// The shape reuses the fixture's predicates and types, so inserting
// into an already-populated slice bumps only that slice's generation —
// never the routing-knowledge generation that would invalidate every
// fan-out entry.
func insertAt(sh *Store, at time.Time, id string) {
	p := &products.Product{Sensor: "MSG1", Chain: "test", AcquiredAt: at}
	p.Hotspots = append(p.Hotspots, products.Hotspot{
		ID: id, Geometry: geom.NewSquare(3, 5, 0.5),
		Confidence: 1.0, AcquiredAt: at, Sensor: "MSG1", Chain: "test",
		Producer: "noa", Confirmation: true,
	})
	sh.InsertAll(p.Triples())
}

// TestShardResultCacheInvalidation pins the serving tier's core claim
// against a live writer: writes into one slice invalidate exactly the
// entries that read it. The fixture populates hours 10-13 (slices
// 2,3,0,1 on a 4-slice store); the writer appends inside bucket 13 —
// slice 1 — so the hour-10 window keeps hitting while the hour-13
// window re-evaluates after every write. Runs in the -race CI step with
// the writer and two query clients concurrent.
func TestShardResultCacheInvalidation(t *testing.T) {
	sh := newSharded(4)
	loadFixture(sh)
	ep := strabon.NewEndpoint(sh)
	ep.Results = resultcache.New(64, 8<<20)

	window := func(lo, hi string) string {
		return "/sparql?query=" + url.QueryEscape(fmt.Sprintf(`SELECT ?h ?g WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?g .
  FILTER( str(?at) >= "%s" )
  FILTER( str(?at) <= "%s" )
}`, lo, hi))
	}
	hot := window("2007-08-25T10:00:00", "2007-08-25T10:59:00")  // slice 2
	live := window("2007-08-25T13:00:00", "2007-08-25T13:59:00") // slice 1

	// Sequential phase: exact invalidation semantics.
	first := serve(t, ep, live)
	if first.Code != http.StatusOK {
		t.Fatalf("live miss: %d %s", first.Code, first.Body)
	}
	serve(t, ep, live)
	serve(t, ep, hot)
	serve(t, ep, hot)
	st0 := ep.Results.Stats()
	if st0.Hits != 2 || st0.Invalidations != 0 {
		t.Fatalf("warm-up stats: %+v", st0)
	}

	insertAt(sh, day.Add(13*time.Hour+50*time.Minute), "seq0")

	after := serve(t, ep, live)
	st1 := ep.Results.Stats()
	if st1.Invalidations != st0.Invalidations+1 {
		t.Fatalf("write into slice 1 did not invalidate the live entry: %+v", st1)
	}
	if first.Header().Get("X-Rows") == after.Header().Get("X-Rows") {
		t.Fatalf("re-evaluation missed the written row: %s rows before and after",
			after.Header().Get("X-Rows"))
	}
	if w := serve(t, ep, hot); w.Code != http.StatusOK {
		t.Fatalf("hot after write: %d", w.Code)
	}
	st2 := ep.Results.Stats()
	if st2.Hits != st1.Hits+1 || st2.Invalidations != st1.Invalidations {
		t.Fatalf("hot entry did not survive the slice-1 write: %+v", st2)
	}

	// Concurrent phase: writer + two clients race over the endpoint.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			insertAt(sh, day.Add(13*time.Hour+50*time.Minute+time.Duration(i%500)*time.Second), fmt.Sprintf("con%d", i))
			time.Sleep(200 * time.Microsecond)
		}
	}()
	hotHitsBefore := ep.Results.Stats().Hits
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				target := hot
				if i%2 == 1 {
					target = live
				}
				if w := serve(t, ep, target); w.Code != http.StatusOK {
					t.Errorf("concurrent query: %d %s", w.Code, w.Body)
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(done)
	wg.Wait()

	st3 := ep.Results.Stats()
	if st3.Hits <= hotHitsBefore {
		t.Fatalf("hot entries stopped hitting under the write stream: %+v", st3)
	}

	// The cache never serves a stale live window: a final read must see
	// every concurrent insert.
	want, err := runQuery(sh, `SELECT (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  FILTER( str(?at) >= "2007-08-25T13:00:00" )
  FILTER( str(?at) <= "2007-08-25T13:59:00" )
}`)
	if err != nil {
		t.Fatal(err)
	}
	final := serve(t, ep, live)
	if got := final.Header().Get("X-Rows"); got != at(want, 0, "n").Value {
		t.Fatalf("served live window has %s rows, store has %s", got, at(want, 0, "n").Value)
	}
}

// TestShardCacheRefusesZonedLexicalWindow pins the one invalidation only
// the routing-knowledge generation can deliver. A lexical window's
// cached vector lists the static store and the window's slices; a zoned
// literal that lexically falls inside the window routes by its instant
// to a slice the vector does not list, so no listed generation moves.
// The literal turns the slice's time run non-canonical, which stops
// lexical windows from pruning — the cached entry must go with it.
func TestShardCacheRefusesZonedLexicalWindow(t *testing.T) {
	sh := newSharded(4)
	loadFixture(sh)
	ep := strabon.NewEndpoint(sh)
	ep.Results = resultcache.New(64, 8<<20)
	target := "/sparql?format=tsv&query=" + url.QueryEscape(`SELECT ?h ?at WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  FILTER( str(?at) >= "2007-08-25T10:50:00" ) FILTER( str(?at) <= "2007-08-25T11:10:00" ) }`)

	serve(t, ep, target)
	serve(t, ep, target)
	if st := ep.Results.Stats(); st.Hits != 1 {
		t.Fatalf("second request was not a hit: %+v", st)
	}

	// 11:00+02:00 is 09:00 UTC: bucket 9, slice 1. The window's buckets
	// are 10 and 11, slices 2 and 3.
	sh.InsertAll([]rdf.Triple{
		{S: iri("http://example.org/zoned"), P: iri(rdf.RDFType), O: iri(nsNOA + "Hotspot")},
		{S: iri("http://example.org/zoned"), P: iri(nsNOA + "hasAcquisitionDateTime"),
			O: rdf.NewDateTime("2007-08-25T11:00:00+02:00")},
	})
	before := ep.Results.Stats()
	w := serve(t, ep, target)
	if w.Code != http.StatusOK {
		t.Fatalf("third request: %d %s", w.Code, w.Body)
	}
	if st := ep.Results.Stats(); st.Hits != before.Hits {
		t.Fatalf("third request hit the cache after the zoned insert: %+v", st)
	}
	if !strings.Contains(w.Body.String(), "http://example.org/zoned") {
		t.Fatalf("third request misses the zoned hotspot:\n%s", w.Body)
	}
}

// TestShardObservedRangePruning checks satellite fan-out pruning by
// observed slice contents: with data only in hours 10-11 (slices 2,3),
// a window spanning hours 10-13 keeps only the populated slices, a
// window over empty slices prunes to nothing, and deleting one hour's
// acquisitions drops its slice as well — all visibly in Explain and
// without changing results.
func TestShardObservedRangePruning(t *testing.T) {
	one := strabon.New()
	sh := newSharded(4)
	for _, st := range []*Store{one, sh} {
		st.LoadTriples(staticTriples())
		for _, p := range fixtureProducts()[:8] { // 10:00-11:45 only
			st.InsertAll(p.Triples())
		}
	}

	wide := `SELECT ?h ?g WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?g .
  FILTER( str(?at) >= "2007-08-25T10:00:00" )
  FILTER( str(?at) <= "2007-08-25T13:59:00" )
}`
	out, err := sh.Explain(wide)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shard fan-out: 2/4 slices") ||
		!strings.Contains(out, "observed time ranges prune") {
		t.Fatalf("wide window not pruned by observed ranges:\n%s", out)
	}
	want, err := runQuery(one, wide)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runQuery(sh, wide)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, "observed-pruned-window", want, got, false)

	empty := `SELECT (COUNT(*) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  FILTER( str(?at) >= "2007-08-25T12:00:00" )
  FILTER( str(?at) <= "2007-08-25T12:59:00" )
}`
	out, err = sh.Explain(empty)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shard fan-out: 0/4 slices") {
		t.Fatalf("window over empty slices not pruned to zero:\n%s", out)
	}
	res, err := runQuery(sh, empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || at(res, 0, "n").Value != "0" {
		t.Fatalf("empty-window count: %+v", res.Rows)
	}

	// Ranges follow deletions: with the 11:00-11:45 acquisitions gone,
	// slice 3 holds no acquisition time and the wide window drops it too.
	gone := `DELETE { ?x ?p ?o } WHERE { ?x noa:hasAcquisitionDateTime ?at ; ?p ?o .
  FILTER( str(?at) >= "2007-08-25T11:00:00" ) FILTER( str(?at) <= "2007-08-25T11:59:00" ) }`
	for _, st := range []*Store{one, sh} {
		if _, err := st.Update(gone); err != nil {
			t.Fatal(err)
		}
	}
	out, err = sh.Explain(wide)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shard fan-out: 1/4 slices [2]") {
		t.Fatalf("wide window not pruned further after the delete:\n%s", out)
	}
	want, err = runQuery(one, wide)
	if err != nil {
		t.Fatal(err)
	}
	got, err = runQuery(sh, wide)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("wide window empty after the delete")
	}
	assertEquivalent(t, "observed-pruned-window-after-delete", want, got, false)
}
