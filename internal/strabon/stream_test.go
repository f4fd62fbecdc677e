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

	"repro/internal/rdf"
)

// Tests for the cursor-based query surface: QueryStream's streaming and
// locking discipline, the generation-invalidated plan cache, and the
// endpoint's chunked responses with trailer bookkeeping.

func TestQueryStreamBasics(t *testing.T) {
	s := New()
	if _, err := s.LoadTurtle(fixtureTurtle); err != nil {
		t.Fatal(err)
	}
	cur, err := s.QueryStream(`SELECT ?h ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(cur.Vars()); got != "[h c]" {
		t.Fatalf("vars = %s", got)
	}
	n := 0
	for row, ok := cur.Next(); ok; row, ok = cur.Next() {
		if row[0].IsZero() || row[1].IsZero() {
			t.Fatalf("incomplete row %v", row)
		}
		n++
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 2 || cur.Rows() != 2 {
		t.Fatalf("rows = %d (cursor says %d), want 2", n, cur.Rows())
	}
	// Idempotent close, dead after close.
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Next(); ok {
		t.Fatal("Next after Close yielded a row")
	}

	// ASK arrives pre-materialised and holds no lock.
	ask, err := s.QueryStream(`ASK { ?h a noa:Hotspot }`)
	if err != nil {
		t.Fatal(err)
	}
	if !ask.IsAsk() {
		t.Fatal("IsAsk = false")
	}
	row, ok := ask.Next()
	if !ok || row[0].Value != "true" {
		t.Fatalf("ask row = %v (ok=%v)", row, ok)
	}
	if err := ask.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := s.QueryStream(`DELETE WHERE { ?s ?p ?o }`); err == nil {
		t.Fatal("QueryStream accepted an update")
	}
}

// TestQueryStreamHoldsLockUntilClose pins the lock discipline: a writer
// must not land while a SELECT cursor is open, and must proceed once it
// closes.
func TestQueryStreamHoldsLockUntilClose(t *testing.T) {
	s := New()
	if _, err := s.LoadTurtle(fixtureTurtle); err != nil {
		t.Fatal(err)
	}
	cur, err := s.QueryStream(`SELECT ?h WHERE { ?h a noa:Hotspot . }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Next(); !ok {
		t.Fatal("no first row")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := s.Update(`INSERT DATA { noa:locked a noa:Hotspot . }`); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
		t.Fatal("update landed while the cursor held the read lock")
	case <-time.After(20 * time.Millisecond):
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("update still blocked after cursor close")
	}
}

// TestPlanCacheHitsAndInvalidation pins the admission and generation
// discipline: a text's first compile is declined, its second cached,
// repeats hit, any mutation invalidates, and /stats-visible counters
// move accordingly.
func TestPlanCacheHitsAndInvalidation(t *testing.T) {
	s := New()
	if _, err := s.LoadTurtle(fixtureTurtle); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT ?h WHERE { ?h a noa:Hotspot . }`
	if _, err := runQuery(s, q); err != nil {
		t.Fatal(err)
	}
	ps := s.PlanStats()
	if ps.Misses != 1 || ps.Declined != 1 || ps.Entries != 0 {
		t.Fatalf("after a first sighting: %+v", ps)
	}
	for i := 0; i < 3; i++ {
		if _, err := runQuery(s, q); err != nil {
			t.Fatal(err)
		}
	}
	ps = s.PlanStats()
	if ps.Misses != 2 || ps.Hits != 2 || ps.Entries != 1 || ps.Declined != 1 {
		t.Fatalf("after repeats: %+v", ps)
	}

	// A mutation bumps the generation: the stale plan is dropped and
	// replanned once — a text seen before enters at once — then hits
	// resume.
	if _, err := s.Update(`INSERT DATA { noa:hx a noa:Hotspot . }`); err != nil {
		t.Fatal(err)
	}
	res, err := runQuery(s, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("post-update rows = %d, want 3 (stale plan served?)", len(res.Rows))
	}
	ps = s.PlanStats()
	if ps.Misses != 3 || ps.Evictions != 1 || ps.Entries != 1 {
		t.Fatalf("after invalidation: %+v", ps)
	}
	if _, err := runQuery(s, q); err != nil {
		t.Fatal(err)
	}
	if ps = s.PlanStats(); ps.Hits != 3 {
		t.Fatalf("after re-repeat: %+v", ps)
	}

	// Disabling the cache stops caching without breaking queries.
	s.SetPlanCacheSize(0)
	if _, err := runQuery(s, q); err != nil {
		t.Fatal(err)
	}
	if ps = s.PlanStats(); ps.Hits != 0 || ps.Misses != 0 {
		t.Fatalf("disabled cache counted: %+v", ps)
	}
}

// TestEndpointStreamTrailers checks streamed SELECT responses carry
// their per-request statistics as HTTP trailers (the body length is
// unknown when the status goes out) while ASK keeps plain headers.
func TestEndpointStreamTrailers(t *testing.T) {
	_, ep := endpointFixture(t)
	w := httptest.NewRecorder()
	ep.ServeHTTP(w, httptest.NewRequest(http.MethodGet,
		"/sparql?query="+url.QueryEscape(`SELECT ?h WHERE { ?h a noa:Hotspot . }`), nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	res := w.Result()
	if got := res.Header.Get("Trailer"); !strings.Contains(got, "X-Rows") {
		t.Fatalf("Trailer declaration = %q", got)
	}
	if res.Trailer.Get("X-Rows") != "2" || res.Trailer.Get("X-Elapsed-Us") == "" {
		t.Fatalf("trailers = %v", res.Trailer)
	}
	if res.Trailer.Get("X-Error") != "" {
		t.Fatalf("unexpected X-Error trailer: %v", res.Trailer)
	}

	// ASK: headers, not trailers.
	w2 := httptest.NewRecorder()
	ep.ServeHTTP(w2, httptest.NewRequest(http.MethodGet,
		"/sparql?query="+url.QueryEscape(`ASK { ?h a noa:Hotspot }`), nil))
	res2 := w2.Result()
	if res2.Header.Get("X-Rows") != "1" || res2.Header.Get("Trailer") != "" {
		t.Fatalf("ask headers = %v, trailers = %v", res2.Header, res2.Trailer)
	}
}

// TestEndpointStreamsDuringWrites streams large SELECTs while
// concurrent writers batch-insert — the served-endpoint shape of the
// acquisition pipeline's flush loop (the pipeline itself lives in
// internal/core, which depends on this package, so the writer side is
// reproduced with InsertAll batches). Run under -race in CI.
func TestEndpointStreamsDuringWrites(t *testing.T) {
	s, ep := endpointFixture(t)
	for i := 0; i < 200; i++ {
		s.InsertAll(hotspotGroup(i, float64(i%50)))
	}
	query := "/sparql?query=" + url.QueryEscape(`SELECT ?h ?g WHERE { ?h a noa:Hotspot ; strdf:hasGeometry ?g . }`)

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() { // the "pipeline": batched writes until the readers finish
		defer writer.Done()
		for i := 200; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.InsertAll(hotspotGroup(i, float64(i%50)))
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 20; i++ {
				w := httptest.NewRecorder()
				ep.ServeHTTP(w, httptest.NewRequest(http.MethodGet, query, nil))
				if w.Code != http.StatusOK {
					t.Errorf("stream status %d", w.Code)
					return
				}
				res := w.Result()
				if res.Trailer.Get("X-Error") != "" {
					t.Errorf("stream error trailer: %v", res.Trailer)
					return
				}
				// Each stream sees a consistent snapshot: at least the
				// 200 pre-loaded hotspots plus the fixture's two.
				rows, err := strconv.Atoi(res.Trailer.Get("X-Rows"))
				if err != nil || rows < 202 {
					t.Errorf("X-Rows = %q (%v), want >= 202", res.Trailer.Get("X-Rows"), err)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// BenchmarkStreamedSelect measures allocation behaviour of a 10k-row
// SELECT through the cursor path. The full/materialised variant is the
// PR-2-shaped baseline (the whole result set built before the first
// byte); full/streamed drains the cursor row by row without
// accumulating; limit10/streamed is the LIMIT pushdown case — the
// cursor stops the scan after 10 rows, so its B/op must be a small
// fraction (>= 5x lower) of the materialising baseline's.
func BenchmarkStreamedSelect(b *testing.B) {
	s := New()
	if _, err := s.LoadTurtle(fixtureTurtle); err != nil {
		b.Fatal(err)
	}
	const hotspots = 10000
	var groups [][]rdf.Triple
	for i := 0; i < hotspots; i++ {
		groups = append(groups, hotspotGroup(i, float64(i%100)))
	}
	s.InsertAll(groups...)

	const full = `SELECT ?h ?g WHERE { ?h a noa:Hotspot ; strdf:hasGeometry ?g . }`
	const limited = full + ` LIMIT 10`

	b.Run("full/materialised", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := runQuery(s, full)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) < hotspots {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
	})
	stream := func(b *testing.B, q string, want int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cur, err := s.QueryStream(q)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for _, ok := cur.Next(); ok; _, ok = cur.Next() {
				n++
			}
			if err := cur.Close(); err != nil {
				b.Fatal(err)
			}
			if n < want {
				b.Fatalf("rows = %d, want >= %d", n, want)
			}
		}
	}
	b.Run("full/streamed", func(b *testing.B) { stream(b, full, hotspots) })
	b.Run("limit10/streamed", func(b *testing.B) { stream(b, limited, 10) })
}

// TestCursorRowViewLifetime enforces the QueryCursor contract: a
// streamed Row is a view into the engine's current batch, valid
// only until the next Next. A retained view row is allowed to change
// out from under the caller; Clone is the escape hatch that owns the
// values.
func TestCursorRowViewLifetime(t *testing.T) {
	s := New()
	for i := 0; i < 300; i++ { // several batches' worth of rows
		s.InsertAll(hotspotGroup(i, float64(i%50)))
	}
	cur, err := s.QueryStreamCtx(context.Background(), `SELECT ?h ?g WHERE { ?h a noa:Hotspot ; strdf:hasGeometry ?g . }`)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	first, ok := cur.Next()
	if !ok {
		t.Fatal("no rows")
	}
	clone := first.Clone()
	firstH := first[0].Value // ?h

	// Drain the rest through the same view.
	mutated := false
	for row, more := cur.Next(); more; row, more = cur.Next() {
		if row[0].Value != firstH {
			mutated = true
		}
	}
	if !mutated {
		t.Fatal("every streamed row carried the first row's value — the view was never advanced")
	}
	// The retained view now shows some later row, not the first one...
	if first[0].Value == firstH {
		t.Fatalf("retained view row still reads %q after further Next calls; the reuse contract is not exercised", firstH)
	}
	// ...while the clone still owns the first row's values.
	if clone[0].Value != firstH {
		t.Fatalf("clone = %q, want %q", clone[0].Value, firstH)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamedSelectDuringWrites drives the batch cursor directly (no
// endpoint) while concurrent writers insert — the raw QueryStreamCtx
// shape of the flush loop. Each cursor must see a consistent snapshot
// under the store's lock discipline. Run under -race in CI.
func TestStreamedSelectDuringWrites(t *testing.T) {
	s := New()
	for i := 0; i < 200; i++ {
		s.InsertAll(hotspotGroup(i, float64(i%50)))
	}
	query := `SELECT ?h ?g WHERE { ?h a noa:Hotspot ; strdf:hasGeometry ?g . }`

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 200; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.InsertAll(hotspotGroup(i, float64(i%50)))
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 20; i++ {
				cur, err := s.QueryStreamCtx(context.Background(), query)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				rows := 0
				for _, ok := cur.Next(); ok; _, ok = cur.Next() {
					rows++
				}
				if err := cur.Close(); err != nil {
					t.Errorf("close: %v", err)
					return
				}
				if rows < 200 {
					t.Errorf("rows = %d, want >= 200", rows)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
