package shard

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/products"
	"repro/internal/rdf"
	"repro/internal/refine"
	"repro/internal/seviri"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// TestShardStreamsDuringWrites races streaming fan-out queries,
// recombined aggregates and union-view scans against a writer flushing
// acquisitions (insert + refinement, one hold) into the live slice and
// an atomic Update taking every write lock — the shard-local lock
// discipline under -race (the CI race step runs this package).
func TestShardStreamsDuringWrites(t *testing.T) {
	sh := newSharded(4)
	loadFixture(sh)

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: new products marching forward in time (always landing in
	// the "live" bucket of the moment), each stored and refined as one
	// flush.
	runner := refine.NewRunner(sh)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			at := day.Add(14*time.Hour + time.Duration(i)*5*time.Minute)
			p := &products.Product{Sensor: "MSG1", Chain: "race", AcquiredAt: at}
			p.Hotspots = append(p.Hotspots, products.Hotspot{
				ID: fmt.Sprintf("race_%d", i), Geometry: geom.NewSquare(2, 5, 0.5),
				Confidence: 1.0, AcquiredAt: at, Sensor: "MSG1", Chain: "race", Producer: "noa",
			})
			if _, err := runner.Apply([]*products.Product{p}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	queries := []string{
		// Historical window: prunes away from the live slice.
		`SELECT ?h ?g WHERE { ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?g .
  FILTER( str(?at) >= "2007-08-25T10:00:00" ) FILTER( str(?at) <= "2007-08-25T10:45:00" ) }`,
		// All-shard aggregate with recombination.
		`SELECT ?s (COUNT(?h) AS ?n) WHERE { ?h a noa:Hotspot ; noa:isDerivedFromSensor ?s ;
  noa:hasAcquisitionDateTime ?at . } GROUP BY ?s`,
		// Union-view fallback.
		`SELECT ?m WHERE { ?m a gag:Municipality . }`,
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				q := queries[(r+i)%len(queries)]
				cur, err := sh.QueryStreamCtx(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				for {
					if _, ok := cur.Next(); !ok {
						break
					}
				}
				if err := cur.Close(); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	// Atomic-update thread: every write lock, racing readers and flushes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_, err := sh.Update(`INSERT { ?h noa:isInMunicipality ?m }
WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?hg .
  ?m a gag:Municipality ; strdf:hasGeometry ?mg .
  FILTER( str(?at) >= "2007-08-25T11:00:00" ) FILTER( str(?at) <= "2007-08-25T12:00:00" )
  FILTER( strdf:anyInteract(?hg, ?mg) )
}`)
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shard race test deadlocked")
	}
}

// hotspotTriples fingerprints every triple of every hotspot in a store,
// sorted — URIs of virtual hotspots included.
func hotspotTriples(t *testing.T, st *Store) []string {
	t.Helper()
	res, err := runQuery(st, `SELECT ?h ?p ?o WHERE { ?h a noa:Hotspot ; ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = rdf.Triple{S: row[0], P: row[1], O: row[2]}.String() // ?h ?p ?o
	}
	sort.Strings(out)
	return out
}

// TestShardedPipelineMatchesSingle runs the full acquisition pipeline —
// batched flushes of insert + refinement + time persistence — over a
// one-slice store and over stores of 2, 3 and 4 slices narrower than
// the persistence window, and requires identical refined output: the
// same refined products AND the same hotspot triples, virtual hotspot
// URIs included.
func TestShardedPipelineMatchesSingle(t *testing.T) {
	cfg := seviri.DefaultScenarioConfig()
	run := func(st *Store) *core.Service {
		svc, err := core.NewServiceWithStore(42, cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		svc.Workers = 4
		// The members' time indexes must stay exact: a reader checks
		// them between flushes while the pipeline runs, and once after.
		done, failed := make(chan struct{}), make(chan error, 1)
		go func() {
			defer close(failed)
			for {
				if err := st.VerifyTimeIndexes(); err != nil {
					failed <- err
					return
				}
				select {
				case <-done:
					return
				case <-time.After(time.Millisecond):
				}
			}
		}()
		from := cfg.Start.Add(11 * time.Hour)
		err = svc.RunWindow(seviri.MSG1, from, 30*time.Minute)
		close(done)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-failed; err != nil {
			t.Fatal(err)
		}
		verifyTimeIndexes(t, st)
		return svc
	}
	one := run(strabon.New())
	rp1, err := one.RefinedProducts()
	if err != nil {
		t.Fatal(err)
	}
	k1, t1 := core.SortedHotspotKeys(rp1), hotspotTriples(t, one.Strabon)

	for _, n := range []int{2, 3, 4} {
		sharded := run(New(Config{Slices: n, Width: 10 * time.Minute, Epoch: cfg.Start}))
		if len(one.Reports) != len(sharded.Reports) {
			t.Fatalf("N=%d: report counts differ: %d vs %d", n, len(one.Reports), len(sharded.Reports))
		}
		for i := range one.Reports {
			if one.Reports[i].Refined != sharded.Reports[i].Refined {
				t.Fatalf("N=%d: acquisition %d refined count: one slice %d, N slices %d",
					n, i, one.Reports[i].Refined, sharded.Reports[i].Refined)
			}
		}
		rp2, err := sharded.RefinedProducts()
		if err != nil {
			t.Fatal(err)
		}
		if k2 := core.SortedHotspotKeys(rp2); !slices.Equal(k1, k2) {
			t.Fatalf("N=%d: refined products differ: one slice %d hotspots, N slices %d", n, len(k1), len(k2))
		}
		if t2 := hotspotTriples(t, sharded.Strabon); !slices.Equal(t1, t2) {
			t.Fatalf("N=%d: hotspot triples differ: one slice %d, N slices %d", n, len(t1), len(t2))
		}
		if one.Strabon.Len() != sharded.Strabon.Len() {
			t.Fatalf("N=%d: store sizes differ: one slice %d, N slices %d", n, one.Strabon.Len(), sharded.Strabon.Len())
		}

		// The pipeline's write patterns (flushed product inserts, rule
		// effects, virtual hotspots) must never trip the co-location
		// safety latch — fan-out has to survive real operation: once it
		// trips, every query takes the union view.
		if plan, err := sharded.Strabon.Explain(`SELECT ?h ?at WHERE { ?h noa:hasAcquisitionDateTime ?at . }`); err != nil || !strings.HasPrefix(plan, "shard fan-out") {
			t.Fatalf("N=%d: pipeline writes tripped the split latch; queries degraded to union-only (%v):\n%s", n, err, plan)
		}
	}
}

// TestNoPartialRefinementVisible is the flush contract seen from a
// dashboard: while RunWindow services a window, a reader polling the
// window's hotspots — and, separately, any hotspot touching no
// coastline, which Delete In Sea removes — never sees a row the final
// state lacks. Raw hotspots in the sea, unclipped coastal pixels and
// not-yet-confirmed confidences exist only inside a flush's hold. With
// one product per flush, every flush moves exactly one generation: the
// one of the slice (or store) it lands in.
func TestNoPartialRefinementVisible(t *testing.T) {
	cfg := seviri.DefaultScenarioConfig()
	from := cfg.Start.Add(11 * time.Hour)
	const span = 40 * time.Minute
	polls := []string{
		fmt.Sprintf(`SELECT ?h ?g ?conf ?cf WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; noa:hasConfidence ?conf ;
     noa:hasConfirmation ?cf ; strdf:hasGeometry ?g .
  FILTER( str(?at) >= "%s" ) }`, from.Format("2006-01-02T15:04:05")),
		`SELECT ?h ?g WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?g .
  OPTIONAL { ?c a coast:Coastline ; strdf:hasGeometry ?cg . FILTER( strdf:anyInteract(?g, ?cg) ) }
  FILTER( !bound(?c) ) }`,
	}
	rows := func(st *Store, q string) map[string]bool {
		res, err := runQuery(st, q)
		if err != nil {
			t.Error(err)
			return nil
		}
		out := make(map[string]bool, len(res.Rows))
		for _, row := range res.Rows {
			out[string(stsparql.RowKey(nil, row))] = true
		}
		return out
	}
	// A flush lands in the slice of its acquisition's 10-minute bucket.
	sliceOf := func(st *Store, at time.Time) int { return int(at.Sub(cfg.Start)/(10*time.Minute)) % st.Slices() }
	for name, mk := range map[string]func() *Store{
		"shard1": func() *Store { return New(Config{Slices: 1, Width: 10 * time.Minute, Epoch: cfg.Start}) },
		"shard4": func() *Store { return New(Config{Slices: 4, Width: 10 * time.Minute, Epoch: cfg.Start}) },
	} {
		for _, flush := range []int{1, 4} {
			st := mk()
			svc, err := core.NewServiceWithStore(42, cfg, st)
			if err != nil {
				t.Fatal(err)
			}
			svc.Workers, svc.FlushBatch = 4, flush
			before := memberGens(st)

			seen := make([]map[string]bool, len(polls))
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
					k := i % len(polls)
					if seen[k] == nil {
						seen[k] = make(map[string]bool)
					}
					for row := range rows(st, polls[k]) {
						seen[k][row] = true
					}
				}
			}()
			err = svc.RunWindow(seviri.MSG1, from, span)
			close(done)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}

			for k, q := range polls {
				final := rows(st, q)
				for row := range seen[k] {
					if !final[row] {
						t.Fatalf("%s flush=%d: poll %d saw a row the final state lacks (partial refinement visible): %q", name, flush, k, row)
					}
				}
			}
			if len(seen[0]) == 0 {
				t.Fatalf("%s flush=%d: the reader never saw a hotspot", name, flush)
			}

			after := memberGens(st)
			if after[0] != before[0] {
				t.Fatalf("%s flush=%d: the static store's generation moved %d -> %d", name, flush, before[0], after[0])
			}
			want := make([]uint64, len(after))
			var moved, total uint64
			for _, rep := range svc.Reports {
				want[1+sliceOf(st, rep.At)]++
				total++
			}
			for i := 1; i < len(after); i++ {
				d := after[i] - before[i]
				moved += d
				if flush == 1 && d != want[i] {
					t.Fatalf("%s: member %d generation advanced %d times over %d one-product flushes landing in it", name, i, d, want[i])
				}
			}
			if moved == 0 || moved > total {
				t.Fatalf("%s flush=%d: generations advanced %d times over %d acquisitions", name, flush, moved, total)
			}
		}
	}
}

// TestReaderComputesWhatWriterInterns is the shard-level face of the
// one-term-two-IDs hazard (stsparql's TestComputedTermKeepsOneID pins
// it deterministically): readers of the 10:00 slice compute str(?tag)
// — one literal per tag, the same for many rows — while flushes into
// the 12:00 slice intern exactly those literals into the shared
// dictionary, under locks the readers do not hold. Every DISTINCT and
// GROUP BY over the computed value, and every scan whose pattern names a
// term the flushes intern, must still answer what the untouched
// store answers. Under -race this is also the dictionary's
// appender-beside-readers contract end to end.
func TestReaderComputesWhatWriterInterns(t *testing.T) {
	const tags, perTag = 24, 40
	const ex = "http://example.org/"
	tag := func(c int) rdf.Term { return iri(fmt.Sprintf("%stag%d", ex, c)) }
	// Tags rotate from one hotspot to the next, so a scan in index order
	// meets every tag from its first batch to its last.
	var base [][]rdf.Triple
	for i := 0; i < perTag; i++ {
		for c := 0; c < tags; c++ {
			h := iri(fmt.Sprintf("%sh%d_%d", ex, c, i))
			base = append(base, []rdf.Triple{
				{S: h, P: iri(rdf.RDFType), O: iri(nsNOA + "Hotspot")},
				{S: h, P: iri(nsNOA + "hasAcquisitionDateTime"), O: rdf.NewDateTime("2007-08-25T10:15:00")},
				{S: h, P: iri(ex + "tag"), O: tag(c)},
			})
		}
	}
	const where = `?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; <` + ex + `tag> ?c .
  FILTER( str(?at) >= "2007-08-25T10:00:00" ) FILTER( str(?at) <= "2007-08-25T10:59:00" )`
	queries := []string{
		`SELECT DISTINCT (str(?c) AS ?x) WHERE { ` + where + ` }`,
		`SELECT ?x (COUNT(?h) AS ?n) WHERE { { SELECT ?h (str(?c) AS ?x) WHERE { ` + where + ` } } } GROUP BY ?x`,
		// A pattern constant the first flush interns (the note predicate),
		// in a scan OPTIONAL re-opens per hotspot: every open resolves it,
		// before the flush or after, and every one must miss — the notes
		// belong to the 12:00 slice.
		`SELECT DISTINCT ?c ?n WHERE { ` + where + ` OPTIONAL { ?h <` + ex + `note> ?n } }`,
	}
	rows := func(st *Store, q string) []string {
		res, err := runQuery(st, q)
		if err != nil {
			t.Error(err)
			return nil
		}
		out := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			out[i] = string(stsparql.RowKey(nil, row))
		}
		sort.Strings(out)
		return out
	}
	reference := strabon.New()
	reference.InsertAll(base...)
	want := make([][]string, len(queries))
	for k, q := range queries {
		if want[k] = rows(reference, q); len(want[k]) != tags {
			t.Fatalf("reference answers %d rows to query %d, want one per tag", len(want[k]), k)
		}
	}

	for name, st := range map[string]*Store{"shard1": strabon.New(), "shard4": newSharded(4)} {
		st.InsertAll(base...)
		done := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := r; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					k := i % len(queries)
					if got := rows(st, queries[k]); !slices.Equal(got, want[k]) {
						t.Errorf("%s: query %d answered %d rows beside the writer, the untouched store %d", name, k, len(got), len(want[k]))
						return
					}
				}
			}(r)
		}
		// The writer: one flush per tag into the 12:00 slice, carrying the
		// literal the readers compute for that tag.
		at := day.Add(12 * time.Hour)
		for c := 0; c < tags; c++ {
			w := iri(fmt.Sprintf("%sw%d", ex, c))
			group := []rdf.Triple{
				{S: w, P: iri(nsNOA + "hasAcquisitionDateTime"), O: rdf.NewDateTime(at.Format("2006-01-02T15:04:05"))},
				{S: w, P: iri(ex + "note"), O: rdf.NewLiteral(tag(c).Value)},
			}
			err := st.ApplyFlush(strabon.Flush{Groups: [][]rdf.Triple{group}, At: []time.Time{at}},
				func(*strabon.FlushTx) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(200 * time.Microsecond)
		}
		close(done)
		wg.Wait()
		last := fmt.Sprintf(`ASK { ?w <%snote> "%s" }`, ex, tag(tags-1).Value)
		if res, err := runQuery(st, last); err != nil || res.Rows[0][0].Value != "true" {
			t.Fatalf("%s: the flushes stored nothing the readers compute (%v)", name, err)
		}
	}
}

// TestFailedFlushLeavesTriplesUntouched pins what a failing flush
// leaves behind now that its overlay encodes into the store's own
// dictionary: the terms it interned (append-only, referenced by
// nothing) and not one triple, index entry or generation.
func TestFailedFlushLeavesTriplesUntouched(t *testing.T) {
	for name, st := range map[string]*Store{"shard1": strabon.New(), "shard4": newSharded(4)} {
		loadFixture(st)
		entries, _ := st.DictStats()
		triples := hotspotTriples(t, st)
		size, gens := st.Len(), fmt.Sprint(memberGens(st))

		at := day.Add(12 * time.Hour)
		p := &products.Product{Sensor: "MSG1", Chain: "doomed", AcquiredAt: at}
		p.Hotspots = append(p.Hotspots, products.Hotspot{
			ID: "doomed_0", Geometry: geom.NewSquare(2, 5, 0.5),
			Confidence: 1.0, AcquiredAt: at, Sensor: "MSG1", Chain: "doomed", Producer: "noa",
		})
		failure := fmt.Errorf("rule failed")
		err := st.ApplyFlush(strabon.Flush{Groups: [][]rdf.Triple{p.Triples()}, At: []time.Time{at}},
			func(tx *strabon.FlushTx) error {
				if tx.Inserted[0] == 0 {
					t.Errorf("%s: the overlay took none of the flush's triples", name)
				}
				return failure
			})
		if err != failure {
			t.Fatalf("%s: ApplyFlush = %v, want the rules' error", name, err)
		}
		if n, _ := st.DictStats(); n <= entries {
			t.Fatalf("%s: the failed flush interned nothing — its overlay no longer shares the store's dictionary?", name)
		}
		if st.Len() != size || fmt.Sprint(memberGens(st)) != gens || !slices.Equal(hotspotTriples(t, st), triples) {
			t.Fatalf("%s: a failed flush changed the store (%d -> %d triples, generations %s -> %v)",
				name, size, st.Len(), gens, memberGens(st))
		}
		verifyTimeIndexes(t, st)
	}
}

// memberGens lists the generations of a store's members (static first).
func memberGens(st *Store) []uint64 {
	var out []uint64
	for _, ss := range st.ShardStats() {
		out = append(out, ss.Gen)
	}
	return out
}
