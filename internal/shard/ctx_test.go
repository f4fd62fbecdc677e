package shard

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/products"
	"repro/internal/rdf"
)

// Tests for cancellation on the sharded store: a cancelled context stops
// a union-view cursor, a fanned-out SELECT and a fanned-out aggregate at
// the next pull and releases every member read lock, so an abandoned
// client cannot block writers of the static store or the live slice.

// cancelTexts routes to each of the sharded store's routes; the test
// holds each text to the route its name gives, evaluated by one plan —
// on more than one slice: one slice evaluates every text once over the
// union view.
var cancelTexts = []struct {
	name, route, text string
}{
	{"union-view", "shard union:", `
SELECT ?h1 ?h2 WHERE {
  ?h1 noa:isDerivedFromSensor ?s .
  ?h2 noa:isDerivedFromSensor ?s .
}`},
	{"fanout-concat", "shard fan-out:", `
SELECT ?h ?at WHERE { ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at . }`},
	{"fanout-aggregate", "shard fan-out:", `
SELECT ?at (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
} GROUP BY ?at`},
}

func TestShardQueryStreamCtxCancelReleasesLocks(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		for _, tc := range cancelTexts {
			t.Run(tc.name+"/sharded"+itoa(n), func(t *testing.T) {
				sh := newSharded(n)
				loadFixture(sh)
				plan, err := sh.Explain(tc.text)
				if err != nil {
					t.Fatal(err)
				}
				route := tc.route
				if n == 1 {
					route = "shard union:"
				}
				if first, _, _ := strings.Cut(plan, "\n"); !strings.HasPrefix(first, route) || planCount(plan) != 1 {
					t.Fatalf("routed as %q to %d plans, want %q to one:\n%s", first, planCount(plan), route, plan)
				}

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cur, err := sh.QueryStreamCtx(ctx, tc.text)
				if err != nil {
					t.Fatal(err)
				}
				defer cur.Close()
				if _, ok := cur.Next(); !ok {
					t.Fatalf("no first row: %v", cur.Err())
				}
				cancel()
				if _, ok := cur.Next(); ok {
					t.Fatal("Next yielded a row after cancellation")
				}
				if err := cur.Err(); !errors.Is(err, context.Canceled) {
					t.Fatalf("Err = %v, want context.Canceled", err)
				}

				// Before Close: the cancelled cursor must already have
				// released the static store and every slice it read.
				done := make(chan struct{})
				go func() {
					defer close(done)
					sh.LoadTriples([]rdf.Triple{{
						S: iri("http://example.org/mun-late"),
						P: iri(rdf.RDFType),
						O: iri(nsGAG + "Municipality"),
					}})
					at := day.Add(13*time.Hour + 50*time.Minute)
					p := &products.Product{Sensor: "MSG1", Chain: "test", AcquiredAt: at}
					p.Hotspots = append(p.Hotspots, products.Hotspot{
						ID: "late", Geometry: geom.NewSquare(1, 5, 0.5), Confidence: 1.0,
						AcquiredAt: at, Sensor: "MSG1", Chain: "test", Producer: "noa",
					})
					sh.InsertAll(p.Triples())
				}()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("write blocked after context cancellation: read lock leaked")
				}
				if err := cur.Close(); !errors.Is(err, context.Canceled) {
					t.Fatalf("Close = %v, want context.Canceled", err)
				}
			})
		}
	}
}

func TestShardQueryStreamCtxPreCancelled(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		sh := newSharded(n)
		loadFixture(sh)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, tc := range cancelTexts {
			if _, err := sh.QueryStreamCtx(ctx, tc.text); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s on sharded%d: err = %v, want context.Canceled", tc.name, n, err)
			}
		}
	}
}
