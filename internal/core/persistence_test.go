package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/seviri"
	"repro/internal/strabon"
)

// TestPersistenceInvariant checks, after a day of Steps on one slice
// and on four, what Time Persistence promises about
// every virtual hotspot left in the store:
//
//   - a location with no detection for one window has no virtual hotspot
//     afterwards: a virtual hotspot at t has a detection in [t − 1h, t)
//     that interacts with its geometry;
//   - it has at least PersistenceMin such detections.
//
// The check reads the store once and does its own geometry, so it
// shares nothing with the rules but the stored triples. Under -short or
// -race it services the evening only, when the day's fires peak and
// die out.
func TestPersistenceInvariant(t *testing.T) {
	cfg := seviri.DefaultScenarioConfig()
	cfg.Days = 1
	from, span := cfg.Start, 24*time.Hour
	if testing.Short() || raceDetector {
		from, span = cfg.Start.Add(16*time.Hour), 8*time.Hour
	}
	var virtuals [][]string
	for _, tc := range []struct {
		name string
		st   *strabon.Store
	}{
		{"shards=1", strabon.New()},
		{"shards=4", strabon.NewSharded(strabon.Config{Slices: 4, Width: time.Hour, Epoch: cfg.Start})},
	} {
		svc, err := NewServiceWithStore(7, cfg, tc.st)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range seviri.AcquisitionTimes(seviri.MSG1, from, span) {
			if _, err := svc.Step(seviri.MSG1, at); err != nil {
				t.Fatal(err)
			}
		}
		virtuals = append(virtuals, checkPersistence(t, tc.name, svc))
	}
	if len(virtuals[0]) == 0 {
		t.Fatal("the day minted no virtual hotspot: nothing was checked")
	}
	if !slices.Equal(virtuals[0], virtuals[1]) {
		t.Fatalf("one slice minted %d virtual hotspots, four %d", len(virtuals[0]), len(virtuals[1]))
	}
}

// storedHotspot is one hotspot as the store holds it.
type storedHotspot struct {
	at    time.Time
	wkt   string
	shape geom.Geometry
}

// checkPersistence reports every virtual hotspot in the service's store
// that breaks the Time Persistence invariant, and returns them all as
// "time wkt" keys, sorted.
func checkPersistence(t *testing.T, name string, svc *Service) []string {
	t.Helper()
	res, err := strabon.MaterialiseQuery(context.Background(), svc.Strabon, `
SELECT ?at ?chain ?g WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at ;
     noa:isFromProcessingChain ?chain ;
     strdf:hasGeometry ?g .
}`)
	if err != nil {
		t.Fatal(err)
	}
	var virtual, detected []storedHotspot
	ac, cc, gc := res.Col("at"), res.Col("chain"), res.Col("g")
	for _, row := range res.Rows {
		at, err := time.Parse("2006-01-02T15:04:05", row[ac].Value)
		if err != nil {
			t.Fatal(err)
		}
		shape, err := geom.ParseWKT(row[gc].Value)
		if err != nil {
			t.Fatal(err)
		}
		h := storedHotspot{at: at, wkt: row[gc].Value, shape: shape}
		if row[cc].Value == "time-persistence" {
			virtual = append(virtual, h)
		} else {
			detected = append(detected, h)
		}
	}
	window, least := svc.Refiner.PersistenceWindow, svc.Refiner.PersistenceMin
	var keys []string
	for _, v := range virtual {
		n := 0
		for _, d := range detected {
			if !d.at.Before(v.at.Add(-window)) && d.at.Before(v.at) && geom.Intersects(v.shape, d.shape) {
				n++
			}
		}
		switch {
		case n == 0:
			t.Errorf("%s: virtual hotspot at %s %s: no detection in the hour before it", name, v.at.Format(time.RFC3339), v.wkt)
		case n < least:
			t.Errorf("%s: virtual hotspot at %s %s: %d detections in the hour before it, want at least %d",
				name, v.at.Format(time.RFC3339), v.wkt, n, least)
		}
		keys = append(keys, v.at.Format(time.RFC3339)+" "+v.wkt)
	}
	slices.Sort(keys)
	t.Logf("%s: %d detections, %d virtual hotspots", name, len(detected), len(virtual))
	return keys
}
