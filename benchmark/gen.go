package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/auxdata"
	"repro/internal/geom"
	"repro/internal/products"
	"repro/internal/seviri"
)

// The generator is frozen here, under the benchmark's own directory, so
// that a later change to the program cannot change the load. What the
// run seed may vary is restricted to choices that leave the amount of
// work unchanged: the sensor noise of every downlink, where in the
// region each archive hotspot sits, which historical hours the hot
// texts ask about, where the cold windows start and the order of
// requests. The world, the fires and false-alarm sources (number, size,
// timing and place) and the number of hotspots per archive product are
// constants. (With the world and scenario drawn from the seed, as
// cmd/firewatch does, the acquisition rate differs by a factor of 1.75
// between seeds 2 and 3; no bound could tell that from a regression.
// Even moving each fire by half a pixel changes the hotspot count of a
// window by 10 %.)

const (
	worldSeed = 42 // auxdata.Generate seed: the geography every run shares
	poolSeed  = 7  // draws the fixed site pools and fire templates
)

var (
	// scenarioDay is the day the live acquisitions belong to.
	scenarioDay = time.Date(2007, 8, 24, 0, 0, 0, 0, time.UTC)
	// archiveStart is the first product of the prior archive and the
	// epoch of the shard buckets: bucket h is hour h of the archive.
	archiveStart = scenarioDay.Add(-archiveHours * time.Hour)
	// liveFrom is the first live acquisition: daytime, fires active.
	liveFrom = scenarioDay.Add(8 * time.Hour)
	// writePin is the hour the serve workloads' single-hotspot writes
	// land in: bucket 50, slice 2. No hot text reads slice 2.
	writePin = scenarioDay.Add(2 * time.Hour)
)

const (
	archiveHours     = 48
	archivePerHour   = 12 // MSG1 cadence
	archiveHotspots  = 4  // per product
	archiveSitePool  = 96 // forest sites archive hotspots are drawn from
	writeSlice       = 2
	storeSlices      = 4
	fireCount        = 5
	glintCount       = 4
	agriBurnCount    = 4
	timeFmt          = "2006-01-02T15:04:05"
	coldSecondsRange = 299 // cold windows start 1..299 s after a product
)

// splitmix derives independent sub-seeds from the run seed.
func splitmix(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// sitePools are the fixed locations of the frozen world: where fires,
// glints, farmer burns and archive hotspots may sit. They depend on
// worldSeed and poolSeed only.
type sitePools struct {
	fire, glint, agri, archive []geom.Point
}

func drawPools(w *auxdata.World) sitePools {
	r := rand.New(rand.NewSource(poolSeed))
	draw := func(n int, f func(*rand.Rand) (geom.Point, bool)) []geom.Point {
		out := make([]geom.Point, 0, n)
		for len(out) < n {
			p, ok := f(r)
			if !ok {
				panic("benchmark: world has no site of a needed kind")
			}
			out = append(out, p)
		}
		return out
	}
	return sitePools{
		fire:    draw(fireCount, w.RandomForestPoint),
		glint:   draw(glintCount, w.CoastPoint),
		agri:    draw(agriBurnCount, w.RandomAgriculturalPoint),
		archive: draw(archiveSitePool, w.RandomForestPoint),
	}
}

// fireTemplate is a fire without a place.
type fireTemplate struct {
	start     time.Duration // after liveFrom; negative = already burning
	duration  time.Duration
	radiusKm  float64
	intensity float64
	smoke     bool
}

// artifactTemplate is a false-alarm source without a place.
type artifactTemplate struct {
	start, duration time.Duration
	strength        float64
}

// templates draws the fixed fires and artifacts: staggered so that the
// number burning stays roughly level over an eight-hour window.
func templates() (fires []fireTemplate, glints, burns []artifactTemplate) {
	r := rand.New(rand.NewSource(poolSeed + 1))
	for i := 0; i < fireCount; i++ {
		t := fireTemplate{
			start:     time.Duration(-150+i*75+r.Intn(30)) * time.Minute,
			duration:  time.Duration(4+r.Intn(5)) * time.Hour,
			radiusKm:  2.5 + r.Float64()*3.0,
			intensity: 38 + r.Float64()*22,
		}
		if i%4 == 3 { // too small for reliable MSG detection
			t.radiusKm = 0.3 + r.Float64()*0.5
			t.intensity = 12 + r.Float64()*8
		}
		t.smoke = t.radiusKm > 3
		fires = append(fires, t)
	}
	for i := 0; i < glintCount; i++ {
		glints = append(glints, artifactTemplate{
			start:    time.Duration(30+i*100) * time.Minute,
			duration: time.Duration(40+r.Intn(60)) * time.Minute,
			strength: 16 + r.Float64()*10,
		})
	}
	for i := 0; i < agriBurnCount; i++ {
		burns = append(burns, artifactTemplate{
			start:    time.Duration(i*110) * time.Minute,
			duration: time.Duration(1+r.Intn(3)) * time.Hour,
			strength: 25 + r.Float64()*15,
		})
	}
	return fires, glints, burns
}

// scenario places the fixed templates on the fixed sites; the run seed
// only seeds the sensor noise of the downlinks.
func scenario(w *auxdata.World, pools sitePools, seed int64) *seviri.Scenario {
	fires, glints, burns := templates()
	sc := &seviri.Scenario{Seed: splitmix(seed, 1), World: w}
	for i, t := range fires {
		p := pools.fire[i]
		start := liveFrom.Add(t.start)
		sc.Fires = append(sc.Fires, seviri.FireEvent{
			ID: i + 1, Center: p, Start: start, End: start.Add(t.duration),
			PeakRadiusKm: t.radiusKm, Intensity: t.intensity,
		})
		if t.smoke {
			sc.Artifacts = append(sc.Artifacts, seviri.Artifact{
				Kind:   seviri.ArtifactSmoke,
				Center: geom.Point{X: p.X + 0.07, Y: p.Y + 0.05},
				Start:  start.Add(30 * time.Minute), End: start.Add(t.duration),
				Strength: 18,
			})
		}
	}
	place := func(kind seviri.ArtifactKind, ts []artifactTemplate, sites []geom.Point) {
		for i := range ts {
			start := liveFrom.Add(ts[i].start)
			sc.Artifacts = append(sc.Artifacts, seviri.Artifact{
				Kind: kind, Center: sites[i],
				Start: start, End: start.Add(ts[i].duration), Strength: ts[i].strength,
			})
		}
	}
	place(seviri.ArtifactGlint, glints, pools.glint)
	place(seviri.ArtifactAgriBurn, burns, pools.agri)
	return sc
}

// archive builds the prior archive: archiveHours of MSG1 products, each
// with archiveHotspots pixels on sites the run seed draws from the
// fixed pool. Every product has the same size, so every window of the
// same length covers the same amount of data wherever it starts.
func archive(pools sitePools, seed int64) []*products.Product {
	r := rand.New(rand.NewSource(splitmix(seed, 2)))
	out := make([]*products.Product, 0, archiveHours*archivePerHour)
	for i := 0; i < archiveHours*archivePerHour; i++ {
		at := archiveStart.Add(time.Duration(i) * 5 * time.Minute)
		p := &products.Product{Sensor: "MSG1", Chain: "archive", AcquiredAt: at}
		for j, site := range r.Perm(archiveSitePool)[:archiveHotspots] {
			c := pools.archive[site]
			p.Hotspots = append(p.Hotspots, products.Hotspot{
				ID:           fmt.Sprintf("arch_%s_%d", at.Format("20060102T150405"), j),
				Geometry:     geom.NewSquare(c.X, c.Y, seviri.PixelDeg),
				Confidence:   0.5 + 0.5*float64((i+j)%2),
				AcquiredAt:   at,
				Sensor:       "MSG1",
				Chain:        "archive",
				Producer:     "noa",
				Confirmation: (i+j)%2 == 1,
			})
		}
		out = append(out, p)
	}
	return out
}

// acquisitionTimes lists n consecutive MSG1 acquisitions from liveFrom.
func acquisitionTimes(n int) []time.Time {
	return seviri.AcquisitionTimes(seviri.MSG1, liveFrom, time.Duration(n)*seviri.MSG1.Cadence)
}

// writeProduct is the single-hotspot product the serve workloads insert
// between requests: always inside the writePin hour.
func writeProduct(pools sitePools, i int) *products.Product {
	at := writePin.Add(time.Duration(i%12) * 5 * time.Minute)
	c := pools.archive[i%archiveSitePool]
	p := &products.Product{Sensor: "MSG1", Chain: "live", AcquiredAt: at}
	p.Hotspots = append(p.Hotspots, products.Hotspot{
		ID: fmt.Sprintf("w%d", i), Geometry: geom.NewSquare(c.X, c.Y, seviri.PixelDeg),
		Confidence: 1.0, AcquiredAt: at, Sensor: "MSG1", Chain: "live", Producer: "noa",
	})
	return p
}

// inputsDigest hashes everything a run of a workload feeds the program:
// scenario, archive, acquisition times and every request text in order.
func inputsDigest(seed int64, wl string) string {
	h := sha256.New()
	add := func(format string, args ...any) { fmt.Fprintf(h, format+"\n", args...) }
	in := newInputs(seed)
	sc := in.scenario(nil)
	add("noise %d", sc.Seed)
	for _, f := range sc.Fires {
		add("fire %+v", f)
	}
	for _, a := range sc.Artifacts {
		add("artifact %+v", a)
	}
	for _, p := range in.archive {
		for _, h := range p.Hotspots {
			add("archive %s %v", h.ID, h.Geometry)
		}
	}
	for _, at := range acquisitionTimes(replayAcquisitions + 1) {
		add("acquisition %s", at.Format(timeFmt))
	}
	for _, blk := range requestBlocks(newOpSource(seed), wl) {
		for c, list := range blk {
			for _, o := range list {
				add("request %d %s %d %s", c, o.class, o.write, o.text)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// requestBlocks generates, in order, every block of requests a run of
// the workload generates (warm-up blocks included).
func requestBlocks(src *opSource, wl string) [][][]op {
	var out [][][]op
	switch wl {
	case "archive-replay":
		for b := 0; b < referenceServeBlocks+1; b++ {
			out = append(out, src.block(mixReference, serveClients, referenceBlock, 0))
		}
	case "serve-hot":
		for b := 0; b < serveBlocks+1; b++ {
			out = append(out, src.block(mixHot, serveClients, hotBlock, hotWriteEvery))
		}
	case "serve-cold":
		for b := 0; b < serveBlocks+1; b++ {
			out = append(out, src.block(mixCold, serveClients, coldBlock, coldWriteEvery))
		}
	case "live-mixed":
		for b := 0; b < liveBlocks+1; b++ {
			out = append(out, src.block(mixLive, liveClients, liveRequestList, 0))
		}
	}
	return out
}
