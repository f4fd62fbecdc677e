// Package seviri simulates the MSG/SEVIRI observation system of the
// paper: the geostationary acquisition cadence of MSG-1 (5 min) and MSG-2
// (15 min), the IR 3.9/10.8 µm radiometry with a diurnal surface cycle,
// seeded wildfire scenarios with growth and decay, and the false-alarm
// sources the paper's refinement step targets (sun glint over the sea,
// agricultural burns, smoke plumes near active fires). Acquisitions are
// emitted as raw HRIT segment files on a distorted scan grid, so the full
// chain — vault ingest, crop, georeference, classify — exercises the same
// code paths as the operational service.
//
// A Simulator computes the grid-only part of the scene (land/cover class,
// latitude terms) once; an acquisition pays for what changes with the
// instant, and its downlink is byte-identical to rendering everything
// per pixel, which oracle_test.go keeps as the oracle.
package seviri

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/auxdata"
	"repro/internal/geom"
)

// FireEvent is one wildfire of the ground truth.
type FireEvent struct {
	ID     int
	Center geom.Point
	Start  time.Time
	End    time.Time
	// PeakRadiusKm is the fire front radius at the peak of the event.
	PeakRadiusKm float64
	// Intensity is the 3.9 µm brightness-temperature excess (K) of a
	// fully burning pixel at peak.
	Intensity float64
}

// RadiusKmAt returns the footprint radius at time t: quadratic ramp to
// the peak at 60% of the event, then decay.
func (f FireEvent) RadiusKmAt(t time.Time) float64 {
	if t.Before(f.Start) || t.After(f.End) {
		return 0
	}
	total := f.End.Sub(f.Start).Seconds()
	frac := t.Sub(f.Start).Seconds() / total
	peakAt := 0.6
	if frac <= peakAt {
		x := frac / peakAt
		return f.PeakRadiusKm * x * (2 - x)
	}
	x := (frac - peakAt) / (1 - peakAt)
	return f.PeakRadiusKm * (1 - 0.8*x)
}

// ArtifactKind enumerates the false-alarm sources.
type ArtifactKind int

// Artifact kinds, matching the paper's error taxonomy.
const (
	// ArtifactGlint: daytime sun glint over the sea near the coast —
	// "hotspots occurring in the sea".
	ArtifactGlint ArtifactKind = iota
	// ArtifactAgriBurn: farmer burns on agricultural plains — "real cases
	// of fires located in big agricultural plains ... not real forest
	// fires".
	ArtifactAgriBurn
	// ArtifactSmoke: hot smoke fumes adjacent to active fires — "false
	// alarms, such as hot smoke fumes from nearby fires".
	ArtifactSmoke
)

// Artifact is one false-alarm source with a time window.
type Artifact struct {
	Kind     ArtifactKind
	Center   geom.Point
	Start    time.Time
	End      time.Time
	Strength float64 // 3.9 µm excess (K)
}

// Scenario is a full synthetic fire season fragment: ground-truth fires
// plus artifact sources, generated deterministically over a world.
type Scenario struct {
	Seed      int64
	World     *auxdata.World
	Fires     []FireEvent
	Artifacts []Artifact
}

// ScenarioConfig controls scenario generation.
type ScenarioConfig struct {
	Start time.Time
	Days  int
	// FiresPerDay controls ground-truth fire ignitions.
	FiresPerDay int
	// SmallFireFraction is the share of fires too small for reliable MSG
	// detection (MODIS still sees them) — the omission error source.
	SmallFireFraction float64
	// ArtifactsPerDay controls glint/agri-burn injections.
	ArtifactsPerDay int
}

// DefaultScenarioConfig mirrors the paper's severe-fire-days evaluation
// window (24–26 Aug 2007).
func DefaultScenarioConfig() ScenarioConfig {
	return ScenarioConfig{
		Start:             time.Date(2007, 8, 24, 0, 0, 0, 0, time.UTC),
		Days:              3,
		FiresPerDay:       8,
		SmallFireFraction: 0.25,
		ArtifactsPerDay:   6,
	}
}

// GenerateScenario builds a deterministic scenario over the world.
func GenerateScenario(w *auxdata.World, seed int64, cfg ScenarioConfig) *Scenario {
	r := rand.New(rand.NewSource(seed))
	sc := &Scenario{Seed: seed, World: w}
	id := 0
	for d := 0; d < cfg.Days; d++ {
		day := cfg.Start.Add(time.Duration(d) * 24 * time.Hour)
		for i := 0; i < cfg.FiresPerDay; i++ {
			p, ok := w.RandomForestPoint(r)
			if !ok {
				continue
			}
			id++
			start := day.Add(time.Duration(6+r.Intn(12)) * time.Hour).
				Add(time.Duration(r.Intn(60)) * time.Minute)
			duration := time.Duration(2+r.Intn(9)) * time.Hour
			radius := 2.0 + r.Float64()*4.0 // km
			intensity := 35 + r.Float64()*25
			if r.Float64() < cfg.SmallFireFraction {
				radius = 0.3 + r.Float64()*0.5 // sub-pixel even for MODIS merges
				intensity = 12 + r.Float64()*8
			}
			fire := FireEvent{
				ID: id, Center: p,
				Start: start, End: start.Add(duration),
				PeakRadiusKm: radius, Intensity: intensity,
			}
			sc.Fires = append(sc.Fires, fire)
			// Large fires trail a smoke artifact displaced downwind.
			if radius > 2.5 && r.Float64() < 0.7 {
				sc.Artifacts = append(sc.Artifacts, Artifact{
					Kind: ArtifactSmoke,
					Center: geom.Point{
						X: p.X + 0.05 + r.Float64()*0.05,
						Y: p.Y + 0.03 + r.Float64()*0.04,
					},
					Start:    start.Add(30 * time.Minute),
					End:      start.Add(duration),
					Strength: 14 + r.Float64()*8,
				})
			}
		}
		for i := 0; i < cfg.ArtifactsPerDay; i++ {
			if p, ok := w.CoastPoint(r); ok {
				mid := day.Add(time.Duration(10+r.Intn(4)) * time.Hour)
				sc.Artifacts = append(sc.Artifacts, Artifact{
					Kind: ArtifactGlint, Center: p,
					Start: mid, End: mid.Add(time.Duration(30+r.Intn(90)) * time.Minute),
					Strength: 16 + r.Float64()*10,
				})
			}
			if p, ok := w.RandomAgriculturalPoint(r); ok {
				start := day.Add(time.Duration(8+r.Intn(8)) * time.Hour)
				sc.Artifacts = append(sc.Artifacts, Artifact{
					Kind: ArtifactAgriBurn, Center: p,
					Start: start, End: start.Add(time.Duration(1+r.Intn(3)) * time.Hour),
					Strength: 25 + r.Float64()*15,
				})
			}
		}
	}
	return sc
}

// ActiveFire is a ground-truth fire state at one instant.
type ActiveFire struct {
	Event    FireEvent
	RadiusKm float64
}

// ActiveAt returns the fires burning at time t.
func (sc *Scenario) ActiveAt(t time.Time) []ActiveFire {
	var out []ActiveFire
	for _, f := range sc.Fires {
		if r := f.RadiusKmAt(t); r > 0 {
			out = append(out, ActiveFire{Event: f, RadiusKm: r})
		}
	}
	return out
}

// KmPerDegLon converts at the scenario's latitude band.
const (
	KmPerDegLat = 111.0
	KmPerDegLon = 88.0 // ~cos(37.5°)·111
)

// coverageFraction approximates how much of a size-km pixel centred at
// pix is covered by a fire disk of radius radiusKm at centre c.
func coverageFraction(pix geom.Point, c geom.Point, radiusKm, pixSizeKm float64) float64 {
	dx := (pix.X - c.X) * KmPerDegLon
	dy := (pix.Y - c.Y) * KmPerDegLat
	d := math.Hypot(dx, dy)
	half := pixSizeKm / 2
	if d > radiusKm+half*math.Sqrt2 {
		return 0
	}
	// Sample the pixel on a 4x4 sub-grid.
	inside := 0
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			sx := dx + (float64(i)+0.5)/4*pixSizeKm - half
			sy := dy + (float64(j)+0.5)/4*pixSizeKm - half
			if math.Hypot(sx, sy) <= radiusKm {
				inside++
			}
		}
	}
	return float64(inside) / 16
}
