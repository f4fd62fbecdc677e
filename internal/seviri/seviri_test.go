package seviri

import (
	"math"
	"testing"
	"time"

	"repro/internal/auxdata"
	"repro/internal/geom"
	"repro/internal/hrit"
)

func testScenario(t *testing.T) *Scenario {
	t.Helper()
	w := auxdata.Generate(42)
	cfg := DefaultScenarioConfig()
	cfg.Days = 1
	cfg.FiresPerDay = 4
	cfg.ArtifactsPerDay = 2
	return GenerateScenario(w, 43, cfg)
}

func TestScenarioDeterminism(t *testing.T) {
	w := auxdata.Generate(42)
	cfg := DefaultScenarioConfig()
	a := GenerateScenario(w, 1, cfg)
	b := GenerateScenario(w, 1, cfg)
	if len(a.Fires) != len(b.Fires) {
		t.Fatal("scenario not deterministic")
	}
	for i := range a.Fires {
		if !a.Fires[i].Center.Equals(b.Fires[i].Center) {
			t.Fatal("fire positions differ")
		}
	}
}

func TestFireLifecycle(t *testing.T) {
	start := time.Date(2007, 8, 24, 12, 0, 0, 0, time.UTC)
	f := FireEvent{
		Start: start, End: start.Add(4 * time.Hour),
		PeakRadiusKm: 3, Intensity: 40,
	}
	if f.RadiusKmAt(start.Add(-time.Minute)) != 0 {
		t.Fatal("fire burning before ignition")
	}
	if f.RadiusKmAt(start.Add(5*time.Hour)) != 0 {
		t.Fatal("fire burning after end")
	}
	peak := f.RadiusKmAt(start.Add(time.Duration(0.6 * 4 * float64(time.Hour))))
	if math.Abs(peak-3) > 1e-9 {
		t.Fatalf("peak radius = %g", peak)
	}
	early := f.RadiusKmAt(start.Add(30 * time.Minute))
	late := f.RadiusKmAt(start.Add(3*time.Hour + 50*time.Minute))
	if early <= 0 || early >= 3 {
		t.Fatalf("early radius = %g", early)
	}
	if late <= 0 || late >= 3 {
		t.Fatalf("late radius = %g", late)
	}
}

func TestFiresIgniteOnBurnableLand(t *testing.T) {
	sc := testScenario(t)
	for _, f := range sc.Fires {
		if !sc.World.LandAt(f.Center) {
			t.Fatalf("fire %d ignited in the sea", f.ID)
		}
		c := sc.World.CoverAt(f.Center)
		if c != auxdata.CoverForest && c != auxdata.CoverScrub {
			t.Fatalf("fire %d ignited on %v", f.ID, c)
		}
	}
}

func TestGeoTemperaturesShowFire(t *testing.T) {
	sc := testScenario(t)
	sim := NewSimulator(sc)
	// Find a burning moment of the biggest fire.
	var big FireEvent
	for _, f := range sc.Fires {
		if f.PeakRadiusKm > big.PeakRadiusKm {
			big = f
		}
	}
	at := big.Start.Add(big.End.Sub(big.Start) / 2)
	t039, t108 := sim.GeoTemperatures(at)
	// Locate the fire pixel.
	x, y := sim.Transform().GeoToPixel(big.Center.X, big.Center.Y)
	fire039 := t039.Get(x, y)
	fire108 := t108.Get(x, y)
	// Compare against a far-away pixel at similar latitude.
	bgX := (x + sim.GeoWidth/2) % sim.GeoWidth
	bg039 := t039.Get(bgX, y)
	if fire039-bg039 < 15 {
		t.Fatalf("fire 3.9µm contrast too low: %g vs %g", fire039, bg039)
	}
	if fire039-fire108 < 8 {
		t.Fatalf("band difference too low: %g vs %g", fire039, fire108)
	}
}

func TestDiurnalCycle(t *testing.T) {
	sc := testScenario(t)
	sim := NewSimulator(sc)
	day := time.Date(2007, 8, 24, 11, 0, 0, 0, time.UTC) // ~14:00 local
	night := time.Date(2007, 8, 24, 23, 30, 0, 0, time.UTC)
	_, dayT108 := sim.GeoTemperatures(day)
	_, nightT108 := sim.GeoTemperatures(night)
	// Compare a land pixel's temperatures.
	var p geom.Point
	found := false
	for _, town := range sc.World.Towns {
		p = town.Location
		found = true
		break
	}
	if !found {
		t.Skip("no towns")
	}
	x, y := sim.Transform().GeoToPixel(p.X, p.Y)
	if dayT108.Get(x, y)-nightT108.Get(x, y) < 5 {
		t.Fatalf("no diurnal cycle: day %g vs night %g", dayT108.Get(x, y), nightT108.Get(x, y))
	}
}

func TestAcquireProducesDecodableSegments(t *testing.T) {
	sc := testScenario(t)
	sim := NewSimulator(sc)
	at := time.Date(2007, 8, 24, 12, 0, 0, 0, time.UTC)
	acq, err := sim.Acquire(MSG1, at, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range []string{hrit.ChannelIR039, hrit.ChannelIR108} {
		files := acq.Segments[ch]
		if len(files) != 4 {
			t.Fatalf("%s: %d segments", ch, len(files))
		}
		segs := make([]hrit.Segment, len(files))
		for i, raw := range files {
			seg, err := hrit.Decode(raw)
			if err != nil {
				t.Fatal(err)
			}
			segs[i] = seg
		}
		img, err := hrit.Assemble(segs)
		if err != nil {
			t.Fatal(err)
		}
		if img.Width() != sim.RawWidth || img.Height() != sim.RawHeight {
			t.Fatalf("%s raw dims %dx%d", ch, img.Width(), img.Height())
		}
	}
}

func TestTransformInverseConsistency(t *testing.T) {
	sc := testScenario(t)
	sim := NewSimulator(sc)
	tr := sim.Transform()
	// Forward transform hits the raw grid's interior.
	u := tr.SrcX.Eval(float64(sim.GeoWidth/2), float64(sim.GeoHeight/2))
	v := tr.SrcY.Eval(float64(sim.GeoWidth/2), float64(sim.GeoHeight/2))
	if u < 0 || u >= float64(sim.RawWidth) || v < 0 || v >= float64(sim.RawHeight) {
		t.Fatalf("centre maps outside raw grid: (%g,%g)", u, v)
	}
}

func TestAcquisitionTimes(t *testing.T) {
	from := time.Date(2010, 8, 22, 0, 0, 0, 0, time.UTC)
	msg1 := AcquisitionTimes(MSG1, from, 24*time.Hour)
	if len(msg1) != 288 {
		t.Fatalf("MSG1 acquisitions = %d, want 288 (5-min cadence)", len(msg1))
	}
	msg2 := AcquisitionTimes(MSG2, from, 24*time.Hour)
	if len(msg2) != 96 {
		t.Fatalf("MSG2 acquisitions = %d, want 96", len(msg2))
	}
}

func TestCoverageFraction(t *testing.T) {
	c := geom.Point{X: 22, Y: 38}
	// Pixel right on the fire centre with a big fire: fully covered.
	if f := coverageFraction(c, c, 10, 4); f != 1 {
		t.Fatalf("full coverage = %g", f)
	}
	// Far away: zero.
	far := geom.Point{X: 23, Y: 38}
	if f := coverageFraction(far, c, 2, 4); f != 0 {
		t.Fatalf("far coverage = %g", f)
	}
	// Partial coverage strictly between.
	edge := geom.Point{X: 22 + 2.0/KmPerDegLon, Y: 38}
	if f := coverageFraction(edge, c, 2, 4); f <= 0 || f >= 1 {
		t.Fatalf("edge coverage = %g", f)
	}
}
