package seviri

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/auxdata"
	"repro/internal/geom"
	"repro/internal/hrit"
	"repro/internal/solar"
)

// The oracle: the simulator as it was before the grid-only part of the
// scene was computed once per Simulator — every pixel re-derives its
// position, solar zenith, land/cover class and every fire's and
// artifact's coverage, and the inverse warp is solved once per band.
// The bodies are kept verbatim (only renamed); the fast path must
// reproduce them float for float and byte for byte.

// oracleZenithAngle is solar.ZenithAngle verbatim.
func oracleZenithAngle(t time.Time, lon, lat float64) float64 {
	const deg = math.Pi / 180
	t = t.UTC()
	doy := float64(t.YearDay())
	// Fractional year (radians).
	hours := float64(t.Hour()) + float64(t.Minute())/60 + float64(t.Second())/3600
	gamma := 2 * math.Pi / 365 * (doy - 1 + (hours-12)/24)

	// Equation of time (minutes) and declination (radians) — Spencer 1971.
	eqTime := 229.18 * (0.000075 + 0.001868*math.Cos(gamma) - 0.032077*math.Sin(gamma) -
		0.014615*math.Cos(2*gamma) - 0.040849*math.Sin(2*gamma))
	decl := 0.006918 - 0.399912*math.Cos(gamma) + 0.070257*math.Sin(gamma) -
		0.006758*math.Cos(2*gamma) + 0.000907*math.Sin(2*gamma) -
		0.002697*math.Cos(3*gamma) + 0.00148*math.Sin(3*gamma)

	// True solar time (minutes).
	timeOffset := eqTime + 4*lon
	tst := hours*60 + timeOffset
	// Hour angle (degrees): 0 at solar noon.
	ha := tst/4 - 180

	cosZen := math.Sin(lat*deg)*math.Sin(decl) +
		math.Cos(lat*deg)*math.Cos(decl)*math.Cos(ha*deg)
	cosZen = math.Max(-1, math.Min(1, cosZen))
	return math.Acos(cosZen) / deg
}

// oracleGeoTemperatures is GeoTemperatures verbatim.
func (s *Simulator) oracleGeoTemperatures(t time.Time) (t039, t108 *array.Dense) {
	w, h := s.GeoWidth, s.GeoHeight
	t039 = array.New(w, h)
	t108 = array.New(w, h)
	world := s.Scenario.World
	active := s.Scenario.ActiveAt(t)
	var arts []Artifact
	for _, a := range s.Scenario.Artifacts {
		if !t.Before(a.Start) && !t.After(a.End) {
			arts = append(arts, a)
		}
	}
	// Deterministic per-acquisition sensor noise.
	noise := rand.New(rand.NewSource(s.Scenario.Seed ^ t.Unix()))

	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			lon, lat := s.geoToRaw.PixelToGeo(x, y)
			p := geom.Point{X: lon, Y: lat}
			zen := oracleZenithAngle(t, lon, lat)
			daylight := math.Max(0, math.Cos(zen*math.Pi/180))

			var base108 float64
			if world.LandAt(p) {
				base108 = 286 + 16*daylight
				switch world.CoverAt(p) {
				case auxdata.CoverUrban:
					base108 += 3
				case auxdata.CoverAgricultural:
					base108 += 2
				case auxdata.CoverScrub:
					base108 += 1
				}
			} else {
				base108 = 291 + 1.5*daylight
			}
			base039 := base108 + 1.0 + 0.5*daylight

			// Ground-truth fires: strong sub-pixel-sensitive 3.9 µm bump.
			for _, f := range active {
				frac := coverageFraction(p, f.Event.Center, f.RadiusKm, PixelKm)
				if frac <= 0 {
					continue
				}
				// The 3.9 µm channel saturates quickly with fire fraction
				// (the paper: "a small portion of a pixel ... will
				// suffice").
				bump := f.Event.Intensity * math.Min(1, 6*math.Sqrt(frac))
				base039 += bump
				base108 += f.Event.Intensity * 0.25 * frac
			}
			// Artifacts.
			for _, a := range arts {
				frac := coverageFraction(p, a.Center, 2.0, PixelKm)
				if frac <= 0 {
					continue
				}
				switch a.Kind {
				case ArtifactGlint:
					// Glint needs daylight.
					base039 += a.Strength * frac * daylight * 2.5
				case ArtifactAgriBurn:
					base039 += a.Strength * math.Min(1, 3*frac)
					base108 += a.Strength * 0.15 * frac
				case ArtifactSmoke:
					base039 += a.Strength * math.Min(1, 2*frac)
				}
			}
			t039.Set(x, y, base039+noise.NormFloat64()*0.4)
			t108.Set(x, y, base108+noise.NormFloat64()*0.3)
		}
	}
	return t039, t108
}

// oracleAcquire is Acquire verbatim; it also returns the geo and raw
// fields it rendered on the way.
func (s *Simulator) oracleAcquire(sensor Sensor, t time.Time, segments int, compressed bool) (fields [4]*array.Dense, _ *RawAcquisition, _ error) {
	t039, t108 := s.oracleGeoTemperatures(t)
	raw039 := s.oracleWarpToRaw(t039)
	raw108 := s.oracleWarpToRaw(t108)
	fields = [4]*array.Dense{t039, t108, raw039, raw108}

	out := &RawAcquisition{Sensor: sensor, Timestamp: t, Segments: make(map[string][][]byte)}
	shuffle := rand.New(rand.NewSource(s.Scenario.Seed ^ t.Unix() ^ int64(len(sensor.Name))))
	for _, band := range []struct {
		channel string
		img     *array.Dense
	}{
		{hrit.ChannelIR039, raw039},
		{hrit.ChannelIR108, raw108},
	} {
		cal, err := hrit.CalibrationFor(band.channel)
		if err != nil {
			return fields, nil, err
		}
		counts := make([]uint16, band.img.Len())
		vals := band.img.Values()
		for i, v := range vals {
			counts[i] = cal.TempToCount(v)
		}
		hdr := hrit.SegmentHeader{
			ProductName: fmt.Sprintf("%s-SEVIRI", sensor.Name),
			Channel:     band.channel,
			Timestamp:   t,
			Compressed:  compressed,
		}
		segs, err := hrit.Split(counts, band.img.Width(), segments, hdr)
		if err != nil {
			return fields, nil, err
		}
		encoded := make([][]byte, len(segs))
		for i, sg := range segs {
			raw, err := hrit.Encode(sg)
			if err != nil {
				return fields, nil, err
			}
			encoded[i] = raw
		}
		shuffle.Shuffle(len(encoded), func(i, j int) {
			encoded[i], encoded[j] = encoded[j], encoded[i]
		})
		out.Segments[band.channel] = encoded
	}
	return fields, out, nil
}

// oracleWarpToRaw is warpToRaw verbatim: one band, the Newton inverse
// solved per raw pixel inside array.Resample.
func (s *Simulator) oracleWarpToRaw(geoImg *array.Dense) *array.Dense {
	inv := func(u, v int) (float64, float64) {
		// Solve geoToRaw(x, y) = (u, v) for (x, y).
		x, y := float64(u)-6, float64(v)-5 // affine initial guess
		for iter := 0; iter < 4; iter++ {
			fx := s.geoToRaw.SrcX.Eval(x, y) - float64(u)
			fy := s.geoToRaw.SrcY.Eval(x, y) - float64(v)
			// Jacobian of the near-affine transform.
			j11 := s.geoToRaw.SrcX[1] + 2*s.geoToRaw.SrcX[3]*x + s.geoToRaw.SrcX[4]*y
			j12 := s.geoToRaw.SrcX[2] + s.geoToRaw.SrcX[4]*x + 2*s.geoToRaw.SrcX[5]*y
			j21 := s.geoToRaw.SrcY[1] + 2*s.geoToRaw.SrcY[3]*x + s.geoToRaw.SrcY[4]*y
			j22 := s.geoToRaw.SrcY[2] + s.geoToRaw.SrcY[4]*x + 2*s.geoToRaw.SrcY[5]*y
			det := j11*j22 - j12*j21
			if math.Abs(det) < 1e-12 {
				break
			}
			x -= (fx*j22 - fy*j12) / det
			y -= (fy*j11 - fx*j21) / det
		}
		return x, y
	}
	out := array.New(s.RawWidth, s.RawHeight)
	// Fill with a sane background so border pixels calibrate validly.
	out.Fill(280)
	resampled := geoImg.Resample(s.RawWidth, s.RawHeight, inv)
	x0, y0 := resampled.Origin()
	for y := 0; y < s.RawHeight; y++ {
		for x := 0; x < s.RawWidth; x++ {
			if resampled.Valid(x0+x, y0+y) {
				out.Set(x, y, resampled.Get(x0+x, y0+y))
			}
		}
	}
	return out
}

// sameField reports the first cell where two fields differ in bits or
// validity.
func sameField(got, want *array.Dense) error {
	if got.Width() != want.Width() || got.Height() != want.Height() {
		return fmt.Errorf("dims %dx%d, want %dx%d", got.Width(), got.Height(), want.Width(), want.Height())
	}
	gv, wv := got.Values(), want.Values()
	for i := range wv {
		x, y := i%want.Width(), i/want.Width()
		if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) || got.Valid(x, y) != want.Valid(x, y) {
			return fmt.Errorf("cell (%d,%d) = %v (valid %v), want %v (valid %v)",
				x, y, gv[i], got.Valid(x, y), wv[i], want.Valid(x, y))
		}
	}
	return nil
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// edgeScenario is a generated scenario plus a fire and one artifact of
// each kind placed so their reach crosses the grid's edges — the pixel
// boxes the fast path clips.
func edgeScenario(worldSeed, seed int64) *Scenario {
	cfg := DefaultScenarioConfig()
	cfg.Days = 1
	sc := GenerateScenario(auxdata.Generate(worldSeed), seed, cfg)
	r := auxdata.Region
	noon := cfg.Start.Add(12 * time.Hour)
	sc.Fires = append(sc.Fires, FireEvent{
		ID: 999, Center: geom.Point{X: r.MinX + 0.01, Y: r.MaxY - 0.02},
		Start: noon.Add(-3 * time.Hour), End: noon.Add(3 * time.Hour),
		PeakRadiusKm: 6, Intensity: 50,
	})
	for i, c := range []geom.Point{{X: r.MaxX - 0.005, Y: r.MinY + 1}, {X: r.MinX + 2, Y: r.MinY + 0.01}, {X: r.MaxX, Y: r.MaxY}} {
		sc.Artifacts = append(sc.Artifacts, Artifact{
			Kind: ArtifactKind(i), Center: c,
			Start: noon.Add(-2 * time.Hour), End: noon.Add(2 * time.Hour), Strength: 20,
		})
	}
	return sc
}

// TestAcquireMatchesOracle renders every 5-minute instant of a scenario
// day, for two world/scenario seeds, through the fast simulator and the
// oracle: the geo fields and the raw fields must be float-identical and
// the encoded segment files byte-identical. The day spans night,
// twilight and full day, every artifact kind, and a fire whose reach
// crosses the grid edge.
func TestAcquireMatchesOracle(t *testing.T) {
	step := 5 * time.Minute
	if testing.Short() || raceDetector {
		step = 95 * time.Minute
	}
	regimes := map[solar.Regime]bool{}
	kinds := map[ArtifactKind]bool{}
	edgeFire := false
	for _, seeds := range [][2]int64{{42, 43}, {7, 11}} {
		sc := edgeScenario(seeds[0], seeds[1])
		sim := NewSimulator(sc)
		day := DefaultScenarioConfig().Start
		for at := day; at.Before(day.Add(24 * time.Hour)); at = at.Add(step) {
			lon, lat := sim.Transform().PixelToGeo(sim.GeoWidth/2, sim.GeoHeight/2)
			regimes[solar.Classify(oracleZenithAngle(at, lon, lat))] = true
			for _, a := range sc.Artifacts {
				if !at.Before(a.Start) && !at.After(a.End) {
					kinds[a.Kind] = true
				}
			}
			edgeFire = edgeFire || sc.Fires[len(sc.Fires)-1].RadiusKmAt(at) > 0
			name := fmt.Sprintf("seeds %v at %s", seeds, at.Format("15:04"))

			compressed := at.Minute()%10 == 0
			want, wantAcq, err := sim.oracleAcquire(MSG1, at, 4, compressed)
			if err != nil {
				t.Fatal(err)
			}
			geo039, geo108 := sim.GeoTemperatures(at)
			raw039, raw108 := sim.warpToRaw(geo039, geo108)
			for i, got := range []*array.Dense{geo039, geo108, raw039, raw108} {
				if err := sameField(got, want[i]); err != nil {
					t.Fatalf("%s: %s: %v", name, []string{"geo 3.9", "geo 10.8", "raw 3.9", "raw 10.8"}[i], err)
				}
			}
			acq, err := sim.Acquire(MSG1, at, 4, compressed)
			if err != nil {
				t.Fatal(err)
			}
			if len(acq.Segments) != len(wantAcq.Segments) {
				t.Fatalf("%s: %d channels, want %d", name, len(acq.Segments), len(wantAcq.Segments))
			}
			for ch, files := range wantAcq.Segments {
				got := acq.Segments[ch]
				if len(got) != len(files) {
					t.Fatalf("%s: %s: %d segments, want %d", name, ch, len(got), len(files))
				}
				for i := range files {
					if !bytes.Equal(got[i], files[i]) {
						t.Fatalf("%s: %s segment %d differs", name, ch, i)
					}
				}
			}
		}
	}
	if !regimes[solar.Day] || !regimes[solar.Twilight] || !regimes[solar.Night] {
		t.Errorf("illumination regimes covered: %v, want day, twilight and night", regimes)
	}
	if !kinds[ArtifactGlint] || !kinds[ArtifactAgriBurn] || !kinds[ArtifactSmoke] {
		t.Errorf("artifact kinds covered: %v, want all three", kinds)
	}
	if !edgeFire {
		t.Error("the edge fire never burned at a rendered instant")
	}
}

// TestAcquireConcurrentFirstUse: pipeline workers share one simulator, so
// its first renders — which build the grid part — race each other; each
// must still produce the downlink a lone render does.
func TestAcquireConcurrentFirstUse(t *testing.T) {
	sc := edgeScenario(42, 43)
	at := DefaultScenarioConfig().Start.Add(12 * time.Hour)
	want, err := NewSimulator(sc).Acquire(MSG1, at, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(sc)
	got := make([]*RawAcquisition, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			acq, err := sim.Acquire(MSG1, at, 4, true)
			if err != nil {
				t.Error(err)
			}
			got[i] = acq
		}()
	}
	wg.Wait()
	for i, acq := range got {
		for ch, files := range want.Segments {
			for k := range files {
				if acq == nil || !bytes.Equal(acq.Segments[ch][k], files[k]) {
					t.Fatalf("worker %d: %s segment %d differs from a lone render", i, ch, k)
				}
			}
		}
	}
}

// BenchmarkSimulatorAcquire times one downlink acquisition at midday,
// with active fires and artifacts; the allocation gate reads its B/op.
func BenchmarkSimulatorAcquire(b *testing.B) {
	sc := edgeScenario(42, 43)
	sim := NewSimulator(sc)
	at := DefaultScenarioConfig().Start.Add(12 * time.Hour)
	if _, err := sim.Acquire(MSG1, at, 4, true); err != nil { // the grid part, once
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Acquire(MSG1, at.Add(time.Duration(i%12)*5*time.Minute), 4, true); err != nil {
			b.Fatal(err)
		}
	}
}
