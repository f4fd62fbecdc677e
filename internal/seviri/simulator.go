package seviri

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/array"
	"repro/internal/auxdata"
	"repro/internal/geom"
	"repro/internal/georef"
	"repro/internal/hrit"
	"repro/internal/solar"
)

// Sensor describes one of the two MSG platforms of the paper.
type Sensor struct {
	Name    string
	Cadence time.Duration
}

// The paper's platforms: "MSG-1 Seviri (5 mins), MSG-2 Seviri (15 mins)".
var (
	MSG1 = Sensor{Name: "MSG1", Cadence: 5 * time.Minute}
	MSG2 = Sensor{Name: "MSG2", Cadence: 15 * time.Minute}
)

// PixelDeg is the MSG/SEVIRI ground sampling distance over Greece in
// degrees (~4 km, the paper's "nearly 4x4 km").
const PixelDeg = 0.04

// PixelKm is the nominal MSG pixel size.
const PixelKm = 4.0

// Simulator renders acquisitions of a scenario; workers share one.
type Simulator struct {
	Scenario *Scenario
	// Geo grid covering auxdata.Region at PixelDeg.
	GeoWidth, GeoHeight int
	// Raw grid: the distorted scan geometry; slightly larger.
	RawWidth, RawHeight int
	// geoToRaw maps geo pixel coordinates to raw pixel coordinates — the
	// "precalculated" polynomial the chain's georeferencing step applies.
	geoToRaw georef.Transform

	// The grid-only part of the scene (sceneGrid): about 20 KB on the geo
	// grid, 0.36 MB on the raw grid.
	gridOnce       sync.Once
	sinLat, cosLat []float64    // per row: the zenith's latitude terms
	surface        []int8       // per pixel: -1 sea, else its cover's coverBonus
	warp           [][2]float64 // per raw pixel: the geo position rawToGeo samples
}

// coverBonus lifts the 10.8 µm land base by cover class.
var coverBonus = map[auxdata.CoverClass]int8{auxdata.CoverUrban: 3, auxdata.CoverAgricultural: 2, auxdata.CoverScrub: 1}

// sceneGrid computes the grid-only part of the scene, once per Simulator:
// the land/cover class at each pixel centre, the latitude terms and the
// scan geometry's inverse at each raw pixel.
func (s *Simulator) sceneGrid() {
	s.gridOnce.Do(func() {
		s.warp = make([][2]float64, s.RawWidth*s.RawHeight)
		for y := 0; y < s.RawHeight; y++ {
			for x := 0; x < s.RawWidth; x++ {
				fx, fy := s.rawToGeo(x, y)
				s.warp[y*s.RawWidth+x] = [2]float64{fx, fy}
			}
		}
		world := s.Scenario.World
		s.sinLat, s.cosLat = make([]float64, s.GeoHeight), make([]float64, s.GeoHeight)
		s.surface = make([]int8, s.GeoWidth*s.GeoHeight)
		for y := range s.sinLat {
			_, lat := s.geoToRaw.PixelToGeo(0, y)
			s.sinLat[y], s.cosLat[y] = solar.Latitude(lat)
			for x := 0; x < s.GeoWidth; x++ {
				lon, _ := s.geoToRaw.PixelToGeo(x, y)
				s.surface[y*s.GeoWidth+x] = -1
				if p := (geom.Point{X: lon, Y: lat}); world.LandAt(p) {
					s.surface[y*s.GeoWidth+x] = coverBonus[world.CoverAt(p)]
				}
			}
		}
	})
}

// NewSimulator builds the simulator and its scan geometry.
func NewSimulator(sc *Scenario) *Simulator {
	region := auxdata.Region
	gw := int(region.Width()/PixelDeg + 0.5)
	gh := int(region.Height()/PixelDeg + 0.5)
	s := &Simulator{
		Scenario: sc,
		GeoWidth: gw, GeoHeight: gh,
		RawWidth: gw + 14, RawHeight: gh + 12,
	}
	// The scan geometry: a mild affine skew plus a weak quadratic term —
	// the shape a geostationary view of a mid-latitude region has.
	s.geoToRaw = georef.Transform{
		SrcX:      georef.Poly2{6.0, 1.01, 0.015, 0.00002, 0.000008, 0},
		SrcY:      georef.Poly2{5.0, -0.01, 1.008, 0, 0.000006, 0.00002},
		DstWidth:  gw,
		DstHeight: gh,
		LonMin:    region.MinX,
		LatMax:    region.MaxY,
		LonStep:   PixelDeg,
		LatStep:   PixelDeg,
	}
	return s
}

// Transform exposes the chain's georeferencing transform, known a priori
// as in the operational service.
func (s *Simulator) Transform() georef.Transform { return s.geoToRaw }

// GeoTemperatures renders the two brightness-temperature fields on the
// geographic grid at time t (the physical scene before scan distortion).
// A pixel sums its surface base, every active fire's bump in scenario
// order, every active artifact's, then its noise, drawn in pixel order.
func (s *Simulator) GeoTemperatures(t time.Time) (t039, t108 *array.Dense) {
	s.sceneGrid()
	w, h := s.GeoWidth, s.GeoHeight
	t039 = array.New(w, h)
	t108 = array.New(w, h)
	v039, v108 := t039.Values(), t108.Values()
	sun := solar.At(t)
	cosHA := make([]float64, w)
	for x := range cosHA {
		lon, _ := s.geoToRaw.PixelToGeo(x, 0)
		cosHA[x] = sun.CosHourAngle(lon)
	}
	daylightAt := func(x, y int) float64 {
		zen := sun.Zenith(s.sinLat[y], s.cosLat[y], cosHA[x])
		return math.Max(0, math.Cos(zen*math.Pi/180))
	}

	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			daylight := daylightAt(x, y)
			var base108 float64
			if bonus := s.surface[y*w+x]; bonus >= 0 {
				base108 = 286 + 16*daylight
				base108 += float64(bonus)
			} else {
				base108 = 291 + 1.5*daylight
			}
			v108[y*w+x] = base108
			v039[y*w+x] = base108 + 1.0 + 0.5*daylight
		}
	}

	// Ground-truth fires: strong sub-pixel-sensitive 3.9 µm bump.
	for _, f := range s.Scenario.ActiveAt(t) {
		s.visitReach(f.Event.Center, f.RadiusKm, func(x, y int, frac float64) {
			// The 3.9 µm channel saturates quickly with fire fraction
			// (the paper: "a small portion of a pixel ... will suffice").
			bump := f.Event.Intensity * math.Min(1, 6*math.Sqrt(frac))
			v039[y*w+x] += bump
			v108[y*w+x] += f.Event.Intensity * 0.25 * frac
		})
	}
	// Artifacts.
	for _, a := range s.Scenario.Artifacts {
		if t.Before(a.Start) || t.After(a.End) {
			continue
		}
		s.visitReach(a.Center, 2.0, func(x, y int, frac float64) {
			switch a.Kind {
			case ArtifactGlint:
				// Glint needs daylight.
				v039[y*w+x] += a.Strength * frac * daylightAt(x, y) * 2.5
			case ArtifactAgriBurn:
				v039[y*w+x] += a.Strength * math.Min(1, 3*frac)
				v108[y*w+x] += a.Strength * 0.15 * frac
			case ArtifactSmoke:
				v039[y*w+x] += a.Strength * math.Min(1, 2*frac)
			}
		})
	}

	// Deterministic per-acquisition sensor noise.
	noise := rand.New(rand.NewSource(s.Scenario.Seed ^ t.Unix()))
	for i := range v039 {
		v039[i] += noise.NormFloat64() * 0.4
		v108[i] += noise.NormFloat64() * 0.3
	}
	return t039, t108
}

// visitReach calls visit, in pixel order, for every pixel a disk of
// radiusKm at c covers a positive fraction of, testing only the box of
// the disk's reach (widened a pixel against rounding).
func (s *Simulator) visitReach(c geom.Point, radiusKm float64, visit func(x, y int, frac float64)) {
	reach := radiusKm + PixelKm/2*math.Sqrt2
	tr := s.geoToRaw
	x0 := max(0, int(math.Floor((c.X-reach/KmPerDegLon-tr.LonMin)/tr.LonStep))-1)
	x1 := min(s.GeoWidth-1, int(math.Ceil((c.X+reach/KmPerDegLon-tr.LonMin)/tr.LonStep))+1)
	y0 := max(0, int(math.Floor((tr.LatMax-c.Y-reach/KmPerDegLat)/tr.LatStep))-1)
	y1 := min(s.GeoHeight-1, int(math.Ceil((tr.LatMax-c.Y+reach/KmPerDegLat)/tr.LatStep))+1)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			lon, lat := tr.PixelToGeo(x, y)
			if frac := coverageFraction(geom.Point{X: lon, Y: lat}, c, radiusKm, PixelKm); frac > 0 {
				visit(x, y, frac)
			}
		}
	}
}

// RawAcquisition is one acquisition in raw form: per-channel HRIT
// segment files (encoded bytes), as delivered by the ground station.
type RawAcquisition struct {
	Sensor    Sensor
	Timestamp time.Time
	// Segments maps channel name to its encoded segment files, in
	// arrival order (shuffled deterministically — segments arrive
	// out-of-order in the operational feed).
	Segments map[string][][]byte
}

// Acquire renders the scene at t, warps it to the raw scan grid,
// calibrates temperatures to 10-bit counts, and encodes HRIT segments.
func (s *Simulator) Acquire(sensor Sensor, t time.Time, segments int, compressed bool) (*RawAcquisition, error) {
	raw039, raw108 := s.warpToRaw(s.GeoTemperatures(t))

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
			return nil, err
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
			return nil, err
		}
		encoded := make([][]byte, len(segs))
		for i, sg := range segs {
			raw, err := hrit.Encode(sg)
			if err != nil {
				return nil, err
			}
			encoded[i] = raw
		}
		shuffle.Shuffle(len(encoded), func(i, j int) {
			encoded[i], encoded[j] = encoded[j], encoded[i]
		})
		out.Segments[band.channel] = encoded
	}
	return out, nil
}

// rawToGeo inverts the chain's transform at raw pixel (u, v): Newton
// iteration on the polynomial for the geo position it samples.
func (s *Simulator) rawToGeo(u, v int) (float64, float64) {
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

// warpToRaw resamples both geo-grid bands onto the raw scan grid from
// the inverse transform sceneGrid solved at each raw pixel, bilinearly;
// pixels sampling off the geo grid get a sane background, so border
// pixels calibrate.
func (s *Simulator) warpToRaw(geo039, geo108 *array.Dense) (raw039, raw108 *array.Dense) {
	s.sceneGrid()
	gw, gh := geo039.Width(), geo039.Height()
	g039, g108 := geo039.Values(), geo108.Values()
	raw039, raw108 = array.New(s.RawWidth, s.RawHeight), array.New(s.RawWidth, s.RawHeight)
	r039, r108 := raw039.Values(), raw108.Values()
	for i, f := range s.warp {
		fx, fy := f[0], f[1]
		ix, iy := int(math.Floor(fx)), int(math.Floor(fy))
		if ix < 0 || iy < 0 || ix >= gw-1 || iy >= gh-1 {
			r039[i], r108[i] = 280, 280
			continue
		}
		tx, ty := fx-float64(ix), fy-float64(iy)
		j := iy*gw + ix
		r039[i] = g039[j]*(1-tx)*(1-ty) + g039[j+1]*tx*(1-ty) + g039[j+gw]*(1-tx)*ty + g039[j+gw+1]*tx*ty
		r108[i] = g108[j]*(1-tx)*(1-ty) + g108[j+1]*tx*(1-ty) + g108[j+gw]*(1-tx)*ty + g108[j+gw+1]*tx*ty
	}
	return raw039, raw108
}

// AcquisitionTimes lists a sensor's acquisition timestamps over a window.
func AcquisitionTimes(sensor Sensor, from time.Time, span time.Duration) []time.Time {
	var out []time.Time
	for t := from; t.Before(from.Add(span)); t = t.Add(sensor.Cadence) {
		out = append(out, t)
	}
	return out
}
