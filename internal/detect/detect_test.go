package detect

import (
	"math"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/solar"
)

func fireScene() (*array.Dense, *array.Dense) {
	t039 := array.New(16, 16)
	t108 := array.New(16, 16)
	t039.Fill(295)
	t108.Fill(292)
	// Strong fire pixel.
	t039.Set(8, 8, 345)
	t108.Set(8, 8, 296)
	return t039, t108
}

func TestClassifyFindsFire(t *testing.T) {
	t039, t108 := fireScene()
	conf := LegacyClassify(t039, t108, nil)
	if got := conf.Get(8, 8); got != Fire {
		t.Fatalf("fire pixel = %g", got)
	}
	if got := conf.Get(0, 0); got != NoFire {
		t.Fatalf("background = %g", got)
	}
}

func TestClassifyPixelThresholds(t *testing.T) {
	th := DayThresholds
	cases := []struct {
		name                       string
		t039, t108, std039, std108 float64
		want                       int
	}{
		{"strong fire", 340, 300, 6, 1, Fire},
		{"potential fire", 312, 303, 3, 1, PotentialFire},
		{"too cold", 305, 290, 6, 1, NoFire},
		{"no contrast", 340, 335, 6, 1, NoFire},
		{"flat window", 340, 300, 1, 1, NoFire},
		{"cloud edge", 340, 300, 6, 5, NoFire},
	}
	for _, c := range cases {
		if got := ClassifyPixel(c.t039, c.t108, c.std039, c.std108, th); got != c.want {
			t.Errorf("%s: got %d, want %d", c.name, got, c.want)
		}
	}
}

func TestNightThresholdsCatchCoolerFires(t *testing.T) {
	// A pixel below the day 3.9 µm threshold but above the night one.
	got := ClassifyPixel(295, 285, 5, 1, NightThresholds)
	if got != Fire {
		t.Fatalf("night classification = %d", got)
	}
	if ClassifyPixel(295, 285, 5, 1, DayThresholds) != NoFire {
		t.Fatal("day thresholds should reject this pixel")
	}
}

func TestInterpolation(t *testing.T) {
	mid := Interpolate(DayThresholds, NightThresholds, 0.5)
	if mid.T039 != (DayThresholds.T039+NightThresholds.T039)/2 {
		t.Fatalf("midpoint T039 = %g", mid.T039)
	}
	if got := ForZenith(50); got != DayThresholds {
		t.Fatalf("zenith 50 should be day: %+v", got)
	}
	if got := ForZenith(95); got != NightThresholds {
		t.Fatalf("zenith 95 should be night: %+v", got)
	}
	tw := ForZenith(80) // halfway through twilight
	if math.Abs(tw.T039-300) > 1e-9 {
		t.Fatalf("twilight T039 = %g, want 300", tw.T039)
	}
}

func TestPerPixelZenith(t *testing.T) {
	// Left half day, right half night: a 295 K anomaly fires only at night.
	t039 := array.New(16, 8)
	t108 := array.New(16, 8)
	t039.Fill(280)
	t108.Fill(278)
	t039.Set(3, 4, 295)  // day side: below day threshold
	t039.Set(12, 4, 295) // night side: above night threshold
	zen := func(x, y int) float64 {
		if x < 8 {
			return 30
		}
		return 100
	}
	conf := LegacyClassify(t039, t108, zen)
	if conf.Get(3, 4) != NoFire {
		t.Fatalf("day-side pixel = %g", conf.Get(3, 4))
	}
	if conf.Get(12, 4) == NoFire {
		t.Fatalf("night-side pixel = %g", conf.Get(12, 4))
	}
}

func TestSolarZenithSanity(t *testing.T) {
	// Athens (23.7 E, 38.0 N), local solar noon in August: sun well up.
	noon := time.Date(2007, 8, 24, 10, 30, 0, 0, time.UTC) // ~12:05 solar
	z := solar.ZenithAngle(noon, 23.7, 38.0)
	if z > 35 {
		t.Fatalf("noon zenith = %g", z)
	}
	midnight := time.Date(2007, 8, 24, 22, 30, 0, 0, time.UTC)
	zn := solar.ZenithAngle(midnight, 23.7, 38.0)
	if zn < 90 {
		t.Fatalf("midnight zenith = %g", zn)
	}
	if solar.Classify(z) != solar.Day || solar.Classify(zn) != solar.Night {
		t.Fatal("regime classification wrong")
	}
	// Twilight weight is monotone.
	if solar.TwilightWeight(75) <= solar.TwilightWeight(85) {
		t.Fatal("twilight weight should decrease with zenith")
	}
}
