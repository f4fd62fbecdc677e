package georef

import (
	"math"
	"testing"

	"repro/internal/array"
)

func TestPolyEval(t *testing.T) {
	p := Poly2{1, 2, 3, 0.5, 0.25, 0.125}
	got := p.Eval(2, 4)
	want := 1 + 2*2 + 3*4 + 0.5*4 + 0.25*8 + 0.125*16
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("eval = %g, want %g", got, want)
	}
}

func TestTransformGeoPixel(t *testing.T) {
	tr := Transform{
		DstWidth: 100, DstHeight: 80,
		LonMin: 20, LatMax: 40, LonStep: 0.04, LatStep: 0.04,
	}
	lon, lat := tr.PixelToGeo(0, 0)
	if math.Abs(lon-20.02) > 1e-9 || math.Abs(lat-39.98) > 1e-9 {
		t.Fatalf("pixel(0,0) at (%g,%g)", lon, lat)
	}
	x, y := tr.GeoToPixel(lon, lat)
	if x != 0 || y != 0 {
		t.Fatalf("roundtrip pixel = (%d,%d)", x, y)
	}
	x, y = tr.GeoToPixel(21.0, 39.0)
	lon2, lat2 := tr.PixelToGeo(x, y)
	if math.Abs(lon2-21.0) > tr.LonStep || math.Abs(lat2-39.0) > tr.LatStep {
		t.Fatalf("pixel centre (%g,%g) too far from (21,39)", lon2, lat2)
	}
}

func TestApplyIdentityTransform(t *testing.T) {
	src := array.New(20, 20)
	for y := 0; y < 20; y++ {
		for x := 0; x < 20; x++ {
			src.Set(x, y, float64(x*100+y))
		}
	}
	tr := Transform{
		SrcX:     Poly2{0, 1, 0, 0, 0, 0},
		SrcY:     Poly2{0, 0, 1, 0, 0, 0},
		DstWidth: 20, DstHeight: 20,
	}
	out := tr.Apply(src)
	for y := 1; y < 18; y++ {
		for x := 1; x < 18; x++ {
			if math.Abs(out.Get(x, y)-src.Get(x, y)) > 1e-9 {
				t.Fatalf("identity warp changed (%d,%d)", x, y)
			}
		}
	}
}

func TestApplyShiftTransform(t *testing.T) {
	src := array.New(20, 20)
	for y := 0; y < 20; y++ {
		for x := 0; x < 20; x++ {
			src.Set(x, y, float64(x))
		}
	}
	tr := Transform{
		SrcX:     Poly2{2, 1, 0, 0, 0, 0}, // dst x maps to src x+2
		SrcY:     Poly2{0, 0, 1, 0, 0, 0},
		DstWidth: 15, DstHeight: 15,
	}
	out := tr.Apply(src)
	if got := out.Get(5, 5); math.Abs(got-7) > 1e-9 {
		t.Fatalf("shifted value = %g, want 7", got)
	}
}
