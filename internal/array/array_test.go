package array

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewAndGetSet(t *testing.T) {
	a := New(4, 3)
	if a.Width() != 4 || a.Height() != 3 || a.Len() != 12 {
		t.Fatalf("dims = %dx%d", a.Width(), a.Height())
	}
	a.Set(2, 1, 7.5)
	if got := a.Get(2, 1); got != 7.5 {
		t.Fatalf("Get = %g", got)
	}
	if got := a.Get(0, 0); got != 0 {
		t.Fatalf("zero cell = %g", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	a := New(2, 2)
	for _, f := range []func(){
		func() { a.Get(2, 0) },
		func() { a.Get(-1, 0) },
		func() { a.Set(0, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// fromValues builds a w×h array from row-major values.
func fromValues(w, h int, vals []float64) *Dense {
	a := New(w, h)
	copy(a.Values(), vals)
	return a
}

func TestSliceKeepsAbsoluteCoordinates(t *testing.T) {
	a := New(10, 10)
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			a.Set(x, y, float64(y*10+x))
		}
	}
	s := a.Slice(3, 7, 2, 5)
	if s.Width() != 4 || s.Height() != 3 {
		t.Fatalf("slice dims = %dx%d", s.Width(), s.Height())
	}
	x0, y0 := s.Origin()
	if x0 != 3 || y0 != 2 {
		t.Fatalf("origin = (%d,%d)", x0, y0)
	}
	if got := s.Get(3, 2); got != 23 {
		t.Fatalf("s.Get(3,2) = %g, want 23", got)
	}
	if got := s.Get(6, 4); got != 46 {
		t.Fatalf("s.Get(6,4) = %g, want 46", got)
	}
	// Slicing a slice composes.
	s2 := s.Slice(4, 6, 3, 5)
	if got := s2.Get(5, 3); got != 35 {
		t.Fatalf("s2.Get(5,3) = %g", got)
	}
	// Degenerate slice.
	empty := a.Slice(8, 3, 0, 10)
	if empty.Len() != 0 {
		t.Fatal("inverted slice should be empty")
	}
	// Clamped slice.
	c := a.Slice(-5, 100, -5, 100)
	if c.Width() != 10 || c.Height() != 10 {
		t.Fatalf("clamped = %dx%d", c.Width(), c.Height())
	}
}

func TestValidityMask(t *testing.T) {
	a := New(3, 3)
	if !a.Valid(1, 1) {
		t.Fatal("fresh cells should be valid")
	}
	a.Invalidate(1, 1)
	if a.Valid(1, 1) {
		t.Fatal("invalidated cell still valid")
	}
	a.Set(1, 1, 5)
	if !a.Valid(1, 1) {
		t.Fatal("Set should revalidate")
	}
	if a.Valid(99, 99) {
		t.Fatal("out-of-range should be invalid")
	}
	s := a.Summary()
	if s.Count != 9 {
		t.Fatalf("count = %d", s.Count)
	}
	a.Invalidate(0, 0)
	if got := a.Summary().Count; got != 8 {
		t.Fatalf("count after invalidate = %d", got)
	}
}

func TestSummary(t *testing.T) {
	a := fromValues(2, 2, []float64{1, 2, 3, 4})
	s := a.Summary()
	if s.Min != 1 || s.Max != 4 || math.Abs(s.Mean-2.5) > 1e-12 || s.Count != 4 {
		t.Fatalf("summary = %+v", s)
	}
	empty := New(0, 0)
	if es := empty.Summary(); es.Count != 0 || es.Min != 0 {
		t.Fatalf("empty summary = %+v", es)
	}
}

// windowMean is the mean over the (2r+1)×(2r+1) window centred on each
// cell, clamped at the edges, through the summed-area-table kernels.
func windowMean(a *Dense, r int) []float64 {
	w, h := a.Width(), a.Height()
	out := make([]float64, w*h)
	sat := make([]float64, (w+1)*(h+1))
	SummedAreaTable(sat, a.Values(), w, h)
	spec := WindowSpec{XLo: -r, XHi: r + 1, YLo: -r, YHi: r + 1}
	for i := range out {
		sum, n := spec.Sum(sat, w, h, i%w, i/w)
		out[i] = sum / float64(n)
	}
	return out
}

func TestWindowMeanMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := New(37, 23)
	for i := range a.Values() {
		a.Values()[i] = r.Float64() * 100
	}
	w, h := a.Width(), a.Height()
	for _, radius := range []int{1, 2, 3} {
		fast := windowMean(a, radius)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				var sum float64
				n := 0
				for yy := max(y-radius, 0); yy <= min(y+radius, h-1); yy++ {
					for xx := max(x-radius, 0); xx <= min(x+radius, w-1); xx++ {
						sum += a.Get(xx, yy)
						n++
					}
				}
				if naive := sum / float64(n); math.Abs(fast[y*w+x]-naive) > 1e-9 {
					t.Fatalf("radius %d cell (%d,%d): fast %g vs naive %g", radius, x, y, fast[y*w+x], naive)
				}
			}
		}
	}
}

func TestWindowMeanConstant(t *testing.T) {
	a := New(10, 10)
	a.Fill(5)
	for _, v := range windowMean(a, 1) {
		if math.Abs(v-5) > 1e-12 {
			t.Fatalf("mean of constant field = %g", v)
		}
	}
}

// windowStdDev is the paper's Figure 4 formulation over 3×3 windows:
// sqrt(mean(v²) − mean(v)²).
func windowStdDev(a *Dense) *Dense {
	mean := windowMean(a, 1)
	sq := a.Clone()
	for i, v := range sq.Values() {
		sq.Values()[i] = v * v
	}
	meanSq := windowMean(sq, 1)
	out := New(a.Width(), a.Height())
	for i := range out.Values() {
		out.Values()[i] = math.Sqrt(max(meanSq[i]-mean[i]*mean[i], 0))
	}
	return out
}

func TestWindowStdDev(t *testing.T) {
	// Constant field: zero deviation everywhere.
	a := New(8, 8)
	a.Fill(300)
	sd := windowStdDev(a)
	for _, v := range sd.Values() {
		if v > 1e-9 {
			t.Fatalf("stddev of constant = %g", v)
		}
	}
	// A single hot pixel produces positive deviation in its neighbourhood.
	a.Set(4, 4, 400)
	sd = windowStdDev(a)
	if sd.Get(4, 4) < 10 {
		t.Fatalf("stddev at hot pixel = %g", sd.Get(4, 4))
	}
	if sd.Get(0, 0) > 1e-9 {
		t.Fatalf("stddev far away = %g", sd.Get(0, 0))
	}
	// Hand-checked 3x3 window: mean over the 9 cells around (4,4) is
	// (8*300+400)/9; stddev = sqrt(mean(v^2)-mean^2).
	mean := (8*300.0 + 400) / 9
	meanSq := (8*300.0*300 + 400*400) / 9
	want := math.Sqrt(meanSq - mean*mean)
	if got := sd.Get(4, 4); math.Abs(got-want) > 1e-9 {
		t.Fatalf("stddev = %g, want %g", got, want)
	}
}

func TestResampleIdentity(t *testing.T) {
	a := New(10, 10)
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			a.Set(x, y, float64(x+y))
		}
	}
	out := a.Resample(10, 10, func(dx, dy int) (float64, float64) {
		return float64(dx), float64(dy)
	})
	for y := 0; y < 9; y++ {
		for x := 0; x < 9; x++ {
			if math.Abs(out.Get(x, y)-a.Get(x, y)) > 1e-9 {
				t.Fatalf("identity resample changed (%d,%d)", x, y)
			}
		}
	}
	// Border cells mapping outside become invalid.
	if out.Valid(9, 9) {
		t.Fatal("edge extrapolation should be invalid")
	}
}

func TestResampleShift(t *testing.T) {
	a := New(10, 10)
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			a.Set(x, y, float64(x))
		}
	}
	// Shift by half a pixel: bilinear interpolation gives x+0.5.
	out := a.Resample(10, 10, func(dx, dy int) (float64, float64) {
		return float64(dx) + 0.5, float64(dy)
	})
	if got := out.Get(3, 5); math.Abs(got-3.5) > 1e-9 {
		t.Fatalf("shifted value = %g, want 3.5", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, 1)
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.Get(0, 0) != 1 {
		t.Fatal("clone shares storage")
	}
}
