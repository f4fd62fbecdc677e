// Package georef implements the georeferencing step of the processing
// chain: mapping raw geostationary scan coordinates onto a regular
// geographic grid with a pre-calculated second-degree polynomial
// transform, exactly as the paper describes ("resamples the image into a
// slightly larger size and applies a two degree polynomial in order to
// map pixels of the old image to the pixels of the new image. The
// coefficients of the polynomial as well as the target image dimensions
// are all precalculated.").
package georef

import "repro/internal/array"

// Poly2 is a bivariate polynomial of total degree two:
// f(u, v) = C0 + C1·u + C2·v + C3·u² + C4·u·v + C5·v².
type Poly2 [6]float64

// Eval evaluates the polynomial.
func (p Poly2) Eval(u, v float64) float64 {
	return p[0] + p[1]*u + p[2]*v + p[3]*u*u + p[4]*u*v + p[5]*v*v
}

// Transform maps destination grid pixels back to source image pixels
// (the inverse mapping used for resampling) with one polynomial per
// source axis, plus the destination grid geometry.
type Transform struct {
	// SrcX and SrcY give source pixel coordinates from destination pixel
	// coordinates.
	SrcX, SrcY Poly2
	// DstWidth/DstHeight are the target grid dimensions.
	DstWidth, DstHeight int
	// Geographic anchoring of the destination grid: pixel (0,0) centre is
	// (LonMin, LatMax); lon grows with +x, lat shrinks with +y.
	LonMin, LatMax float64
	LonStep        float64 // degrees per destination pixel in x
	LatStep        float64 // degrees per destination pixel in y (positive)
}

// PixelToGeo returns the geographic centre of a destination pixel.
func (t Transform) PixelToGeo(x, y int) (lon, lat float64) {
	return t.LonMin + (float64(x)+0.5)*t.LonStep, t.LatMax - (float64(y)+0.5)*t.LatStep
}

// GeoToPixel returns the destination pixel containing a location.
func (t Transform) GeoToPixel(lon, lat float64) (x, y int) {
	return int((lon - t.LonMin) / t.LonStep), int((t.LatMax - lat) / t.LatStep)
}

// Apply resamples a source image onto the destination grid with bilinear
// interpolation. Destination cells mapping outside the source become
// invalid.
func (t Transform) Apply(src *array.Dense) *array.Dense {
	return src.Resample(t.DstWidth, t.DstHeight, t.inverse)
}

// ApplyAll resamples the channels of one scan like Apply, evaluating the
// polynomials once per pixel for all; parts goroutines split the rows.
func (t Transform) ApplyAll(parts int, srcs ...*array.Dense) []*array.Dense {
	return array.ResampleAll(srcs, t.DstWidth, t.DstHeight, parts, t.inverse)
}

// inverse maps a destination pixel to its source coordinates.
func (t Transform) inverse(dx, dy int) (float64, float64) {
	u, v := float64(dx), float64(dy)
	return t.SrcX.Eval(u, v), t.SrcY.Eval(u, v)
}
