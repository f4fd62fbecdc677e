package detect

import (
	"math"

	"repro/internal/array"
)

// LegacyClassify is the imperative baseline classification: a direct
// translation of the hand-written C loop structure of NOA's pre-TELEIOS
// chain. Each pixel rescans its 3×3 neighbourhood (no shared prefix
// sums), computes both windowed standard deviations, and applies the
// thresholds inline. Table 2 compares the chain built on this routine
// against the declarative SciQL chain.
func LegacyClassify(t039, t108 *array.Dense, zenith func(x, y int) float64) *array.Dense {
	w, h := t039.Width(), t039.Height()
	x0, y0 := t039.Origin()
	a := t039.Values()
	b := t108.Values()
	out := array.NewWithOrigin(x0, y0, w, h)
	res := out.Values()

	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			// Windowed first and second moments, rescanned per pixel.
			var sumA, sumA2, sumB, sumB2 float64
			n := 0
			for dy := -1; dy <= 1; dy++ {
				yy := y + dy
				if yy < 0 || yy >= h {
					continue
				}
				for dx := -1; dx <= 1; dx++ {
					xx := x + dx
					if xx < 0 || xx >= w {
						continue
					}
					va := a[yy*w+xx]
					vb := b[yy*w+xx]
					sumA += va
					sumA2 += va * va
					sumB += vb
					sumB2 += vb * vb
					n++
				}
			}
			fn := float64(n)
			meanA := sumA / fn
			meanB := sumB / fn
			varA := sumA2/fn - meanA*meanA
			varB := sumB2/fn - meanB*meanB
			if varA < 0 {
				varA = 0
			}
			if varB < 0 {
				varB = 0
			}
			stdA := math.Sqrt(varA)
			stdB := math.Sqrt(varB)

			th := DayThresholds
			if zenith != nil {
				th = ForZenith(zenith(x, y))
			}
			res[y*w+x] = float64(ClassifyPixel(a[y*w+x], b[y*w+x], stdA, stdB, th))
		}
	}
	return out
}
