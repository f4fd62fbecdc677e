package array

// This file provides the generalised structural-grouping kernels used by
// the SciQL executor: rectangular sliding windows with independent
// relative bounds, e.g. SciQL's "GROUP BY a[x-1:x+2][y-1:y+2]" denotes
// the window dx ∈ [-1, +2), dy ∈ [-1, +2) around each anchor cell. Each
// kernel reads one anchor cell of a w×h row-major array, so an executor
// computes a window aggregate only at the cells it needs.

// WindowSpec is a relative window: lo bounds inclusive, hi bounds
// exclusive, matching SciQL slice syntax.
type WindowSpec struct {
	XLo, XHi, YLo, YHi int
}

// SummedAreaTable fills sat, which must hold (w+1)·(h+1) cells, with the
// inclusive prefix-sum table of the w×h row-major src.
func SummedAreaTable(sat, src []float64, w, h int) {
	w1 := w + 1
	clear(sat[:w1])
	for y := 0; y < h; y++ {
		above, row := sat[y*w1+1:(y+1)*w1], sat[(y+1)*w1:(y+2)*w1]
		row[0] = 0
		var rowSum float64
		for x, v := range src[y*w : (y+1)*w] {
			rowSum += v
			row[x+1] = above[x] + rowSum
		}
	}
}

// Sum returns the sum of the window around (x, y), clamped at the edges,
// in O(1) from the array's summed-area table, and the number of cells the
// window covers: 0, with a sum of 0, for a window clamped to nothing.
func (s WindowSpec) Sum(sat []float64, w, h, x, y int) (float64, int) {
	x0, x1 := max(x+s.XLo, 0), min(x+s.XHi-1, w-1)
	y0, y1 := max(y+s.YLo, 0), min(y+s.YHi-1, h-1)
	if x1 < x0 || y1 < y0 {
		return 0, 0
	}
	w1 := w + 1
	return sat[(y1+1)*w1+(x1+1)] - sat[y0*w1+(x1+1)] -
		sat[(y1+1)*w1+x0] + sat[y0*w1+x0], (x1 - x0 + 1) * (y1 - y0 + 1)
}

// Count returns the clamped population of the window around (x, y).
func (s WindowSpec) Count(w, h, x, y int) int {
	ny := max(min(y+s.YHi-1, h-1)-max(y+s.YLo, 0)+1, 0)
	return ny * max(min(x+s.XHi-1, w-1)-max(x+s.XLo, 0)+1, 0)
}

// Extreme returns the value of the window around (x, y) that no other
// beats, the first in row order among equals (naive scan; windows in the
// service are 3×3, so the constant factor is small), or 0 for a window
// clamped to nothing.
func (s WindowSpec) Extreme(src []float64, w, h, x, y int, better func(a, b float64) bool) float64 {
	first := true
	var best float64
	for dy := s.YLo; dy < s.YHi; dy++ {
		yy := y + dy
		if yy < 0 || yy >= h {
			continue
		}
		for dx := s.XLo; dx < s.XHi; dx++ {
			xx := x + dx
			if xx < 0 || xx >= w {
				continue
			}
			v := src[yy*w+xx]
			if first || better(v, best) {
				best = v
				first = false
			}
		}
	}
	return best
}
