package array

// This file provides the generalised structural-grouping kernels used by
// the SciQL executor: rectangular sliding windows with independent
// relative bounds, e.g. SciQL's "GROUP BY a[x-1:x+2][y-1:y+2]" denotes
// the window dx ∈ [-1, +2), dy ∈ [-1, +2) around each anchor cell. The
// kernels write every cell of a caller's w×h row-major buffer (0 for a
// window clamped to nothing), so an executor can recycle its buffers.

// WindowSpec is a relative window: lo bounds inclusive, hi bounds
// exclusive, matching SciQL slice syntax.
type WindowSpec struct {
	XLo, XHi, YLo, YHi int
}

// WindowSum writes, per cell, the sum of the window around it (clamped
// at the edges) in O(1) per cell via a summed-area table built in sat,
// which must hold (w+1)·(h+1) cells. dst may be src: the table holds
// every cell before the first is written.
func WindowSum(dst, sat, src []float64, w, h int, spec WindowSpec) {
	windowSums(dst, sat, src, w, h, spec, false)
}

// WindowAvg is WindowSum divided by the window population; like it, dst
// may be src.
func WindowAvg(dst, sat, src []float64, w, h int, spec WindowSpec) {
	windowSums(dst, sat, src, w, h, spec, true)
}

// windowSums is WindowSum, each sum divided by its window's population
// when avg is set.
func windowSums(dst, sat, src []float64, w, h int, spec WindowSpec, avg bool) {
	summedAreaTable(sat, src, w, h)
	w1 := w + 1
	for y := 0; y < h; y++ {
		y0 := max(y+spec.YLo, 0)
		y1 := min(y+spec.YHi-1, h-1)
		for x := 0; x < w; x++ {
			x0 := max(x+spec.XLo, 0)
			x1 := min(x+spec.XHi-1, w-1)
			if x1 < x0 || y1 < y0 {
				dst[y*w+x] = 0
				continue
			}
			sum := sat[(y1+1)*w1+(x1+1)] - sat[y0*w1+(x1+1)] -
				sat[(y1+1)*w1+x0] + sat[y0*w1+x0]
			if avg {
				sum /= float64((x1 - x0 + 1) * (y1 - y0 + 1))
			}
			dst[y*w+x] = sum
		}
	}
}

// summedAreaTable fills sat with the (w+1)×(h+1) inclusive prefix-sum
// table of the w×h row-major src.
func summedAreaTable(sat, src []float64, w, h int) {
	w1 := w + 1
	clear(sat[:w1])
	for y := 0; y < h; y++ {
		sat[(y+1)*w1] = 0
		var rowSum float64
		for x := 0; x < w; x++ {
			rowSum += src[y*w+x]
			sat[(y+1)*w1+(x+1)] = sat[y*w1+(x+1)] + rowSum
		}
	}
}

// WindowCount writes the clamped population of the window per cell.
func WindowCount(dst []float64, w, h int, spec WindowSpec) {
	for y := 0; y < h; y++ {
		ny := max(min(y+spec.YHi-1, h-1)-max(y+spec.YLo, 0)+1, 0)
		for x := 0; x < w; x++ {
			dst[y*w+x] = float64(ny * max(min(x+spec.XHi-1, w-1)-max(x+spec.XLo, 0)+1, 0))
		}
	}
}

// WindowMin writes the windowed minimum (naive scan; windows in the
// service are 3×3, so the constant factor is small). dst must not be
// src.
func WindowMin(dst, src []float64, w, h int, spec WindowSpec) {
	windowExtreme(dst, src, w, h, spec, func(a, b float64) bool { return a < b })
}

// WindowMax writes the windowed maximum; dst must not be src.
func WindowMax(dst, src []float64, w, h int, spec WindowSpec) {
	windowExtreme(dst, src, w, h, spec, func(a, b float64) bool { return a > b })
}

func windowExtreme(dst, src []float64, w, h int, spec WindowSpec, better func(a, b float64) bool) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			first := true
			var best float64
			for dy := spec.YLo; dy < spec.YHi; dy++ {
				yy := y + dy
				if yy < 0 || yy >= h {
					continue
				}
				for dx := spec.XLo; dx < spec.XHi; dx++ {
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
			dst[y*w+x] = best
		}
	}
}
