// Package array implements the scientific 2-D array engine underneath the
// SciQL front-end: dense float64 arrays with integer x/y dimensions,
// validity masks, slicing, elementwise kernels and O(1)-per-cell sliding
// window aggregation via summed-area tables. It plays the role MonetDB's
// array storage plays in the paper.
package array

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Dense is a two-dimensional array of float64 cells. The x dimension is
// the column index and y the row index, matching the SciQL declarations
// "(x INTEGER DIMENSION, y INTEGER DIMENSION, v FLOAT)" of the paper. The
// dimension ranges may start at a non-zero offset after slicing.
type Dense struct {
	x0, y0 int // dimension origin
	w, h   int
	vals   []float64
	valid  []bool // nil means fully valid
}

// New returns a w×h array with origin (0,0), zero-filled.
func New(w, h int) *Dense {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("array: negative dimensions %dx%d", w, h))
	}
	return &Dense{w: w, h: h, vals: make([]float64, w*h)}
}

// NewWithOrigin returns a w×h array whose dimensions start at (x0, y0).
func NewWithOrigin(x0, y0, w, h int) *Dense {
	a := New(w, h)
	a.x0, a.y0 = x0, y0
	return a
}

// FromValues wraps row-major w×h cells whose dimensions start at
// (x0, y0) as an array, adopting vals and valid (nil = fully valid),
// which must hold w·h cells, rather than copying them.
func FromValues(x0, y0, w, h int, vals []float64, valid []bool) *Dense {
	return &Dense{x0: x0, y0: y0, w: w, h: h, vals: vals, valid: valid}
}

// Width returns the x extent.
func (a *Dense) Width() int { return a.w }

// Height returns the y extent.
func (a *Dense) Height() int { return a.h }

// Origin returns the first valid (x, y) dimension values.
func (a *Dense) Origin() (int, int) { return a.x0, a.y0 }

// Len returns the cell count.
func (a *Dense) Len() int { return a.w * a.h }

// Values exposes the underlying row-major cell slice. Mutating it mutates
// the array; kernels use it to avoid per-cell bounds checks.
func (a *Dense) Values() []float64 { return a.vals }

// Validity exposes the row-major validity mask, nil when every cell is
// valid. Like Values it is the array's own slice.
func (a *Dense) Validity() []bool { return a.valid }

// contains reports whether dimension coordinates are in range.
func (a *Dense) contains(x, y int) bool {
	return x >= a.x0 && x < a.x0+a.w && y >= a.y0 && y < a.y0+a.h
}

func (a *Dense) idx(x, y int) int { return (y-a.y0)*a.w + (x - a.x0) }

// Get returns the cell at dimension coordinates (x, y).
func (a *Dense) Get(x, y int) float64 {
	if !a.contains(x, y) {
		panic(fmt.Sprintf("array: Get(%d,%d) out of range [%d:%d)x[%d:%d)",
			x, y, a.x0, a.x0+a.w, a.y0, a.y0+a.h))
	}
	return a.vals[a.idx(x, y)]
}

// Set stores v at (x, y) and marks the cell valid.
func (a *Dense) Set(x, y int, v float64) {
	if !a.contains(x, y) {
		panic(fmt.Sprintf("array: Set(%d,%d) out of range", x, y))
	}
	i := a.idx(x, y)
	a.vals[i] = v
	if a.valid != nil {
		a.valid[i] = true
	}
}

// Valid reports whether the cell holds a value (true unless the cell was
// explicitly invalidated).
func (a *Dense) Valid(x, y int) bool {
	if !a.contains(x, y) {
		return false
	}
	if a.valid == nil {
		return true
	}
	return a.valid[a.idx(x, y)]
}

// Invalidate marks a cell as holding no value (SQL NULL).
func (a *Dense) Invalidate(x, y int) {
	if !a.contains(x, y) {
		return
	}
	if a.valid == nil {
		a.valid = make([]bool, a.w*a.h)
		for i := range a.valid {
			a.valid[i] = true
		}
	}
	a.valid[a.idx(x, y)] = false
}

// Clone returns a deep copy.
func (a *Dense) Clone() *Dense {
	out := &Dense{x0: a.x0, y0: a.y0, w: a.w, h: a.h, vals: append([]float64(nil), a.vals...)}
	if a.valid != nil {
		out.valid = append([]bool(nil), a.valid...)
	}
	return out
}

// Slice returns the sub-array covering dimension range [x0, x1) × [y0, y1),
// clamped to the array bounds. The result keeps absolute dimension
// coordinates, matching SciQL range-query semantics (this is the paper's
// cropping step).
func (a *Dense) Slice(x0, x1, y0, y1 int) *Dense {
	x0 = max(x0, a.x0)
	y0 = max(y0, a.y0)
	x1 = min(x1, a.x0+a.w)
	y1 = min(y1, a.y0+a.h)
	if x1 <= x0 || y1 <= y0 {
		return NewWithOrigin(x0, y0, 0, 0)
	}
	out := NewWithOrigin(x0, y0, x1-x0, y1-y0)
	for y := y0; y < y1; y++ {
		srcRow := a.idx(x0, y)
		dstRow := out.idx(x0, y)
		copy(out.vals[dstRow:dstRow+out.w], a.vals[srcRow:srcRow+out.w])
	}
	if a.valid != nil {
		out.valid = make([]bool, out.w*out.h)
		for y := y0; y < y1; y++ {
			srcRow := a.idx(x0, y)
			dstRow := out.idx(x0, y)
			copy(out.valid[dstRow:dstRow+out.w], a.valid[srcRow:srcRow+out.w])
		}
	}
	return out
}

// Fill sets every cell to v.
func (a *Dense) Fill(v float64) {
	for i := range a.vals {
		a.vals[i] = v
	}
}

// Stats summarises the valid cells.
type Stats struct {
	Count    int
	Min, Max float64
	Mean     float64
}

// Summary computes min/max/mean over valid cells.
func (a *Dense) Summary() Stats {
	s := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for i, v := range a.vals {
		if a.valid != nil && !a.valid[i] {
			continue
		}
		s.Count++
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	if s.Count > 0 {
		s.Mean = sum / float64(s.Count)
	} else {
		s.Min, s.Max = 0, 0
	}
	return s
}

// Resample maps this array onto a new grid of size w×h using the inverse
// transform inv: for each destination cell, inv returns the source
// coordinates, and the value is bilinearly interpolated. Cells mapping
// outside the source are invalidated. This is the georeferencing kernel.
func (a *Dense) Resample(w, h int, inv func(dx, dy int) (sx, sy float64)) *Dense {
	return ResampleAll([]*Dense{a}, w, h, 1, inv)[0]
}

// ResampleAll resamples every source onto the w×h grid like Resample,
// calling inv once per destination cell for all of them; parts
// goroutines each take a band of the destination rows.
func ResampleAll(srcs []*Dense, w, h, parts int, inv func(dx, dy int) (sx, sy float64)) []*Dense {
	outs := make([]*Dense, len(srcs))
	for i := range outs {
		outs[i] = New(w, h)
		outs[i].valid = make([]bool, w*h)
	}
	var wg sync.WaitGroup
	for p := 1; p < parts; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resampleRows(srcs, outs, h*p/parts, h*(p+1)/parts, inv)
		}()
	}
	resampleRows(srcs, outs, 0, h/max(parts, 1), inv)
	wg.Wait()
	for _, o := range outs {
		if !slices.Contains(o.valid, false) {
			o.valid = nil // every cell mapped inside its source
		}
	}
	return outs
}

// resampleRows fills rows [y0, y1) of each outs[i] from srcs[i].
func resampleRows(srcs, outs []*Dense, y0, y1 int, inv func(dx, dy int) (sx, sy float64)) {
	w := outs[0].w
	for y := y0; y < y1; y++ {
		for x := 0; x < w; x++ {
			sx, sy := inv(x, y)
			for i, a := range srcs {
				fx, fy := sx-float64(a.x0), sy-float64(a.y0)
				ix, iy := int(math.Floor(fx)), int(math.Floor(fy))
				if ix < 0 || iy < 0 || ix >= a.w-1 || iy >= a.h-1 {
					continue
				}
				tx, ty := fx-float64(ix), fy-float64(iy)
				v00 := a.vals[iy*a.w+ix]
				v10 := a.vals[iy*a.w+ix+1]
				v01 := a.vals[(iy+1)*a.w+ix]
				v11 := a.vals[(iy+1)*a.w+ix+1]
				outs[i].vals[y*w+x] = v00*(1-tx)*(1-ty) + v10*tx*(1-ty) + v01*(1-tx)*ty + v11*tx*ty
				outs[i].valid[y*w+x] = true
			}
		}
	}
}
