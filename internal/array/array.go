// Package array implements the scientific 2-D array engine underneath the
// SciQL front-end: dense float64 arrays with integer x/y dimensions,
// validity masks, slicing, elementwise kernels and O(1)-per-cell sliding
// window aggregation via summed-area tables. It plays the role MonetDB's
// array storage plays in the paper.
package array

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
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

// FromValues builds an array from row-major values.
func FromValues(w, h int, vals []float64) (*Dense, error) {
	if len(vals) != w*h {
		return nil, fmt.Errorf("array: %d values for %dx%d array", len(vals), w, h)
	}
	a := New(w, h)
	copy(a.vals, vals)
	return a, nil
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

// Map applies f to every cell, returning a new array with the same domain.
func (a *Dense) Map(f func(v float64) float64) *Dense {
	out := a.Clone()
	for i, v := range out.vals {
		out.vals[i] = f(v)
	}
	return out
}

// Zip combines two arrays cell-wise. The arrays must share width/height;
// origins may differ (cells are aligned positionally, the SciQL dimension
// join after both sides were cropped to the same window).
func Zip(a, b *Dense, f func(av, bv float64) float64) (*Dense, error) {
	if a.w != b.w || a.h != b.h {
		return nil, fmt.Errorf("array: Zip on %dx%d vs %dx%d", a.w, a.h, b.w, b.h)
	}
	out := a.Clone()
	for i := range out.vals {
		out.vals[i] = f(a.vals[i], b.vals[i])
	}
	if b.valid != nil {
		if out.valid == nil {
			out.valid = make([]bool, out.w*out.h)
			for i := range out.valid {
				out.valid[i] = true
			}
		}
		for i := range out.valid {
			out.valid[i] = out.valid[i] && b.valid[i]
		}
	}
	return out, nil
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

// WindowMean computes, for every cell, the mean over the (2r+1)×(2r+1)
// window centred on it (clamped at edges), using a summed-area table:
// O(1) per cell regardless of radius. This is the workhorse of the SciQL
// structural grouping "GROUP BY a[x-1:x+2][y-1:y+2]" in the paper's
// classification query.
func (a *Dense) WindowMean(r int) *Dense {
	sat := make([]float64, (a.w+1)*(a.h+1))
	summedAreaTable(sat, a.vals, a.w, a.h)
	cnt := a.countTable(r)
	out := NewWithOrigin(a.x0, a.y0, a.w, a.h)
	for y := 0; y < a.h; y++ {
		for x := 0; x < a.w; x++ {
			out.vals[y*a.w+x] = windowSum(sat, a.w, a.h, x, y, r) / cnt[y*a.w+x]
		}
	}
	return out
}

// WindowMeanNaive is the rescan implementation used by the ablation
// benchmark: O(r²) per cell.
func (a *Dense) WindowMeanNaive(r int) *Dense {
	out := NewWithOrigin(a.x0, a.y0, a.w, a.h)
	for y := 0; y < a.h; y++ {
		for x := 0; x < a.w; x++ {
			var sum float64
			n := 0
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					xx, yy := x+dx, y+dy
					if xx < 0 || xx >= a.w || yy < 0 || yy >= a.h {
						continue
					}
					sum += a.vals[yy*a.w+xx]
					n++
				}
			}
			out.vals[y*a.w+x] = sum / float64(n)
		}
	}
	return out
}

// WindowStdDev computes the windowed standard deviation per cell:
// sqrt(mean(v²) − mean(v)²), exactly the formulation in the paper's
// Figure 4 query.
func (a *Dense) WindowStdDev(r int) *Dense {
	mean := a.WindowMean(r)
	sq := a.Map(func(v float64) float64 { return v * v })
	meanSq := sq.WindowMean(r)
	out := NewWithOrigin(a.x0, a.y0, a.w, a.h)
	for i := range out.vals {
		d := meanSq.vals[i] - mean.vals[i]*mean.vals[i]
		if d < 0 {
			d = 0 // numerical noise
		}
		out.vals[i] = math.Sqrt(d)
	}
	return out
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

// windowSum sums the clamped window around (x, y) from a SAT.
func windowSum(sat []float64, w, h, x, y, r int) float64 {
	x0, y0 := max(x-r, 0), max(y-r, 0)
	x1, y1 := min(x+r, w-1), min(y+r, h-1)
	w1 := w + 1
	return sat[(y1+1)*w1+(x1+1)] - sat[y0*w1+(x1+1)] - sat[(y1+1)*w1+x0] + sat[y0*w1+x0]
}

// countTable precomputes the clamped window population per cell.
func (a *Dense) countTable(r int) []float64 {
	out := make([]float64, a.w*a.h)
	for y := 0; y < a.h; y++ {
		ny := min(y+r, a.h-1) - max(y-r, 0) + 1
		for x := 0; x < a.w; x++ {
			nx := min(x+r, a.w-1) - max(x-r, 0) + 1
			out[y*a.w+x] = float64(nx * ny)
		}
	}
	return out
}

// Resample maps this array onto a new grid of size w×h using the inverse
// transform inv: for each destination cell, inv returns the source
// coordinates, and the value is bilinearly interpolated. Cells mapping
// outside the source are invalidated. This is the georeferencing kernel.
func (a *Dense) Resample(w, h int, inv func(dx, dy int) (sx, sy float64)) *Dense {
	out := New(w, h)
	out.valid = make([]bool, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sx, sy := inv(x, y)
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
			out.vals[y*w+x] = v00*(1-tx)*(1-ty) + v10*tx*(1-ty) + v01*(1-tx)*ty + v11*tx*ty
			out.valid[y*w+x] = true
		}
	}
	return out
}

const denseMagic = uint32(0x53714C41) // "SqLA"

// WriteTo serialises the array in a compact binary format.
func (a *Dense) WriteTo(w io.Writer) (int64, error) {
	hdr := []any{
		denseMagic,
		int32(a.x0), int32(a.y0), int32(a.w), int32(a.h),
		int32(boolToInt(a.valid != nil)),
	}
	var n int64
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return n, err
		}
		n += 4
	}
	if err := binary.Write(w, binary.LittleEndian, a.vals); err != nil {
		return n, err
	}
	n += int64(8 * len(a.vals))
	if a.valid != nil {
		bits := packBools(a.valid)
		if err := binary.Write(w, binary.LittleEndian, bits); err != nil {
			return n, err
		}
		n += int64(len(bits))
	}
	return n, nil
}

// ReadFrom deserialises an array written by WriteTo.
func ReadFrom(r io.Reader) (*Dense, error) {
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, err
	}
	if magic != denseMagic {
		return nil, fmt.Errorf("array: bad magic %#x", magic)
	}
	var x0, y0, w, h, hasValid int32
	for _, p := range []*int32{&x0, &y0, &w, &h, &hasValid} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	if w < 0 || h < 0 || int64(w)*int64(h) > 1<<31 {
		return nil, fmt.Errorf("array: unreasonable dimensions %dx%d", w, h)
	}
	a := NewWithOrigin(int(x0), int(y0), int(w), int(h))
	if err := binary.Read(r, binary.LittleEndian, a.vals); err != nil {
		return nil, err
	}
	if hasValid != 0 {
		bits := make([]byte, (len(a.vals)+7)/8)
		if err := binary.Read(r, binary.LittleEndian, bits); err != nil {
			return nil, err
		}
		a.valid = unpackBools(bits, len(a.vals))
	}
	return a, nil
}

func packBools(bs []bool) []byte {
	out := make([]byte, (len(bs)+7)/8)
	for i, b := range bs {
		if b {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

func unpackBools(bits []byte, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = bits[i/8]&(1<<(i%8)) != 0
	}
	return out
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
