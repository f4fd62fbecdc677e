package sciql

import (
	"fmt"

	"repro/internal/array"
)

// Frame is the executor's working relation: a rectangular 2-D domain with
// named value columns, all sharing the domain. A stored SciQL array is a
// Frame with the declared value columns; subquery results are Frames with
// computed columns.
type Frame struct {
	X0, Y0 int // dimension origin
	W, H   int
	cols   []Column
	valid  []bool // nil = fully valid
}

// Column is one named value column, optionally qualified by the alias of
// the source that produced it.
type Column struct {
	Qualifier string
	Name      string
	Data      []float64
}

// NewFrame returns an empty frame with the given domain.
func NewFrame(x0, y0, w, h int) *Frame {
	return &Frame{X0: x0, Y0: y0, W: w, H: h}
}

// Len returns the cell count.
func (f *Frame) Len() int { return f.W * f.H }

// AddColumn appends a column; the data length must match the domain.
func (f *Frame) AddColumn(qualifier, name string, data []float64) error {
	if len(data) != f.Len() {
		return fmt.Errorf("sciql: column %q has %d cells for a %dx%d frame",
			name, len(data), f.W, f.H)
	}
	f.cols = append(f.cols, Column{Qualifier: qualifier, Name: name, Data: data})
	return nil
}

// Resolve finds a column by optional qualifier and name.
func (f *Frame) Resolve(qualifier, name string) ([]float64, error) {
	var found []float64
	matches := 0
	for _, c := range f.cols {
		if c.Name != name {
			continue
		}
		if qualifier != "" && c.Qualifier != qualifier {
			continue
		}
		found = c.Data
		matches++
	}
	switch {
	case matches == 0:
		if qualifier != "" {
			return nil, fmt.Errorf("sciql: unknown column %s.%s", qualifier, name)
		}
		return nil, fmt.Errorf("sciql: unknown column %q", name)
	case matches > 1 && qualifier == "":
		return nil, fmt.Errorf("sciql: ambiguous column %q", name)
	default:
		return found, nil
	}
}

// Requalify rewrites every column's qualifier (used when a source gets an
// alias).
func (f *Frame) Requalify(alias string) {
	for i := range f.cols {
		f.cols[i].Qualifier = alias
	}
}

// Valid reports per-cell validity by linear index.
func (f *Frame) Valid(i int) bool { return f.valid == nil || f.valid[i] }

// MaskInvalid marks cells where mask is zero as invalid. The validity is
// copied on write: the old one may be shared with a catalog array.
func (f *Frame) MaskInvalid(mask []float64) {
	valid := make([]bool, f.Len())
	for i, m := range mask {
		valid[i] = f.Valid(i) && m != 0
	}
	f.valid = valid
}

// FromDense wraps a storage array as a single-column frame.
func FromDense(d *array.Dense, colName string) *Frame {
	x0, y0 := d.Origin()
	f := NewFrame(x0, y0, d.Width(), d.Height())
	f.cols = []Column{{Name: colName, Data: append([]float64(nil), d.Values()...)}}
	f.valid = denseValidity(d)
	return f
}

func denseValidity(d *array.Dense) []bool {
	x0, y0 := d.Origin()
	any := false
	out := make([]bool, d.Len())
	for y := 0; y < d.Height(); y++ {
		for x := 0; x < d.Width(); x++ {
			v := d.Valid(x0+x, y0+y)
			out[y*d.Width()+x] = v
			if !v {
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	return out
}

// Dense extracts a column as a storage array. With a single column the
// name may be empty.
func (f *Frame) Dense(colName string) (*array.Dense, error) {
	var data []float64
	switch {
	case colName == "" && len(f.cols) == 1:
		data = f.cols[0].Data
	case colName == "":
		return nil, fmt.Errorf("sciql: frame has %d columns; name one", len(f.cols))
	default:
		var err error
		data, err = f.Resolve("", colName)
		if err != nil {
			return nil, err
		}
	}
	d := array.NewWithOrigin(f.X0, f.Y0, f.W, f.H)
	copy(d.Values(), data)
	if f.valid != nil {
		for y := 0; y < f.H; y++ {
			for x := 0; x < f.W; x++ {
				if !f.valid[y*f.W+x] {
					d.Invalidate(f.X0+x, f.Y0+y)
				}
			}
		}
	}
	return d, nil
}
