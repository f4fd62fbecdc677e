package sciql

import (
	"fmt"
	"slices"

	"repro/internal/array"
)

// Frame is the executor's working relation: a rectangular 2-D domain with
// named value columns, all sharing the domain. A stored SciQL array is a
// Frame with the declared value columns; a subquery's result is a Frame
// whose computed columns are deferred, and a statement's result computes
// every column.
type Frame struct {
	X0, Y0  int // dimension origin
	W, H    int
	cols    []Column
	valid   []bool // nil = fully valid; never written in place
	adopted bool   // over a Dense's own cells (FromDense): read only
}

// Column is one named value column, optionally qualified by the alias of
// the source that produced it. A deferred column and a cut have no Data.
type Column struct {
	Qualifier string
	Name      string
	Data      []float64
	def       *deferred
	cut       *cut
}

// cut is a column of a crop: the w×h cells of a wider frame's column c
// from its linear index off, the source frame srcW cells wide.
type cut struct {
	c               Column
	off, srcW, w, h int
}

// deferred is a subquery item not computed yet: its expression over the
// subquery's source frame, which has the item's domain, evaluated only at
// the cells a consumer selects.
type deferred struct {
	src  *Frame
	expr Expr
	win  *GroupSpec
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

// Resolve finds a column's cells by optional qualifier and name.
func (f *Frame) Resolve(qualifier, name string) ([]float64, error) {
	c, err := f.column(qualifier, name)
	return c.Data, err
}

func (f *Frame) column(qualifier, name string) (Column, error) {
	var found Column
	matches := 0
	for _, c := range f.cols {
		if c.Name != name {
			continue
		}
		if qualifier != "" && c.Qualifier != qualifier {
			continue
		}
		found = c
		matches++
	}
	switch {
	case matches == 0:
		if qualifier != "" {
			return Column{}, fmt.Errorf("sciql: unknown column %s.%s", qualifier, name)
		}
		return Column{}, fmt.Errorf("sciql: unknown column %q", name)
	case matches > 1 && qualifier == "":
		return Column{}, fmt.Errorf("sciql: ambiguous column %q", name)
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

// FromDense wraps a storage array as a single-column frame over its own
// values and validity, read-only: the evaluator writes only columns it
// computed, and its result copies out every column it does not own.
func FromDense(d *array.Dense, colName string) *Frame {
	x0, y0 := d.Origin()
	f := NewFrame(x0, y0, d.Width(), d.Height())
	f.cols = []Column{{Name: colName, Data: d.Values()}}
	f.valid, f.adopted = d.Validity(), true
	return f
}

// Dense extracts a column as a storage array. With a single column the
// name may be empty. The array takes the cells over unless the frame
// adopted them (FromDense), and gets its own copy of the validity.
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
	if f.adopted {
		data = slices.Clone(data)
	}
	return array.FromValues(f.X0, f.Y0, f.W, f.H, data, slices.Clone(f.valid)), nil
}
