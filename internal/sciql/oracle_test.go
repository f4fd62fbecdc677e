package sciql

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/array"
)

// The oracle: the SELECT path as it was before the evaluator recycled
// its temporaries — every literal and every operator materialised a
// fresh column, every source was cloned or copy-cropped, validity was
// masked in place. The bodies are kept verbatim (renamed; the array
// window kernels, which lived on array.Dense, read its cells through
// Values). The evaluator must return what they return, bit for bit.

func oracleExec(e *Engine, src string) (*Frame, error) {
	stmt, err := ParseStmt(src)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *InsertSelect:
		f, err := oracleSelect(e, s.Sel)
		if err != nil {
			return nil, err
		}
		return nil, e.storeInto(s.Name, f)
	case *Select:
		return oracleSelect(e, s)
	default:
		return e.ExecStmt(stmt)
	}
}

func oracleSelect(e *Engine, s *Select) (*Frame, error) {
	base, err := oracleFrom(e, s.From)
	if err != nil {
		return nil, err
	}

	// WHERE: split the conjunction into dimension-range constraints
	// (cropping, the paper's range query) and residual cell predicates
	// (validity masking).
	if s.Where != nil {
		crop, residual := splitWhere(s.Where)
		if crop != nil {
			base = oracleCrop(base, crop.x0, crop.x1, crop.y0, crop.y1)
		}
		if residual != nil && base.Len() > 0 {
			mask, err := oracleExprCol(e, base, residual, nil)
			if err != nil {
				return nil, err
			}
			oracleMaskInvalid(base, mask)
		}
	}

	// Validate the GROUP BY target references this FROM.
	if s.GroupBy != nil {
		if !frameHasQualifier(base, s.GroupBy.Target) {
			return nil, fmt.Errorf("sciql: GROUP BY target %q is not a source of this query", s.GroupBy.Target)
		}
	}

	out := NewFrame(base.X0, base.Y0, base.W, base.H)
	out.valid = base.valid
	sawDim := map[string]bool{}
	anon := 0
	for _, item := range s.Items {
		if item.Dim != "" {
			sawDim[item.Dim] = true
			continue
		}
		col, err := oracleExprCol(e, base, item.Expr, s.GroupBy)
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(*ColRef); ok {
				name = cr.Name
			} else {
				anon++
				name = fmt.Sprintf("col%d", anon)
			}
		}
		if err := out.AddColumn("", name, col); err != nil {
			return nil, err
		}
	}
	if len(out.cols) == 0 {
		return nil, fmt.Errorf("sciql: SELECT projects no value columns")
	}
	_ = sawDim // dimension projections are implicit in the array result
	return out, nil
}

func oracleFrom(e *Engine, fc FromClause) (*Frame, error) {
	switch src := fc.(type) {
	case *TableRef:
		stored, ok := e.arrays[src.Name]
		if !ok {
			return nil, fmt.Errorf("sciql: unknown array %q", src.Name)
		}
		f := oracleClone(stored)
		alias := src.Alias
		if alias == "" {
			alias = src.Name
		}
		f.Requalify(alias)
		if src.Slice != nil {
			f = oracleCrop(f, src.Slice.X0, src.Slice.X1, src.Slice.Y0, src.Slice.Y1)
		}
		return f, nil
	case *FuncRef:
		fn, ok := e.fns[src.Name]
		if !ok {
			return nil, fmt.Errorf("sciql: unknown table function %q", src.Name)
		}
		f, err := fn(src.Args)
		if err != nil {
			return nil, fmt.Errorf("sciql: %s: %w", src.Name, err)
		}
		if src.Alias != "" {
			f.Requalify(src.Alias)
		}
		return f, nil
	case *SubqueryRef:
		f, err := oracleSelect(e, src.Sel)
		if err != nil {
			return nil, err
		}
		f.Requalify(src.Alias)
		return f, nil
	case *JoinRef:
		l, err := oracleFrom(e, src.L)
		if err != nil {
			return nil, err
		}
		r, err := oracleFrom(e, src.R)
		if err != nil {
			return nil, err
		}
		if !isDimEquiJoin(src.On) {
			return nil, fmt.Errorf("sciql: only dimension equi-joins (x = x AND y = y) are supported")
		}
		return oracleJoinFrames(l, r)
	default:
		return nil, fmt.Errorf("sciql: unsupported FROM clause %T", fc)
	}
}

func oracleJoinFrames(l, r *Frame) (*Frame, error) {
	x0 := max(l.X0, r.X0)
	y0 := max(l.Y0, r.Y0)
	x1 := min(l.X0+l.W, r.X0+r.W)
	y1 := min(l.Y0+l.H, r.Y0+r.H)
	lc := oracleCrop(l, x0, x1, y0, y1)
	rc := oracleCrop(r, x0, x1, y0, y1)
	out := NewFrame(lc.X0, lc.Y0, lc.W, lc.H)
	out.cols = append(out.cols, lc.cols...)
	out.cols = append(out.cols, rc.cols...)
	if lc.valid != nil || rc.valid != nil {
		out.valid = make([]bool, out.Len())
		for i := range out.valid {
			out.valid[i] = lc.Valid(i) && rc.Valid(i)
		}
	}
	return out, nil
}

// oracleCrop is Frame.Crop verbatim.
func oracleCrop(f *Frame, x0, x1, y0, y1 int) *Frame {
	x0 = max(x0, f.X0)
	y0 = max(y0, f.Y0)
	x1 = min(x1, f.X0+f.W)
	y1 = min(y1, f.Y0+f.H)
	if x1 <= x0 || y1 <= y0 {
		x1, y1 = x0, y0 // no cell: a zero-size frame that keeps the columns
	}
	out := NewFrame(x0, y0, x1-x0, y1-y0)
	for _, c := range f.cols {
		data := make([]float64, out.Len())
		for y := 0; y < out.H; y++ {
			srcOff := (y0-f.Y0+y)*f.W + (x0 - f.X0)
			copy(data[y*out.W:(y+1)*out.W], c.Data[srcOff:srcOff+out.W])
		}
		out.cols = append(out.cols, Column{Qualifier: c.Qualifier, Name: c.Name, Data: data})
	}
	if f.valid != nil && out.Len() > 0 {
		out.valid = make([]bool, out.Len())
		for y := 0; y < out.H; y++ {
			srcOff := (y0-f.Y0+y)*f.W + (x0 - f.X0)
			copy(out.valid[y*out.W:(y+1)*out.W], f.valid[srcOff:srcOff+out.W])
		}
	}
	return out
}

// oracleClone is Frame.Clone verbatim.
func oracleClone(f *Frame) *Frame {
	out := NewFrame(f.X0, f.Y0, f.W, f.H)
	for _, c := range f.cols {
		out.cols = append(out.cols, Column{
			Qualifier: c.Qualifier, Name: c.Name,
			Data: append([]float64(nil), c.Data...),
		})
	}
	if f.valid != nil {
		out.valid = append([]bool(nil), f.valid...)
	}
	return out
}

// oracleMaskInvalid is Frame.MaskInvalid verbatim: in place.
func oracleMaskInvalid(f *Frame, mask []float64) {
	if f.valid == nil {
		f.valid = make([]bool, f.Len())
		for i := range f.valid {
			f.valid[i] = true
		}
	}
	for i, m := range mask {
		if m == 0 {
			f.valid[i] = false
		}
	}
}

// oracleDimColumn is Frame.DimColumn verbatim.
func oracleDimColumn(f *Frame, dim string) ([]float64, error) {
	out := make([]float64, f.Len())
	switch dim {
	case "x":
		for y := 0; y < f.H; y++ {
			for x := 0; x < f.W; x++ {
				out[y*f.W+x] = float64(f.X0 + x)
			}
		}
	case "y":
		for y := 0; y < f.H; y++ {
			for x := 0; x < f.W; x++ {
				out[y*f.W+x] = float64(f.Y0 + y)
			}
		}
	default:
		return nil, fmt.Errorf("sciql: unknown dimension %q", dim)
	}
	return out, nil
}

func oracleExprCol(e *Engine, f *Frame, expr Expr, win *GroupSpec) ([]float64, error) {
	n := f.Len()
	switch v := expr.(type) {
	case *NumLit:
		out := make([]float64, n)
		for i := range out {
			out[i] = v.V
		}
		return out, nil
	case *ColRef:
		col, err := f.Resolve(v.Qualifier, v.Name)
		if err != nil {
			return nil, err
		}
		return col, nil
	case *DimRef:
		return oracleDimColumn(f, v.Name)
	case *UnaryExpr:
		x, err := oracleExprCol(e, f, v.X, win)
		if err != nil {
			return nil, err
		}
		out := make([]float64, n)
		switch v.Op {
		case "-":
			for i := range out {
				out[i] = -x[i]
			}
		case "NOT":
			for i := range out {
				if x[i] == 0 {
					out[i] = 1
				}
			}
		default:
			return nil, fmt.Errorf("sciql: unknown unary operator %q", v.Op)
		}
		return out, nil
	case *BinExpr:
		l, err := oracleExprCol(e, f, v.L, win)
		if err != nil {
			return nil, err
		}
		r, err := oracleExprCol(e, f, v.R, win)
		if err != nil {
			return nil, err
		}
		return oracleBinOp(v.Op, l, r)
	case *BetweenExpr:
		x, err := oracleExprCol(e, f, v.X, win)
		if err != nil {
			return nil, err
		}
		lo, err := oracleExprCol(e, f, v.Lo, win)
		if err != nil {
			return nil, err
		}
		hi, err := oracleExprCol(e, f, v.Hi, win)
		if err != nil {
			return nil, err
		}
		out := make([]float64, n)
		for i := range out {
			if x[i] >= lo[i] && x[i] <= hi[i] {
				out[i] = 1
			}
		}
		return out, nil
	case *CaseExpr:
		out := make([]float64, n)
		decided := make([]bool, n)
		for _, w := range v.Whens {
			cond, err := oracleExprCol(e, f, w.Cond, win)
			if err != nil {
				return nil, err
			}
			then, err := oracleExprCol(e, f, w.Then, win)
			if err != nil {
				return nil, err
			}
			for i := range out {
				if !decided[i] && cond[i] != 0 {
					out[i] = then[i]
					decided[i] = true
				}
			}
		}
		if v.Else != nil {
			els, err := oracleExprCol(e, f, v.Else, win)
			if err != nil {
				return nil, err
			}
			for i := range out {
				if !decided[i] {
					out[i] = els[i]
				}
			}
		}
		return out, nil
	case *FuncExpr:
		return oracleFuncCol(e, f, v, win)
	default:
		return nil, fmt.Errorf("sciql: unsupported expression %T", expr)
	}
}

func oracleBinOp(op string, l, r []float64) ([]float64, error) {
	out := make([]float64, len(l))
	switch op {
	case "+":
		for i := range out {
			out[i] = l[i] + r[i]
		}
	case "-":
		for i := range out {
			out[i] = l[i] - r[i]
		}
	case "*":
		for i := range out {
			out[i] = l[i] * r[i]
		}
	case "/":
		for i := range out {
			if r[i] != 0 {
				out[i] = l[i] / r[i]
			}
		}
	case "=":
		for i := range out {
			out[i] = b2f(l[i] == r[i])
		}
	case "<>":
		for i := range out {
			out[i] = b2f(l[i] != r[i])
		}
	case "<":
		for i := range out {
			out[i] = b2f(l[i] < r[i])
		}
	case "<=":
		for i := range out {
			out[i] = b2f(l[i] <= r[i])
		}
	case ">":
		for i := range out {
			out[i] = b2f(l[i] > r[i])
		}
	case ">=":
		for i := range out {
			out[i] = b2f(l[i] >= r[i])
		}
	case "AND":
		for i := range out {
			out[i] = b2f(l[i] != 0 && r[i] != 0)
		}
	case "OR":
		for i := range out {
			out[i] = b2f(l[i] != 0 || r[i] != 0)
		}
	default:
		return nil, fmt.Errorf("sciql: unknown operator %q", op)
	}
	return out, nil
}

func oracleFuncCol(e *Engine, f *Frame, fn *FuncExpr, win *GroupSpec) ([]float64, error) {
	if aggregateFns[fn.Name] {
		if win == nil {
			return nil, fmt.Errorf("sciql: aggregate %s outside structural GROUP BY", fn.Name)
		}
		spec := array.WindowSpec{XLo: win.XLo, XHi: win.XHi, YLo: win.YLo, YHi: win.YHi}
		if fn.Name == "COUNT" {
			d := array.NewWithOrigin(f.X0, f.Y0, f.W, f.H)
			return oracleWindowCount(d, spec).Values(), nil
		}
		if len(fn.Args) != 1 {
			return nil, fmt.Errorf("sciql: %s wants one argument", fn.Name)
		}
		arg, err := oracleExprCol(e, f, fn.Args[0], win)
		if err != nil {
			return nil, err
		}
		d := array.NewWithOrigin(f.X0, f.Y0, f.W, f.H)
		copy(d.Values(), arg)
		switch fn.Name {
		case "AVG":
			return oracleWindowAvg(d, spec).Values(), nil
		case "SUM":
			return oracleWindowSum(d, spec).Values(), nil
		case "MIN":
			return oracleWindowMin(d, spec).Values(), nil
		case "MAX":
			return oracleWindowMax(d, spec).Values(), nil
		}
	}
	// Scalar functions.
	args := make([][]float64, len(fn.Args))
	for i, a := range fn.Args {
		col, err := oracleExprCol(e, f, a, win)
		if err != nil {
			return nil, err
		}
		args[i] = col
	}
	unary := func(g func(float64) float64) ([]float64, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("sciql: %s wants one argument", fn.Name)
		}
		out := make([]float64, len(args[0]))
		for i, v := range args[0] {
			out[i] = g(v)
		}
		return out, nil
	}
	switch fn.Name {
	case "SQRT":
		return unary(func(v float64) float64 {
			if v < 0 {
				return 0
			}
			return math.Sqrt(v)
		})
	case "ABS":
		return unary(math.Abs)
	case "FLOOR":
		return unary(math.Floor)
	case "CEIL", "CEILING":
		return unary(math.Ceil)
	case "EXP":
		return unary(math.Exp)
	case "LN", "LOG":
		return unary(func(v float64) float64 {
			if v <= 0 {
				return 0
			}
			return math.Log(v)
		})
	case "POWER", "POW":
		if len(args) != 2 {
			return nil, fmt.Errorf("sciql: POWER wants two arguments")
		}
		out := make([]float64, len(args[0]))
		for i := range out {
			out[i] = math.Pow(args[0][i], args[1][i])
		}
		return out, nil
	default:
		return nil, fmt.Errorf("sciql: unknown function %s", fn.Name)
	}
}

// The array.Dense window kernels verbatim, cells read through Values.

func oracleWindowSum(a *array.Dense, spec array.WindowSpec) *array.Dense {
	w, h := a.Width(), a.Height()
	x0o, y0o := a.Origin()
	sat := oracleSummedAreaTable(a)
	out := array.NewWithOrigin(x0o, y0o, w, h)
	vals := out.Values()
	w1 := w + 1
	for y := 0; y < h; y++ {
		y0 := max(y+spec.YLo, 0)
		y1 := min(y+spec.YHi-1, h-1)
		for x := 0; x < w; x++ {
			x0 := max(x+spec.XLo, 0)
			x1 := min(x+spec.XHi-1, w-1)
			if x1 < x0 || y1 < y0 {
				continue
			}
			vals[y*w+x] = sat[(y1+1)*w1+(x1+1)] - sat[y0*w1+(x1+1)] -
				sat[(y1+1)*w1+x0] + sat[y0*w1+x0]
		}
	}
	return out
}

func oracleWindowCount(a *array.Dense, spec array.WindowSpec) *array.Dense {
	w, h := a.Width(), a.Height()
	x0o, y0o := a.Origin()
	out := array.NewWithOrigin(x0o, y0o, w, h)
	vals := out.Values()
	for y := 0; y < h; y++ {
		ny := min(y+spec.YHi-1, h-1) - max(y+spec.YLo, 0) + 1
		if ny < 0 {
			ny = 0
		}
		for x := 0; x < w; x++ {
			nx := min(x+spec.XHi-1, w-1) - max(x+spec.XLo, 0) + 1
			if nx < 0 {
				nx = 0
			}
			vals[y*w+x] = float64(nx * ny)
		}
	}
	return out
}

func oracleWindowAvg(a *array.Dense, spec array.WindowSpec) *array.Dense {
	sum := oracleWindowSum(a, spec)
	cnt := oracleWindowCount(a, spec)
	sv, cv := sum.Values(), cnt.Values()
	for i := range sv {
		if cv[i] > 0 {
			sv[i] /= cv[i]
		}
	}
	return sum
}

func oracleWindowMin(a *array.Dense, spec array.WindowSpec) *array.Dense {
	return oracleWindowExtreme(a, spec, func(a, b float64) bool { return a < b })
}

func oracleWindowMax(a *array.Dense, spec array.WindowSpec) *array.Dense {
	return oracleWindowExtreme(a, spec, func(a, b float64) bool { return a > b })
}

func oracleWindowExtreme(a *array.Dense, spec array.WindowSpec, better func(a, b float64) bool) *array.Dense {
	w, h := a.Width(), a.Height()
	x0o, y0o := a.Origin()
	src := a.Values()
	out := array.NewWithOrigin(x0o, y0o, w, h)
	vals := out.Values()
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
			vals[y*w+x] = best
		}
	}
	return out
}

func oracleSummedAreaTable(a *array.Dense) []float64 {
	w, h := a.Width(), a.Height()
	src := a.Values()
	w1 := w + 1
	sat := make([]float64, w1*(h+1))
	for y := 0; y < h; y++ {
		var rowSum float64
		for x := 0; x < w; x++ {
			rowSum += src[y*w+x]
			sat[(y+1)*w1+(x+1)] = sat[y*w1+(x+1)] + rowSum
		}
	}
	return sat
}

// --- the comparison ---

// sameFrame reports how two result frames differ: domain, column names
// and qualifiers, cell bits (NaN payloads included) and validity.
func sameFrame(got, want *Frame) error {
	switch {
	case got == nil || want == nil:
		if got != want {
			return fmt.Errorf("frame %v, want %v", got, want)
		}
		return nil
	case got.X0 != want.X0 || got.Y0 != want.Y0 || got.W != want.W || got.H != want.H:
		return fmt.Errorf("domain (%d,%d) %dx%d, want (%d,%d) %dx%d", got.X0, got.Y0, got.W, got.H, want.X0, want.Y0, want.W, want.H)
	case len(got.cols) != len(want.cols):
		return fmt.Errorf("%d columns, want %d", len(got.cols), len(want.cols))
	case (got.valid == nil) != (want.valid == nil):
		return fmt.Errorf("validity mask present %v, want %v", got.valid != nil, want.valid != nil)
	}
	for i := range want.valid {
		if got.valid[i] != want.valid[i] {
			return fmt.Errorf("cell %d valid %v, want %v", i, got.valid[i], want.valid[i])
		}
	}
	for c, wc := range want.cols {
		gc := got.cols[c]
		if gc.Name != wc.Name || gc.Qualifier != wc.Qualifier || len(gc.Data) != len(wc.Data) {
			return fmt.Errorf("column %d is %s.%s[%d], want %s.%s[%d]", c, gc.Qualifier, gc.Name, len(gc.Data), wc.Qualifier, wc.Name, len(wc.Data))
		}
		for i := range wc.Data {
			if math.Float64bits(gc.Data[i]) != math.Float64bits(wc.Data[i]) {
				return fmt.Errorf("column %s cell %d = %v, want %v", wc.Name, i, gc.Data[i], wc.Data[i])
			}
		}
	}
	return nil
}

// sameCatalog compares two engines' stored arrays: a statement must
// never write into a catalog array it only read.
func sameCatalog(got, want *Engine) error {
	gn, wn := got.Names(), want.Names()
	if strings.Join(gn, ",") != strings.Join(wn, ",") {
		return fmt.Errorf("catalog %v, want %v", gn, wn)
	}
	for _, n := range wn {
		if err := sameFrame(got.arrays[n], want.arrays[n]); err != nil {
			return fmt.Errorf("catalog array %s: %v", n, err)
		}
	}
	return nil
}

// checkAgainstOracle runs the statements on a fresh pair of engines —
// the evaluator and the oracle — and compares every result, error and
// the catalogs after every statement.
func checkAgainstOracle(t testing.TB, setup func(*Engine), stmts ...string) {
	t.Helper()
	got, want := NewEngine(), NewEngine()
	setup(got)
	setup(want)
	for _, src := range stmts {
		gf, gerr := got.Exec(src)
		wf, werr := oracleExec(want, src)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s\nerror %v, oracle %v", src, gerr, werr)
		}
		if err := sameFrame(gf, wf); err != nil {
			t.Fatalf("%s\n%v", src, err)
		}
		if err := sameCatalog(got, want); err != nil {
			t.Fatalf("%s\n%v", src, err)
		}
	}
}

// --- the generator ---

// genCatalog registers the arrays generated statements read: origins at
// zero and off it, cells with invalid positions, zeros (divisors),
// negatives (square roots), NaN and infinities (in b and m.q), a
// two-column frame and a table function.
func genCatalog(e *Engine) {
	r := rand.New(rand.NewSource(99))
	mk := func(x0, y0, w, h int, invalid int) *array.Dense {
		d := array.NewWithOrigin(x0, y0, w, h)
		vals := d.Values()
		for i := range vals {
			switch r.Intn(6) {
			case 0:
				vals[i] = 0
			case 1:
				vals[i] = float64(r.Intn(5) - 2)
			default:
				vals[i] = math.Round((r.Float64()*40-10)*8) / 8
			}
		}
		for k := 0; k < invalid; k++ {
			d.Invalidate(x0+r.Intn(w), y0+r.Intn(h))
		}
		return d
	}
	// NaN is non-zero to AND, OR and CASE, and unequal to everything.
	special := func(d *array.Dense) *array.Dense {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			d.Values()[r.Intn(d.Len())] = v
		}
		return d
	}
	e.RegisterArray("a", mk(0, 0, 7, 5, 4), "v")
	e.RegisterArray("b", special(mk(0, 0, 7, 5, 0)), "v")
	e.RegisterArray("c", mk(2, 1, 6, 5, 3), "v")
	m := FromDense(mk(1, 0, 6, 4, 0), "p")
	q := special(mk(1, 0, 6, 4, 0))
	if err := m.AddColumn("", "q", q.Values()); err != nil {
		panic(err)
	}
	e.RegisterFrame("m", m)
	img := mk(0, 0, 5, 5, 2)
	e.RegisterFunc("gen_image", func([]string) (*Frame, error) { return FromDense(img, "v"), nil })
}

// source is a FROM clause with the column references it offers.
type source struct {
	from   string
	cols   []string
	target string // GROUP BY target
}

type stmtGen struct {
	r *rand.Rand
}

var genLiterals = []string{"0", "1", "2", "3", "0.5", "10", "100", "700", "800"}

func (g *stmtGen) literal() string { return genLiterals[g.r.Intn(len(genLiterals))] }

// expr renders a random, fully parenthesised expression over cols; agg
// allows window aggregates (never nested in one another).
func (g *stmtGen) expr(cols []string, depth int, agg bool) string {
	r := g.r
	if depth <= 0 || r.Intn(5) == 0 {
		switch r.Intn(6) {
		case 0, 1:
			return g.literal()
		case 2:
			return []string{"x", "y"}[r.Intn(2)]
		default:
			return cols[r.Intn(len(cols))]
		}
	}
	sub := func() string { return g.expr(cols, depth-1, agg) }
	switch r.Intn(12) {
	case 0, 1, 2:
		ops := []string{"+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"}
		op := ops[r.Intn(len(ops))]
		if r.Intn(4) == 0 { // one column used twice
			c := cols[r.Intn(len(cols))]
			return "(" + c + " " + op + " " + c + ")"
		}
		return "(" + sub() + " " + op + " " + sub() + ")"
	case 3:
		return "(" + []string{"-", "NOT "}[r.Intn(2)] + sub() + ")"
	case 4:
		return "(" + sub() + " BETWEEN " + sub() + " AND " + sub() + ")"
	case 5, 6:
		var b strings.Builder
		b.WriteString("CASE")
		for k := 1 + r.Intn(2); k > 0; k-- {
			b.WriteString(" WHEN " + sub() + " THEN " + sub())
		}
		if r.Intn(2) == 0 {
			b.WriteString(" ELSE " + sub())
		}
		return b.String() + " END"
	case 7, 8:
		fns := []string{"SQRT", "ABS", "FLOOR", "CEIL", "EXP", "LN"}
		if r.Intn(3) == 0 {
			return "POWER(" + sub() + ", " + sub() + ")"
		}
		return fns[r.Intn(len(fns))] + "(" + sub() + ")"
	default:
		if !agg {
			return "(" + sub() + " - " + sub() + ")"
		}
		if r.Intn(5) == 0 {
			return "COUNT(*)"
		}
		aggs := []string{"AVG", "SUM", "MIN", "MAX"}
		return aggs[r.Intn(len(aggs))] + "(" + g.expr(cols, depth-1, false) + ")"
	}
}

// source draws a FROM clause: a stored array (aliased, sliced), the
// two-column frame, a table function, a dimension join, or a subquery.
func (g *stmtGen) source(depth int) source {
	r := g.r
	switch k := r.Intn(8); {
	case k == 0:
		return source{"a", []string{"v", "a.v"}, "a"}
	case k == 1:
		return source{"c AS t", []string{"v", "t.v"}, "t"}
	case k == 2:
		x0, y0 := r.Intn(4), r.Intn(3)
		return source{fmt.Sprintf("a[%d:%d][%d:%d]", x0, x0+1+r.Intn(6), y0, y0+1+r.Intn(4)), []string{"v"}, "a"}
	case k == 3:
		return source{"m", []string{"p", "q", "m.p"}, "m"}
	case k == 4:
		return source{"gen_image('x') AS g", []string{"v", "g.v"}, "g"}
	case k == 5:
		l, rr := []string{"a", "b", "c"}[r.Intn(3)], []string{"b", "c"}[r.Intn(2)]
		return source{l + " AS L JOIN " + rr + " AS R ON L.x = R.x AND L.y = R.y", []string{"L.v", "R.v"}, "L"}
	default:
		if depth <= 0 {
			return source{"b", []string{"v"}, "b"}
		}
		inner := g.source(depth - 1)
		q := fmt.Sprintf("SELECT [x], [y], %s AS w, %s AS u, %s AS z FROM %s%s",
			g.expr(inner.cols, 2, false), g.expr(inner.cols, 2, false), inner.cols[0], inner.from, g.where(inner.cols))
		return source{"(" + q + ") AS s", []string{"w", "u", "z", "s.w"}, "s"}
	}
}

// where draws an optional WHERE: dimension crops, a residual predicate,
// or both.
func (g *stmtGen) where(cols []string) string {
	r := g.r
	var parts []string
	if r.Intn(3) == 0 {
		parts = append(parts, fmt.Sprintf("x >= %d", r.Intn(4)), fmt.Sprintf("y < %d", 2+r.Intn(4)))
	}
	if r.Intn(3) == 0 {
		parts = append(parts, g.expr(cols, 2, false))
	}
	if len(parts) == 0 {
		return ""
	}
	return " WHERE " + strings.Join(parts, " AND ")
}

// selective draws a Figure 4 shaped statement: window aggregates of a
// grouped subquery and a cell expression over them one level up, read
// only under a CASE whose WHENs are AND/OR chains led by a selective
// comparison, and such a chain as a value.
func (g *stmtGen) selective() []string {
	r := g.r
	src := g.source(1)
	aggs := []string{"AVG", "SUM", "MIN", "MAX"}
	t1 := fmt.Sprintf("SELECT [x], [y], %s AS z, %s(%s) AS g0, %s(%s) AS g1 FROM %s GROUP BY %s[x-1:x+2][y-1:y+2]",
		src.cols[0], aggs[r.Intn(4)], g.expr(src.cols, 1, false), aggs[r.Intn(4)], g.expr(src.cols, 1, false), src.from, src.target)
	t2 := "SELECT [x], [y], z, g0, SQRT(g1 - g0 * g0) AS sd FROM (" + t1 + ") AS t1"
	cols := []string{"z", "g0", "sd"}
	chain := func() string {
		c := "z " + []string{">", ">=", "="}[r.Intn(3)] + " " + []string{"25", "29", "0", "2"}[r.Intn(4)]
		for k := r.Intn(3); k >= 0; k-- {
			c += " " + []string{"AND", "AND", "OR"}[r.Intn(3)] + " " + g.expr(cols, 1, false)
		}
		return c
	}
	els := ""
	if r.Intn(3) != 0 {
		els = " ELSE " + g.expr(cols, 1, false)
	}
	return []string{fmt.Sprintf("SELECT [x], [y], CASE WHEN %s THEN sd WHEN %s THEN %s%s END AS c, (%s) AS flag FROM (%s) AS t2",
		chain(), chain(), g.expr(cols, 1, false), els, chain(), t2)}
}

// statements draws one SELECT, sometimes stored with INSERT SELECT and
// read back around a write to the array it may have been read from.
func (g *stmtGen) statements() []string {
	r := g.r
	if r.Intn(4) == 0 {
		return g.selective()
	}
	src := g.source(2)
	grouped := r.Intn(3) == 0
	items := []string{"[x]", "[y]"}
	for k := 1 + r.Intn(3); k > 0; k-- {
		items = append(items, g.expr(src.cols, 3, grouped)+" AS r"+strconv.Itoa(k))
	}
	if r.Intn(3) == 0 {
		items = append(items, src.cols[r.Intn(len(src.cols))]+" AS pass")
	}
	tail := " FROM " + src.from + g.where(src.cols)
	if grouped {
		tail += fmt.Sprintf(" GROUP BY %s[x-%d:x+%d][y-%d:y+%d]", src.target, r.Intn(2), 1+r.Intn(2), r.Intn(2), 1+r.Intn(2))
	}
	if r.Intn(4) != 0 {
		return []string{"SELECT " + strings.Join(items, ", ") + tail}
	}
	return []string{
		"CREATE ARRAY dst (x INTEGER DIMENSION, y INTEGER DIMENSION, v FLOAT)",
		"INSERT INTO dst SELECT " + items[2] + tail,
		"SELECT v, v * 2 AS d FROM dst",
		"INSERT INTO a VALUES (1, 1, 42)",
		"SELECT [x], [y], v FROM dst",
	}
}

// figure4Catalog registers the two georeferenced bands of the
// classification query, w×h: over a background of the given
// temperatures with noise, a fire, a potential fire, one more fire per
// 2000 cells and an invalid corner.
func figure4Catalog(w, h int, bg039, bg108 float64) func(*Engine) {
	return func(e *Engine) {
		r := rand.New(rand.NewSource(int64(bg039)))
		t039, t108 := array.New(w, h), array.New(w, h)
		for i := range t039.Values() {
			t039.Values()[i] = bg039 + r.NormFloat64()
			t108.Values()[i] = bg108 + r.NormFloat64()*0.5
		}
		t039.Set(w/3, 2*h/5, bg039+45)
		t108.Set(w/3, 2*h/5, bg108+4)
		t039.Set(2*w/3, 3*h/5, bg039+9)
		t108.Set(2*w/3, 3*h/5, bg108+1)
		for k := 1; k < w*h/2000; k++ {
			x, y := r.Intn(w), r.Intn(h)
			t039.Set(x, y, bg039+30+r.Float64()*20)
			t108.Set(x, y, bg108+3)
		}
		t039.Invalidate(0, 0)
		e.RegisterArray("hrit_T039_image_array", t039, "v")
		e.RegisterArray("hrit_T108_image_array", t108, "v")
	}
}

// figure4Thresholds renders Figure 4 with other thresholds, literals or
// parameters, in the order of detect.Thresholds: t039, diff_fire,
// diff_potential, std039_fire, std039_pot, std108_max.
func figure4Thresholds(th ...string) string {
	return strings.NewReplacer("> 310", "> "+th[0], "> 10 ", "> "+th[1]+" ", "> 8 ", "> "+th[2]+" ",
		"> 4 ", "> "+th[3]+" ", "> 2.5 ", "> "+th[4]+" ", "< 2", "< "+th[5]).Replace(figure4Query)
}

// The service grid's catalogs: by day hardly a cell passes v039 > t039;
// at night (the night thresholds) most cells do, and hardly any passes
// the v039 - v108 conjunct after it.
var (
	figure4Day   = figure4Catalog(150, 125, 295, 290)
	figure4Night = figure4Catalog(150, 125, 290.4, 288)
	nightQuery   = figure4Thresholds("290", "8", "6", "3", "2", "2")
)

// corpus holds the statements of sciql_test.go, each over the catalog it
// is written against.
var corpus = []struct {
	setup func(*Engine)
	stmts []string
}{
	{func(*Engine) {}, []string{
		`CREATE ARRAY a (x INTEGER DIMENSION [0:4], y INTEGER DIMENSION [0:3], v FLOAT)`,
		`INSERT INTO a VALUES (0,0,1), (1,0,2), (2,0,3), (0,1,10), (1,1,20)`,
		`SELECT [x], [y], v FROM a`,
		`SELECT v FROM a WHERE v >= 2`,
		`CREATE ARRAY dst (x INTEGER DIMENSION, y INTEGER DIMENSION, v FLOAT)`,
		`INSERT INTO dst SELECT v * 10 AS w FROM a`,
		`SELECT v FROM dst`,
		`INSERT INTO a VALUES (3, 2, 7)`,
		`SELECT v FROM dst`,
		`DROP ARRAY a`,
		`SELECT v FROM a`,
	}},
	{genCatalog, []string{
		`SELECT [x], [y], v FROM a WHERE x >= 2 AND x < 5 AND y >= 3 AND y < 6`,
		`SELECT v FROM a WHERE x BETWEEN 2 AND 4 AND y BETWEEN 3 AND 5`,
		`SELECT v FROM a[2:5][2:5]`,
		`SELECT v FROM a WHERE v >= 2`,
		`SELECT CASE WHEN v > 6 THEN 2 WHEN v > 3 THEN 1 ELSE 0 END AS class, v * 2 + 1 AS scaled FROM a`,
		`SELECT [T039.x], [T039.y], T039.v AS v039, T108.v AS v108 FROM a AS T039 JOIN c AS T108 ON T039.x = T108.x AND T039.y = T108.y`,
		`SELECT a.v FROM a JOIN b ON a.v = b.v`,
		`SELECT [x], [y], AVG(v) AS m FROM a GROUP BY a[x-1:x+2][y-1:y+2]`,
		`SELECT SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS n FROM c GROUP BY c[x-1:x+2][y-1:y+2]`,
		`SELECT AVG(v) FROM a`,
		`SELECT v FROM gen_image('x') AS img`,
		`SELECT v FROM no_such_fn('x') AS a`,
		`SELECT v FROM a JOIN b ON a.x = b.x AND a.y = b.y`,
		`SELECT a.v AS av, b.v AS bv FROM a JOIN b ON a.x = b.x AND a.y = b.y`,
		`SELECT x + y * 10 AS code FROM c`,
		`SELECT ABS(v) AS a, SQRT(ABS(v)) AS s, POWER(2, 3) AS p, FLOOR(1.7) AS fl FROM a`,
		`SELECT v, v AS again, v * v AS sq FROM (SELECT [x], [y], v FROM a WHERE v > 0) AS s`,
		`SELECT p + q AS pq, p / q AS ratio FROM m WHERE x >= 2`,
		`SELECT v FROM a WHERE 1`,
		`SELECT 5 AS k, -v AS neg FROM a WHERE x > 100`,
		`SELECT SQRT(1, 2) AS bad FROM a`,
		`SELECT NOSUCH(v) AS bad FROM a`,
	}},
	{figure4Catalog(24, 20, 295, 290), []string{figure4Query}}, // day
	{figure4Catalog(24, 20, 288, 286), []string{figure4Query}}, // twilight
	{figure4Catalog(24, 20, 281, 283), []string{figure4Query}}, // night
	{figure4Day, []string{figure4Query}},
	{figure4Catalog(150, 125, 300.4, 294), []string{figure4Thresholds("300", "9", "7", "3.5", "2.25", "2")}}, // twilight
	{figure4Night, []string{nightQuery}},
}

// TestEvaluatorMatchesOracle holds the evaluator to the oracle over the
// sciql_test.go corpus, the Figure 4 query under day, twilight and night
// backgrounds, and generated statements: expression trees of every
// operator and function, window aggregates, literals on either side,
// zero divisors, invalid cells, non-zero origins, subqueries, joins,
// crops and INSERT SELECT round trips.
func TestEvaluatorMatchesOracle(t *testing.T) {
	for _, c := range corpus {
		checkAgainstOracle(t, c.setup, c.stmts...)
	}
	n := 2000
	if testing.Short() {
		n = 300
	}
	for seed := 0; seed < n; seed++ {
		g := &stmtGen{rand.New(rand.NewSource(int64(seed)))}
		checkAgainstOracle(t, genCatalog, g.statements()...)
	}
}

// FuzzEvaluatorMatchesOracle is the generated half of
// TestEvaluatorMatchesOracle under the fuzzer: the input seeds the
// statement generator.
func FuzzEvaluatorMatchesOracle(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		g := &stmtGen{rand.New(rand.NewSource(seed))}
		checkAgainstOracle(t, genCatalog, g.statements()...)
	})
}
