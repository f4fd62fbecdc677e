package sciql

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/array"
)

// TableFunc is a registered table-producing function callable from FROM
// clauses, e.g. the data vault's "hrit_load_image('uri')".
type TableFunc func(args []string) (*Frame, error)

// Engine is the SciQL execution engine: a catalog of named arrays plus
// registered table functions. It is the role MonetDB/SciQL plays in the
// paper's architecture.
type Engine struct {
	arrays   map[string]*Frame
	declared map[string]*CreateArray
	fns      map[string]TableFunc
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{
		arrays:   make(map[string]*Frame),
		declared: make(map[string]*CreateArray),
		fns:      make(map[string]TableFunc),
	}
}

// RegisterFunc installs a table function under a (lower-cased) name.
func (e *Engine) RegisterFunc(name string, fn TableFunc) {
	e.fns[strings.ToLower(name)] = fn
}

// RegisterArray installs a Go-side array into the catalog as a
// single-column array.
func (e *Engine) RegisterArray(name string, d *array.Dense, colName string) {
	e.arrays[name] = FromDense(d, colName)
}

// RegisterFrame installs a multi-column frame into the catalog.
func (e *Engine) RegisterFrame(name string, f *Frame) { e.arrays[name] = f }

// Names lists the catalog entries, sorted.
func (e *Engine) Names() []string {
	out := make([]string, 0, len(e.arrays))
	for n := range e.arrays {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Exec parses and executes one statement. SELECTs return the result
// frame; other statements return nil.
func (e *Engine) Exec(src string) (*Frame, error) {
	stmt, err := ParseStmt(src)
	if err != nil {
		return nil, err
	}
	return e.ExecStmt(stmt)
}

// ExecStmt executes a parsed statement.
func (e *Engine) ExecStmt(stmt Stmt) (*Frame, error) { return e.ExecParams(stmt, nil) }

// ExecParams executes a parsed statement with its :name parameters bound
// to params: a statement parsed once runs with new values each time.
func (e *Engine) ExecParams(stmt Stmt, params map[string]float64) (*Frame, error) {
	switch s := stmt.(type) {
	case *CreateArray:
		return nil, e.createArray(s)
	case *DropArray:
		if _, ok := e.arrays[s.Name]; !ok {
			return nil, fmt.Errorf("sciql: DROP of unknown array %q", s.Name)
		}
		delete(e.arrays, s.Name)
		delete(e.declared, s.Name)
		return nil, nil
	case *InsertValues:
		return nil, e.insertValues(s)
	case *InsertSelect:
		f, err := e.newEvaluator(params).result(s.Sel)
		if err != nil {
			return nil, err
		}
		return nil, e.storeInto(s.Name, f)
	case *Select:
		return e.newEvaluator(params).result(s)
	default:
		return nil, fmt.Errorf("sciql: unsupported statement %T", stmt)
	}
}

func (e *Engine) createArray(s *CreateArray) error {
	if _, exists := e.arrays[s.Name]; exists {
		return fmt.Errorf("sciql: array %q already exists", s.Name)
	}
	x, y := s.Dims[0], s.Dims[1]
	var f *Frame
	if x.HasRange && y.HasRange {
		f = NewFrame(x.Lo, y.Lo, x.Hi-x.Lo, y.Hi-y.Lo)
	} else {
		f = NewFrame(0, 0, 0, 0)
	}
	for _, c := range s.Cols {
		if err := f.AddColumn("", c.Name, make([]float64, f.Len())); err != nil {
			return err
		}
	}
	e.arrays[s.Name] = f
	e.declared[s.Name] = s
	return nil
}

func (e *Engine) insertValues(s *InsertValues) error {
	f, ok := e.arrays[s.Name]
	if !ok {
		return fmt.Errorf("sciql: INSERT into unknown array %q", s.Name)
	}
	ncols := len(f.cols)
	for _, row := range s.Rows {
		if len(row) != 2+ncols {
			return fmt.Errorf("sciql: INSERT row wants %d values (x, y, %d columns), got %d",
				2+ncols, ncols, len(row))
		}
	}
	if f.Len() == 0 {
		// Unbounded array: size from the data's bounding box.
		minX, minY := math.Inf(1), math.Inf(1)
		maxX, maxY := math.Inf(-1), math.Inf(-1)
		for _, row := range s.Rows {
			minX = math.Min(minX, row[0])
			maxX = math.Max(maxX, row[0])
			minY = math.Min(minY, row[1])
			maxY = math.Max(maxY, row[1])
		}
		nf := NewFrame(int(minX), int(minY), int(maxX-minX)+1, int(maxY-minY)+1)
		for _, c := range f.cols {
			if err := nf.AddColumn("", c.Name, make([]float64, nf.Len())); err != nil {
				return err
			}
		}
		f = nf
		e.arrays[s.Name] = f
	}
	if f.adopted { // the cells are a registered array's: write a copy
		f = &Frame{X0: f.X0, Y0: f.Y0, W: f.W, H: f.H, valid: f.valid, cols: []Column{{Name: f.cols[0].Name, Data: slices.Clone(f.cols[0].Data)}}}
		e.arrays[s.Name] = f
	}
	for _, row := range s.Rows {
		x, y := int(row[0]), int(row[1])
		if x < f.X0 || x >= f.X0+f.W || y < f.Y0 || y >= f.Y0+f.H {
			return fmt.Errorf("sciql: INSERT cell (%d,%d) outside array %q domain", x, y, s.Name)
		}
		i := (y-f.Y0)*f.W + (x - f.X0)
		for c := range f.cols {
			f.cols[c].Data[i] = row[2+c]
		}
	}
	return nil
}

// storeInto replaces the contents of a declared array with a select
// result, renaming result columns to the declared value columns.
func (e *Engine) storeInto(name string, f *Frame) error {
	decl, declared := e.declared[name]
	if _, exists := e.arrays[name]; !exists {
		return fmt.Errorf("sciql: INSERT into unknown array %q", name)
	}
	if declared {
		if len(f.cols) != len(decl.Cols) {
			return fmt.Errorf("sciql: INSERT SELECT produces %d columns, array %q has %d",
				len(f.cols), name, len(decl.Cols))
		}
		for i := range f.cols {
			f.cols[i].Name = decl.Cols[i].Name
			f.cols[i].Qualifier = ""
		}
	}
	e.arrays[name] = f
	return nil
}

// --- SELECT evaluation ---

// An evaluator runs the SELECT blocks of one statement (see the package
// comment). What it keeps dies with the statement: the summed-area table
// (or MIN/MAX argument column) a window aggregate builds on its first
// read, and the temporaries its operators freed for reuse.
type evaluator struct {
	e      *Engine
	params map[string]float64
	aggs   map[*FuncExpr][]float64
	spare  [][]float64
}

func (e *Engine) newEvaluator(params map[string]float64) *evaluator {
	return &evaluator{e: e, params: params, aggs: make(map[*FuncExpr][]float64)}
}

// result evaluates a statement's top-level SELECT and computes its
// columns at every cell. Its frame outlives the statement and owns its
// columns, so a column read straight from a source — the catalog, a table
// function — is copied out.
func (ev *evaluator) result(s *Select) (*Frame, error) {
	f, err := ev.evalSelect(s)
	if err != nil {
		return nil, err
	}
	for i, c := range f.cols {
		o, err := ev.read(c, nil)
		if err != nil {
			return nil, err
		}
		if o = materialise(o, f.Len()); !o.tmp {
			o.col = slices.Clone(o.col)
		}
		f.cols[i] = Column{Qualifier: c.Qualifier, Name: c.Name, Data: o.col}
	}
	return f, nil
}

// evalSelect evaluates a SELECT block's FROM and WHERE; its items become
// deferred columns over the source frame, a bare column reference the
// source's column itself.
func (ev *evaluator) evalSelect(s *Select) (*Frame, error) {
	base, err := ev.evalFrom(s.From)
	if err != nil {
		return nil, err
	}

	// WHERE: split the conjunction into dimension-range constraints
	// (cropping, the paper's range query) and residual cell predicates
	// (validity masking).
	if s.Where != nil {
		box, residual := splitWhere(s.Where)
		if box != nil {
			base = crop(base, box.x0, box.x1, box.y0, box.y1)
		}
		if residual != nil && base.Len() > 0 {
			mask, err := ev.eval(base, residual, nil, nil)
			if err != nil {
				return nil, err
			}
			mask = materialise(mask, base.Len())
			base.MaskInvalid(mask.col)
			ev.free(mask)
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
	anon := 0
	for _, item := range s.Items {
		if item.Dim != "" {
			continue // dimension projections are implicit in the array result
		}
		var col Column
		name := item.Alias
		if cr, ok := item.Expr.(*ColRef); ok {
			if col, err = base.column(cr.Qualifier, cr.Name); err != nil {
				return nil, err
			}
			if name == "" {
				name = cr.Name
			}
		} else {
			// Evaluating at no cell visits every node, so the item's errors
			// surface here, in the order the oracle meets them.
			if _, err := ev.eval(base, item.Expr, s.GroupBy, []int32{}); err != nil {
				return nil, err
			}
			col.def = &deferred{src: base, expr: item.Expr, win: s.GroupBy}
			if name == "" {
				anon++
				name = fmt.Sprintf("col%d", anon)
			}
		}
		col.Qualifier, col.Name = "", name
		out.cols = append(out.cols, col)
	}
	if len(out.cols) == 0 {
		return nil, fmt.Errorf("sciql: SELECT projects no value columns")
	}
	return out, nil
}

func frameHasQualifier(f *Frame, q string) bool {
	for _, c := range f.cols {
		if c.Qualifier == q {
			return true
		}
	}
	// A single-source frame may be addressed by its stored name even when
	// unaliased.
	return len(f.cols) > 0 && f.cols[0].Qualifier == ""
}

func (ev *evaluator) evalFrom(fc FromClause) (*Frame, error) {
	switch src := fc.(type) {
	case *TableRef:
		stored, ok := ev.e.arrays[src.Name]
		if !ok {
			return nil, fmt.Errorf("sciql: unknown array %q", src.Name)
		}
		f := *stored // the catalog's cells, read-only, under column headers of its own
		f.cols = slices.Clone(stored.cols)
		alias := src.Alias
		if alias == "" {
			alias = src.Name
		}
		f.Requalify(alias)
		if src.Slice != nil {
			return crop(&f, src.Slice.X0, src.Slice.X1, src.Slice.Y0, src.Slice.Y1), nil
		}
		return &f, nil
	case *FuncRef:
		fn, ok := ev.e.fns[src.Name]
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
		f, err := ev.evalSelect(src.Sel)
		if err != nil {
			return nil, err
		}
		f.Requalify(src.Alias)
		return f, nil
	case *JoinRef:
		l, err := ev.evalFrom(src.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.evalFrom(src.R)
		if err != nil {
			return nil, err
		}
		if !isDimEquiJoin(src.On) {
			return nil, fmt.Errorf("sciql: only dimension equi-joins (x = x AND y = y) are supported")
		}
		return joinFrames(l, r), nil
	default:
		return nil, fmt.Errorf("sciql: unsupported FROM clause %T", fc)
	}
}

// isDimEquiJoin accepts conjunctions of equalities between dimension
// references, the paper's "ON T039.x = T108.x AND T039.y = T108.y".
func isDimEquiJoin(e Expr) bool {
	switch v := e.(type) {
	case *BinExpr:
		if v.Op == "AND" {
			return isDimEquiJoin(v.L) && isDimEquiJoin(v.R)
		}
		if v.Op == "=" {
			_, lOK := v.L.(*DimRef)
			_, rOK := v.R.(*DimRef)
			return lOK && rOK
		}
	}
	return false
}

// joinFrames aligns two frames on the overlap of their domains and merges
// their columns.
func joinFrames(l, r *Frame) *Frame {
	x0 := max(l.X0, r.X0)
	y0 := max(l.Y0, r.Y0)
	x1 := min(l.X0+l.W, r.X0+r.W)
	y1 := min(l.Y0+l.H, r.Y0+r.H)
	lc := crop(l, x0, x1, y0, y1)
	rc := crop(r, x0, x1, y0, y1)
	out := NewFrame(lc.X0, lc.Y0, lc.W, lc.H)
	out.cols = append(out.cols, lc.cols...)
	out.cols = append(out.cols, rc.cols...)
	switch { // validity is never written in place, so it may be shared
	case lc.valid == nil:
		out.valid = rc.valid
	case rc.valid == nil:
		out.valid = lc.valid
	default:
		out.valid = make([]bool, out.Len())
		for i, ok := range lc.valid {
			out.valid[i] = ok && rc.valid[i]
		}
	}
	return out
}

// crop returns the sub-frame covering [x0,x1) × [y0,y1) in absolute
// dimension coordinates, clamped to the frame: f itself when that is the
// whole frame, else a frame whose columns are cuts of f's — zero-size
// when the box holds no cell, so its columns still resolve.
func crop(f *Frame, x0, x1, y0, y1 int) *Frame {
	x0 = max(x0, f.X0)
	y0 = max(y0, f.Y0)
	x1 = min(x1, f.X0+f.W)
	y1 = min(y1, f.Y0+f.H)
	if x0 == f.X0 && y0 == f.Y0 && x1 == f.X0+f.W && y1 == f.Y0+f.H && f.Len() > 0 {
		return f
	}
	if x1 <= x0 || y1 <= y0 {
		x1, y1 = x0, y0
	}
	out := NewFrame(x0, y0, x1-x0, y1-y0)
	off := (y0-f.Y0)*f.W + (x0 - f.X0)
	for _, c := range f.cols {
		k := &cut{c: c, off: off, srcW: f.W, w: out.W, h: out.H}
		out.cols = append(out.cols, Column{Qualifier: c.Qualifier, Name: c.Name, cut: k})
	}
	if f.valid != nil && out.Len() > 0 {
		out.valid = make([]bool, out.Len())
		for y := 0; y < out.H; y++ {
			srcOff := off + y*f.W
			copy(out.valid[y*out.W:(y+1)*out.W], f.valid[srcOff:srcOff+out.W])
		}
	}
	return out
}

// cropBox accumulates dimension constraints from a WHERE conjunction.
type cropBox struct {
	x0, x1, y0, y1 int
}

// splitWhere separates dimension-range conjuncts from residual cell
// predicates.
func splitWhere(e Expr) (*cropBox, Expr) {
	box := &cropBox{x0: math.MinInt32, x1: math.MaxInt32, y0: math.MinInt32, y1: math.MaxInt32}
	residual := collectCrop(e, box)
	if box.x0 == math.MinInt32 && box.x1 == math.MaxInt32 &&
		box.y0 == math.MinInt32 && box.y1 == math.MaxInt32 {
		return nil, residual
	}
	return box, residual
}

// collectCrop extracts range constraints on bare dimensions; it returns
// the residual expression (nil when fully consumed).
func collectCrop(e Expr, box *cropBox) Expr {
	switch v := e.(type) {
	case *BinExpr:
		if v.Op == "AND" {
			l := collectCrop(v.L, box)
			r := collectCrop(v.R, box)
			switch {
			case l == nil:
				return r
			case r == nil:
				return l
			default:
				return &BinExpr{Op: "AND", L: l, R: r}
			}
		}
		if dim, lit, op, ok := dimComparison(v); ok {
			applyDimBound(box, dim, op, lit)
			return nil
		}
	case *BetweenExpr:
		if d, ok := v.X.(*DimRef); ok {
			lo, okLo := v.Lo.(*NumLit)
			hi, okHi := v.Hi.(*NumLit)
			if okLo && okHi {
				applyDimBound(box, d.Name, ">=", lo.V)
				applyDimBound(box, d.Name, "<=", hi.V)
				return nil
			}
		}
	}
	return e
}

// dimComparison matches "dim OP number" or "number OP dim" for an OP
// that bounds a range: <> and arithmetic stay cell predicates.
func dimComparison(v *BinExpr) (dim string, lit float64, op string, ok bool) {
	switch v.Op {
	case "=", "<", "<=", ">", ">=":
	default:
		return "", 0, "", false
	}
	if d, okD := v.L.(*DimRef); okD {
		if n, okN := v.R.(*NumLit); okN {
			return d.Name, n.V, v.Op, true
		}
	}
	if d, okD := v.R.(*DimRef); okD {
		if n, okN := v.L.(*NumLit); okN {
			return d.Name, n.V, flipOp(v.Op), true
		}
	}
	return "", 0, "", false
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}

func applyDimBound(box *cropBox, dim, op string, v float64) {
	lo, hi := &box.x0, &box.x1
	if dim == "y" {
		lo, hi = &box.y0, &box.y1
	}
	switch op {
	case ">=":
		*lo = max(*lo, int(math.Ceil(v)))
	case ">":
		*lo = max(*lo, int(math.Floor(v))+1)
	case "<":
		*hi = min(*hi, int(math.Ceil(v)))
	case "<=":
		*hi = min(*hi, int(math.Floor(v))+1)
	case "=": // >= and <= at once: no cell when v is not whole
		*lo = max(*lo, int(math.Ceil(v)))
		*hi = min(*hi, int(math.Floor(v))+1)
	}
}

// --- expression evaluation over a selection ---

// An expression is evaluated at a selection (see the package comment):
// ascending linear cell indices of its frame, nil for every cell. A zero
// divisor, the square root of a negative and the logarithm of x <= 0 all
// yield 0. Every node is visited at any selection, the empty one
// included, so errors do not depend on the data.

// operand is an evaluated expression: one value per selected cell, in
// the selection's order, or a broadcast scalar held as a one-value
// column. Kernels read value k of an operand at col[k&o.mask()], so a
// scalar is read at 0 by every cell. tmp marks values this evaluation
// computed that nothing else references: its consumer may write into
// them, and frees them when done.
type operand struct {
	col    []float64
	scalar bool
	tmp    bool
}

func (o operand) mask() int {
	if o.scalar {
		return 0
	}
	return -1
}

func scalar(v float64) operand { return operand{col: []float64{v}, scalar: true} }

// size is the number of cells of f that sel selects.
func size(f *Frame, sel []int32) int {
	if sel == nil {
		return f.Len()
	}
	return len(sel)
}

// cell is the k-th cell sel selects.
func cell(sel []int32, k int) int32 {
	if sel == nil {
		return int32(k)
	}
	return sel[k]
}

// alloc returns m values of unspecified contents: a freed temporary that
// fits, else fresh ones.
func (ev *evaluator) alloc(m int) []float64 {
	for i, b := range ev.spare {
		if m > 0 && cap(b) >= m {
			ev.spare[i] = ev.spare[len(ev.spare)-1]
			ev.spare = ev.spare[:len(ev.spare)-1]
			return b[:m]
		}
	}
	return make([]float64, m)
}

// free keeps the temporaries among ops for a later alloc: their consumer
// is done with them.
func (ev *evaluator) free(ops ...operand) {
	for _, o := range ops {
		if o.tmp && cap(o.col) > 0 {
			ev.spare = append(ev.spare, o.col)
		}
	}
}

// dest picks what an elementwise operator over ops, m values each,
// writes: the first temporary among them, freeing the others for a later
// alloc; a scalar when every operand is one; else m values of its own.
func (ev *evaluator) dest(m int, ops ...operand) operand {
	all := true
	for i, o := range ops {
		if o.tmp {
			ev.free(ops[i+1:]...)
			return o
		}
		all = all && o.scalar
	}
	if all {
		return scalar(0)
	}
	return operand{col: ev.alloc(m), tmp: true}
}

// materialise broadcasts a scalar to n values.
func materialise(o operand, n int) operand {
	if !o.scalar {
		return o
	}
	col := make([]float64, n)
	for i := range col {
		col[i] = o.col[0]
	}
	return operand{col: col, tmp: true}
}

// read evaluates a column at sel: a deferred column's expression, a
// cut's source column at the cells they stand for, else the selected
// cells gathered (no copy for every cell).
func (ev *evaluator) read(c Column, sel []int32) (operand, error) {
	switch {
	case c.def != nil:
		return ev.eval(c.def.src, c.def.expr, c.def.win, sel)
	case c.cut != nil:
		return ev.readCut(c.cut, sel)
	case sel == nil:
		return operand{col: c.Data}, nil
	}
	out := ev.alloc(len(sel))
	for k, i := range sel {
		out[k] = c.Data[i]
	}
	return operand{col: out, tmp: true}, nil
}

// readCut reads a crop's column at sel, copying stored rows whole for
// every cell.
func (ev *evaluator) readCut(k *cut, sel []int32) (operand, error) {
	if sel == nil && k.c.def == nil && k.c.cut == nil {
		out := ev.alloc(k.w * k.h)
		for y := 0; y < k.h; y++ {
			copy(out[y*k.w:(y+1)*k.w], k.c.Data[k.off+y*k.srcW:])
		}
		return operand{col: out, tmp: true}, nil
	}
	at := make([]int32, len(sel))
	if sel == nil {
		at = make([]int32, k.w*k.h)
	}
	for j := range at {
		i := int(cell(sel, j))
		at[j] = int32(k.off + i/k.w*k.srcW + i%k.w)
	}
	return ev.read(k.c, at)
}

func (ev *evaluator) eval(f *Frame, expr Expr, win *GroupSpec, sel []int32) (operand, error) {
	m := size(f, sel)
	switch v := expr.(type) {
	case *NumLit:
		return scalar(v.V), nil
	case *ParamRef:
		p, ok := ev.params[v.Name]
		if !ok {
			return operand{}, fmt.Errorf("sciql: parameter :%s is not bound", v.Name)
		}
		return scalar(p), nil
	case *ColRef:
		c, err := f.column(v.Qualifier, v.Name)
		if err != nil {
			return operand{}, err
		}
		return ev.read(c, sel)
	case *DimRef:
		if v.Name != "x" && v.Name != "y" {
			return operand{}, fmt.Errorf("sciql: unknown dimension %q", v.Name)
		}
		col := ev.alloc(m)
		for k := range col {
			i := int(cell(sel, k))
			if v.Name == "x" {
				col[k] = float64(f.X0 + i%f.W)
			} else {
				col[k] = float64(f.Y0 + i/f.W)
			}
		}
		return operand{col: col, tmp: true}, nil
	case *UnaryExpr:
		if v.Op == "NOT" {
			return ev.eval(f, isZero(v.X), win, sel)
		}
		x, err := ev.eval(f, v.X, win, sel)
		if err != nil {
			return operand{}, err
		}
		if v.Op != "-" {
			return operand{}, fmt.Errorf("sciql: unknown unary operator %q", v.Op)
		}
		out, xc, xm := ev.dest(m, x), x.col, x.mask()
		for i := range out.col {
			out.col[i] = -xc[i&xm]
		}
		return out, nil
	case *BinExpr:
		if v.Op == "AND" || v.Op == "OR" { // 1 at the cells the filter passes
			at, err := ev.filter(f, v, win, sel)
			if err != nil {
				return operand{}, err
			}
			out := operand{col: ev.alloc(m), tmp: true}
			clear(out.col)
			scatter(out.col, sel, at, scalar(1))
			return out, nil
		}
		l, err := ev.eval(f, v.L, win, sel)
		if err != nil {
			return operand{}, err
		}
		r, err := ev.eval(f, v.R, win, sel)
		if err != nil {
			return operand{}, err
		}
		out := ev.dest(m, l, r)
		if err := applyBinOp(v.Op, out.col, l, r); err != nil {
			return operand{}, err
		}
		return out, nil
	case *BetweenExpr:
		return ev.eval(f, between(v), win, sel)
	case *CaseExpr:
		return ev.evalCase(f, v, win, sel)
	case *FuncExpr:
		return ev.evalFunc(f, v, win, sel)
	default:
		return operand{}, fmt.Errorf("sciql: unsupported expression %T", expr)
	}
}

// isZero is NOT x, and between x BETWEEN lo AND hi, as what they are
// cell for cell.
func isZero(x Expr) Expr { return &BinExpr{Op: "=", L: x, R: &NumLit{}} }

func between(v *BetweenExpr) Expr {
	return &BinExpr{Op: "AND", L: &BinExpr{Op: ">=", L: v.X, R: v.Lo}, R: &BinExpr{Op: "<=", L: v.X, R: v.Hi}}
}

// filter returns the cells of sel (nil for every cell) at which expr is
// non-zero, NaN included: ascending, never nil. AND filters the cells
// its left side passes by its right side; a OR b fails where a = 0 AND
// b = 0.
func (ev *evaluator) filter(f *Frame, expr Expr, win *GroupSpec, sel []int32) ([]int32, error) {
	switch v := expr.(type) {
	case *BinExpr:
		switch v.Op {
		case "AND":
			yes, err := ev.filter(f, v.L, win, sel)
			if err != nil {
				return nil, err
			}
			return ev.filter(f, v.R, win, yes)
		case "OR":
			no, err := ev.filter(f, &BinExpr{Op: "AND", L: isZero(v.L), R: isZero(v.R)}, win, sel)
			if err != nil {
				return nil, err
			}
			return minus(nil, sel, no, f.Len()), nil
		}
	case *BetweenExpr:
		return ev.filter(f, between(v), win, sel)
	}
	o, err := ev.eval(f, expr, win, sel)
	if err != nil {
		return nil, err
	}
	c, cm, m := o.col, o.mask(), size(f, sel)
	n := 0
	for k := 0; k < m; k++ {
		n += b2i(c[k&cm] != 0)
	}
	if n == 0 {
		ev.free(o)
		return []int32{}, nil
	}
	at := make([]int32, n+1) // each cell is written, then kept or not
	n = 0
	for k := 0; k < m; k++ {
		at[n] = cell(sel, k)
		n += b2i(c[k&cm] != 0)
	}
	ev.free(o)
	return at[:n], nil
}

// minus returns the cells of sel (nil for all n) that are not in at, a
// subset of sel, written into dst's array when dst is not nil (dst may
// be sel).
func minus(dst, sel, at []int32, n int) []int32 {
	if sel != nil {
		n = len(sel)
	}
	if dst == nil {
		dst = make([]int32, 0, n-len(at))
	}
	if sel == nil {
		next := int32(0)
		for _, i := range at {
			for ; next < i; next++ {
				dst = append(dst, next)
			}
			next = i + 1
		}
		for ; next < int32(n); next++ {
			dst = append(dst, next)
		}
		return dst
	}
	k := 0
	for _, i := range at {
		j := k
		for sel[j] != i {
			j++
		}
		dst, k = append(dst, sel[k:j]...), j+1
	}
	return append(dst, sel[k:]...)
}

// scatter writes vals, one per cell of at (ascending, within sel), into
// out, one per cell of sel.
func scatter(out []float64, sel, at []int32, vals operand) {
	vc, vm := vals.col, vals.mask()
	if sel == nil {
		for j, i := range at {
			out[i] = vc[j&vm]
		}
		return
	}
	k := 0
	for j, i := range at {
		for sel[k] != i {
			k++
		}
		out[k] = vc[j&vm]
	}
}

// evalCase filters each WHEN's condition only at the cells no earlier
// WHEN decided, evaluates its THEN only at the cells it passes, and ELSE
// at the cells left over. The result is written last, into what the
// conditions freed.
func (ev *evaluator) evalCase(f *Frame, v *CaseExpr, win *GroupSpec, sel []int32) (operand, error) {
	type arm struct {
		at   []int32
		vals operand
	}
	arms := make([]arm, 0, len(v.Whens)+1)
	open, own := sel, false // the undecided cells; own: a list of evalCase's
	for _, w := range v.Whens {
		yes, err := ev.filter(f, w.Cond, win, open)
		if err != nil {
			return operand{}, err
		}
		then, err := ev.eval(f, w.Then, win, yes)
		if err != nil {
			return operand{}, err
		}
		arms = append(arms, arm{yes, then})
		var dst []int32
		if own {
			dst = open[:0]
		}
		open, own = minus(dst, open, yes, f.Len()), true
	}
	els := scalar(0)
	if v.Else != nil {
		var err error
		if els, err = ev.eval(f, v.Else, win, open); err != nil {
			return operand{}, err
		}
	}
	out := ev.alloc(size(f, sel))
	for _, a := range append(arms, arm{open, els}) {
		scatter(out, sel, a.at, a.vals)
		ev.free(a.vals)
	}
	return operand{col: out, tmp: true}, nil
}

// applyBinOp writes l op r into out, value by value.
func applyBinOp(op string, out []float64, l, r operand) error {
	lc, lm, rc, rm := l.col, l.mask(), r.col, r.mask()
	switch op {
	case "+":
		for i := range out {
			out[i] = lc[i&lm] + rc[i&rm]
		}
	case "-":
		for i := range out {
			out[i] = lc[i&lm] - rc[i&rm]
		}
	case "*":
		// The conversion rounds each product before a sum reads it
		// (sqr_mean - mean*mean, v*v into a summed-area table), which a
		// platform that fuses multiply-add (arm64) may otherwise skip.
		for i := range out {
			out[i] = float64(lc[i&lm] * rc[i&rm])
		}
	case "/":
		for i := range out {
			if d := rc[i&rm]; d != 0 {
				out[i] = lc[i&lm] / d
			} else {
				out[i] = 0
			}
		}
	case "=":
		for i := range out {
			out[i] = b2f(lc[i&lm] == rc[i&rm])
		}
	case "<>":
		for i := range out {
			out[i] = b2f(lc[i&lm] != rc[i&rm])
		}
	case "<":
		for i := range out {
			out[i] = b2f(lc[i&lm] < rc[i&rm])
		}
	case "<=":
		for i := range out {
			out[i] = b2f(lc[i&lm] <= rc[i&rm])
		}
	case ">", ">=": // l > r is r < l
		return applyBinOp(strings.Replace(op, ">", "<", 1), out, r, l)
	default:
		return fmt.Errorf("sciql: unknown operator %q", op)
	}
	return nil
}

// b2f and b2i turn a comparison into a number without a branch, which a
// selective comparison would mispredict cell by cell.
func b2f(b bool) float64 { return float64(b2i(b)) }

func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

func (ev *evaluator) evalFunc(f *Frame, fn *FuncExpr, win *GroupSpec, sel []int32) (operand, error) {
	if aggregateFns[fn.Name] {
		return ev.aggregate(f, fn, win, sel)
	}
	args := make([]operand, len(fn.Args))
	for i, a := range fn.Args {
		var err error
		if args[i], err = ev.eval(f, a, win, sel); err != nil {
			return operand{}, err
		}
	}
	m := size(f, sel)
	var g func(float64) float64
	switch fn.Name {
	case "SQRT":
		g = func(v float64) float64 {
			if v < 0 {
				return 0
			}
			return math.Sqrt(v)
		}
	case "ABS":
		g = math.Abs
	case "FLOOR":
		g = math.Floor
	case "CEIL", "CEILING":
		g = math.Ceil
	case "EXP":
		g = math.Exp
	case "LN", "LOG":
		g = func(v float64) float64 {
			if v <= 0 {
				return 0
			}
			return math.Log(v)
		}
	case "POWER", "POW":
		if len(args) != 2 {
			return operand{}, fmt.Errorf("sciql: POWER wants two arguments")
		}
		out := ev.dest(m, args...)
		bc, bm, ec, em := args[0].col, args[0].mask(), args[1].col, args[1].mask()
		for i := range out.col {
			out.col[i] = math.Pow(bc[i&bm], ec[i&em])
		}
		return out, nil
	default:
		return operand{}, fmt.Errorf("sciql: unknown function %s", fn.Name)
	}
	if len(args) != 1 {
		return operand{}, fmt.Errorf("sciql: %s wants one argument", fn.Name)
	}
	x := args[0]
	out, xc, xm := ev.dest(m, x), x.col, x.mask()
	for i := range out.col {
		out.col[i] = g(xc[i&xm])
	}
	return out, nil
}

// aggregate reads a structural-group aggregate at the selected cells.
// The first read at any cell builds, over every cell, a summed-area table
// (AVG, SUM) or the argument column (MIN, MAX) that the statement keeps,
// so every window sum adds the cells it always added, in the same order.
func (ev *evaluator) aggregate(f *Frame, fn *FuncExpr, win *GroupSpec, sel []int32) (operand, error) {
	if win == nil {
		return operand{}, fmt.Errorf("sciql: aggregate %s outside structural GROUP BY", fn.Name)
	}
	src, built := ev.aggs[fn]
	if fn.Name != "COUNT" && !built {
		if len(fn.Args) != 1 {
			return operand{}, fmt.Errorf("sciql: %s wants one argument", fn.Name)
		}
		at := sel // the empty selection only checks the argument
		if len(sel) > 0 {
			at = nil
		}
		arg, err := ev.eval(f, fn.Args[0], win, at)
		if err != nil || at != nil {
			ev.free(arg)
			return operand{col: []float64{}, tmp: true}, err
		}
		arg = materialise(arg, f.Len())
		src = arg.col
		if fn.Name == "AVG" || fn.Name == "SUM" {
			src = ev.alloc((f.W + 1) * (f.H + 1))
			array.SummedAreaTable(src, arg.col, f.W, f.H)
			ev.free(arg)
		}
		ev.aggs[fn] = src
	}
	spec := array.WindowSpec{XLo: win.XLo, XHi: win.XHi, YLo: win.YLo, YHi: win.YHi}
	out := ev.alloc(size(f, sel))
	for k := range out {
		i := int(cell(sel, k))
		x, y := i%f.W, i/f.W
		switch fn.Name {
		case "COUNT":
			out[k] = float64(spec.Count(f.W, f.H, x, y))
		case "MIN":
			out[k] = spec.Extreme(src, f.W, f.H, x, y, func(a, b float64) bool { return a < b })
		case "MAX":
			out[k] = spec.Extreme(src, f.W, f.H, x, y, func(a, b float64) bool { return a > b })
		default:
			sum, n := spec.Sum(src, f.W, f.H, x, y)
			if fn.Name == "AVG" && n > 0 {
				sum /= float64(n)
			}
			out[k] = sum
		}
	}
	return operand{col: out, tmp: true}, nil
}
