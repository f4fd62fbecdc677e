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
// comment): it owns the columns it computes, recycles them through its
// free list, and dies with the statement.
type evaluator struct {
	e      *Engine
	params map[string]float64
	free   [][]float64
	owned  map[*float64]bool // buffers handed out and not yet released
}

func (e *Engine) newEvaluator(params map[string]float64) *evaluator {
	return &evaluator{e: e, params: params, owned: make(map[*float64]bool)}
}

// key identifies a buffer by its first cell; empty buffers are never
// tracked.
func key(buf []float64) *float64 {
	if cap(buf) == 0 {
		return nil
	}
	return &buf[:1][0]
}

// get returns an n-cell temporary of unspecified contents: the smallest
// free buffer that fits, else a fresh one.
func (ev *evaluator) get(n int) []float64 {
	best := -1
	for i, b := range ev.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(ev.free[best])) {
			best = i
		}
	}
	var buf []float64
	if best < 0 {
		buf = make([]float64, n)
	} else {
		buf = ev.free[best][:n]
		ev.free[best] = ev.free[len(ev.free)-1]
		ev.free = ev.free[:len(ev.free)-1]
	}
	if k := key(buf); k != nil {
		ev.owned[k] = true
	}
	return buf
}

// release returns an owned buffer to the free list; anything else — a
// catalog or table-function column, a buffer already released — is left
// alone.
func (ev *evaluator) release(buf []float64) {
	if k := key(buf); k != nil && ev.owned[k] {
		delete(ev.owned, k)
		ev.free = append(ev.free, buf)
	}
}

// result evaluates a statement's top-level SELECT. Its frame outlives the
// statement and owns its columns, so columns it shares with the catalog,
// a table function or another of its columns are copied out.
func (ev *evaluator) result(s *Select) (*Frame, error) {
	f, err := ev.evalSelect(s)
	if err != nil {
		return nil, err
	}
	for i, c := range f.cols {
		k := key(c.Data)
		if k != nil && (!ev.owned[k] || slices.ContainsFunc(f.cols[:i], func(o Column) bool { return key(o.Data) == k })) {
			f.cols[i].Data = append([]float64(nil), c.Data...)
		}
	}
	return f, nil
}

func (ev *evaluator) evalSelect(s *Select) (*Frame, error) {
	base, err := ev.evalFrom(s.From)
	if err != nil {
		return nil, err
	}
	n := base.Len()

	// WHERE: split the conjunction into dimension-range constraints
	// (cropping, the paper's range query) and residual cell predicates
	// (validity masking).
	if s.Where != nil {
		crop, residual := splitWhere(s.Where)
		if crop != nil {
			base = ev.crop(base, crop.x0, crop.x1, crop.y0, crop.y1)
			n = base.Len()
		}
		if residual != nil && n > 0 {
			mask, err := ev.eval(base, residual, nil)
			if err != nil {
				return nil, err
			}
			mask = ev.materialise(mask, n)
			base.MaskInvalid(mask.col)
			ev.done(operand{}, mask)
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
		col, err := ev.eval(base, item.Expr, s.GroupBy)
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
		if err := out.AddColumn("", name, ev.materialise(col, n).col); err != nil {
			return nil, err
		}
	}
	if len(out.cols) == 0 {
		return nil, fmt.Errorf("sciql: SELECT projects no value columns")
	}
	// The source's columns this block did not project are dead.
	for _, c := range base.cols {
		if !slices.ContainsFunc(out.cols, func(o Column) bool { return key(o.Data) == key(c.Data) }) {
			ev.release(c.Data)
		}
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
			return ev.crop(&f, src.Slice.X0, src.Slice.X1, src.Slice.Y0, src.Slice.Y1), nil
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
		return ev.joinFrames(l, r), nil
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
func (ev *evaluator) joinFrames(l, r *Frame) *Frame {
	x0 := max(l.X0, r.X0)
	y0 := max(l.Y0, r.Y0)
	x1 := min(l.X0+l.W, r.X0+r.W)
	y1 := min(l.Y0+l.H, r.Y0+r.H)
	lc := ev.crop(l, x0, x1, y0, y1)
	rc := ev.crop(r, x0, x1, y0, y1)
	out := NewFrame(lc.X0, lc.Y0, lc.W, lc.H)
	out.cols = append(out.cols, lc.cols...)
	out.cols = append(out.cols, rc.cols...)
	if lc.valid != nil || rc.valid != nil {
		out.valid = make([]bool, out.Len())
		for i := range out.valid {
			out.valid[i] = lc.Valid(i) && rc.Valid(i)
		}
	}
	return out
}

// crop returns the sub-frame covering [x0,x1) × [y0,y1) in absolute
// dimension coordinates, clamped to the frame: f itself when that is the
// whole frame, else a copy into temporaries, releasing f's columns.
func (ev *evaluator) crop(f *Frame, x0, x1, y0, y1 int) *Frame {
	x0 = max(x0, f.X0)
	y0 = max(y0, f.Y0)
	x1 = min(x1, f.X0+f.W)
	y1 = min(y1, f.Y0+f.H)
	if x0 == f.X0 && y0 == f.Y0 && x1 == f.X0+f.W && y1 == f.Y0+f.H && f.Len() > 0 {
		return f
	}
	defer func() {
		for _, c := range f.cols {
			ev.release(c.Data)
		}
	}()
	if x1 <= x0 || y1 <= y0 {
		return NewFrame(x0, y0, 0, 0)
	}
	out := NewFrame(x0, y0, x1-x0, y1-y0)
	for _, c := range f.cols {
		data := ev.get(out.Len())
		for y := 0; y < out.H; y++ {
			srcOff := (y0-f.Y0+y)*f.W + (x0 - f.X0)
			copy(data[y*out.W:(y+1)*out.W], c.Data[srcOff:srcOff+out.W])
		}
		out.cols = append(out.cols, Column{Qualifier: c.Qualifier, Name: c.Name, Data: data})
	}
	if f.valid != nil {
		out.valid = make([]bool, out.Len())
		for y := 0; y < out.H; y++ {
			srcOff := (y0-f.Y0+y)*f.W + (x0 - f.X0)
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

// dimComparison matches "dim OP number" or "number OP dim".
func dimComparison(v *BinExpr) (dim string, lit float64, op string, ok bool) {
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
	case "=":
		*lo = max(*lo, int(v))
		*hi = min(*hi, int(v)+1)
	}
}

// --- expression evaluation (vectorised per column) ---

// operand is an evaluated expression: a column of the frame's cells, or
// a broadcast scalar held as a one-cell column. Kernels read cell i of
// an operand at col[i&o.mask()], so a scalar is read at 0 by every cell.
// tmp marks a column this evaluation computed that nothing else
// references: its consumer may write into it, and releases it.
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

// dest picks what an elementwise operator over ops writes: a scalar when
// every operand is one, else the first temporary column among them, else
// a fresh temporary.
func (ev *evaluator) dest(n int, ops ...operand) operand {
	all := true
	for _, o := range ops {
		if o.tmp {
			return o
		}
		all = all && o.scalar
	}
	if all {
		return scalar(0)
	}
	return operand{col: ev.get(n), tmp: true}
}

// done releases the temporaries among ops that the operator did not
// write its result into.
func (ev *evaluator) done(out operand, ops ...operand) {
	for _, o := range ops {
		if o.tmp && key(o.col) != key(out.col) {
			ev.release(o.col)
		}
	}
}

// materialise turns a scalar into a temporary column of n cells.
func (ev *evaluator) materialise(o operand, n int) operand {
	if !o.scalar {
		return o
	}
	col := ev.get(n)
	for i := range col {
		col[i] = o.col[0]
	}
	return operand{col: col, tmp: true}
}

func (ev *evaluator) eval(f *Frame, expr Expr, win *GroupSpec) (operand, error) {
	n := f.Len()
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
		col, err := f.Resolve(v.Qualifier, v.Name)
		return operand{col: col}, err
	case *DimRef:
		if v.Name != "x" && v.Name != "y" {
			return operand{}, fmt.Errorf("sciql: unknown dimension %q", v.Name)
		}
		col := ev.get(n)
		for i := range col {
			if v.Name == "x" {
				col[i] = float64(f.X0 + i%f.W)
			} else {
				col[i] = float64(f.Y0 + i/f.W)
			}
		}
		return operand{col: col, tmp: true}, nil
	case *UnaryExpr:
		if v.Op == "NOT" { // cell for cell, NOT x is x = 0
			return ev.eval(f, &BinExpr{Op: "=", L: v.X, R: &NumLit{}}, win)
		}
		x, err := ev.eval(f, v.X, win)
		if err != nil {
			return operand{}, err
		}
		if v.Op != "-" {
			return operand{}, fmt.Errorf("sciql: unknown unary operator %q", v.Op)
		}
		out, xc, xm := ev.dest(n, x), x.col, x.mask()
		for i := range out.col {
			out.col[i] = -xc[i&xm]
		}
		return out, nil
	case *BinExpr:
		l, err := ev.eval(f, v.L, win)
		if err != nil {
			return operand{}, err
		}
		r, err := ev.eval(f, v.R, win)
		if err != nil {
			return operand{}, err
		}
		out := ev.dest(n, l, r)
		if err := applyBinOp(v.Op, out.col, l, r); err != nil {
			return operand{}, err
		}
		ev.done(out, l, r)
		return out, nil
	case *BetweenExpr: // cell for cell, (x >= lo) AND (x <= hi)
		return ev.eval(f, &BinExpr{Op: "AND", L: &BinExpr{Op: ">=", L: v.X, R: v.Lo}, R: &BinExpr{Op: "<=", L: v.X, R: v.Hi}}, win)
	case *CaseExpr:
		out := operand{col: ev.get(n), tmp: true}
		decided := make([]bool, n)
		for _, w := range v.Whens {
			cond, err := ev.eval(f, w.Cond, win)
			if err != nil {
				return operand{}, err
			}
			then, err := ev.eval(f, w.Then, win)
			if err != nil {
				return operand{}, err
			}
			cc, cm, tc, tm := cond.col, cond.mask(), then.col, then.mask()
			for i := range out.col {
				if !decided[i] && cc[i&cm] != 0 {
					out.col[i] = tc[i&tm]
					decided[i] = true
				}
			}
			ev.done(out, cond, then)
		}
		els := scalar(0)
		if v.Else != nil {
			var err error
			if els, err = ev.eval(f, v.Else, win); err != nil {
				return operand{}, err
			}
		}
		ec, em := els.col, els.mask()
		for i := range out.col {
			if !decided[i] {
				out.col[i] = ec[i&em]
			}
		}
		ev.done(out, els)
		return out, nil
	case *FuncExpr:
		return ev.evalFunc(f, v, win)
	default:
		return operand{}, fmt.Errorf("sciql: unsupported expression %T", expr)
	}
}

// applyBinOp writes l op r into out, cell by cell.
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
		for i := range out {
			out[i] = lc[i&lm] * rc[i&rm]
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
	case "AND":
		for i := range out {
			out[i] = b2f(lc[i&lm] != 0 && rc[i&rm] != 0)
		}
	case "OR":
		for i := range out {
			out[i] = b2f(lc[i&lm] != 0 || rc[i&rm] != 0)
		}
	default:
		return fmt.Errorf("sciql: unknown operator %q", op)
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (ev *evaluator) evalFunc(f *Frame, fn *FuncExpr, win *GroupSpec) (operand, error) {
	n := f.Len()
	if aggregateFns[fn.Name] {
		if win == nil {
			return operand{}, fmt.Errorf("sciql: aggregate %s outside structural GROUP BY", fn.Name)
		}
		spec := array.WindowSpec{XLo: win.XLo, XHi: win.XHi, YLo: win.YLo, YHi: win.YHi}
		if fn.Name == "COUNT" {
			out := operand{col: ev.get(n), tmp: true}
			array.WindowCount(out.col, f.W, f.H, spec)
			return out, nil
		}
		if len(fn.Args) != 1 {
			return operand{}, fmt.Errorf("sciql: %s wants one argument", fn.Name)
		}
		arg, err := ev.eval(f, fn.Args[0], win)
		if err != nil {
			return operand{}, err
		}
		arg = ev.materialise(arg, n)
		var out operand
		switch fn.Name {
		case "AVG", "SUM":
			// The summed-area table holds the whole argument before a cell
			// is written, so a temporary argument takes the result.
			out = ev.dest(n, arg)
			sat := ev.get((f.W + 1) * (f.H + 1))
			if fn.Name == "AVG" {
				array.WindowAvg(out.col, sat, arg.col, f.W, f.H, spec)
			} else {
				array.WindowSum(out.col, sat, arg.col, f.W, f.H, spec)
			}
			ev.release(sat)
		case "MIN":
			out = operand{col: ev.get(n), tmp: true}
			array.WindowMin(out.col, arg.col, f.W, f.H, spec)
		case "MAX":
			out = operand{col: ev.get(n), tmp: true}
			array.WindowMax(out.col, arg.col, f.W, f.H, spec)
		}
		ev.done(out, arg)
		return out, nil
	}
	// Scalar functions.
	args := make([]operand, len(fn.Args))
	for i, a := range fn.Args {
		var err error
		if args[i], err = ev.eval(f, a, win); err != nil {
			return operand{}, err
		}
	}
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
		out := ev.dest(n, args...)
		bc, bm, ec, em := args[0].col, args[0].mask(), args[1].col, args[1].mask()
		for i := range out.col {
			out.col[i] = math.Pow(bc[i&bm], ec[i&em])
		}
		ev.done(out, args...)
		return out, nil
	default:
		return operand{}, fmt.Errorf("sciql: unknown function %s", fn.Name)
	}
	if len(args) != 1 {
		return operand{}, fmt.Errorf("sciql: %s wants one argument", fn.Name)
	}
	x := args[0]
	out, xc, xm := ev.dest(n, x), x.col, x.mask()
	for i := range out.col {
		out.col[i] = g(xc[i&xm])
	}
	return out, nil
}
