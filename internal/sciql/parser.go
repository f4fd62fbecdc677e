package sciql

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseStmt parses a single SciQL statement (a trailing ';' is allowed).
func ParseStmt(src string) (Stmt, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &sparser{toks: toks}
	s, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(tPunct, ";")
	if p.cur().kind != tEOF {
		return nil, p.errf("trailing tokens after statement")
	}
	return s, nil
}

type sparser struct {
	toks []tok
	pos  int
}

func (p *sparser) cur() tok { return p.toks[p.pos] }

func (p *sparser) peekAt(n int) tok {
	if p.pos+n >= len(p.toks) {
		return tok{kind: tEOF}
	}
	return p.toks[p.pos+n]
}

func (p *sparser) advance() tok {
	t := p.toks[p.pos]
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

func (p *sparser) errf(format string, args ...any) error {
	return fmt.Errorf("sciql: line %d: %s (near %q)", p.cur().line,
		fmt.Sprintf(format, args...), p.cur().text)
}

func (p *sparser) isKw(kw string) bool {
	return p.cur().kind == tIdent && strings.EqualFold(p.cur().text, kw)
}

func (p *sparser) acceptKw(kw string) bool {
	if p.isKw(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *sparser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *sparser) accept(kind tokKind, text string) bool {
	if p.cur().kind == kind && p.cur().text == text {
		p.advance()
		return true
	}
	return false
}

func (p *sparser) expect(kind tokKind, text string) error {
	if !p.accept(kind, text) {
		return p.errf("expected %q", text)
	}
	return nil
}

func (p *sparser) ident() (string, error) {
	if p.cur().kind != tIdent {
		return "", p.errf("expected identifier")
	}
	return p.advance().text, nil
}

func (p *sparser) intLit() (int, error) {
	neg := p.accept(tOp, "-")
	if p.cur().kind != tNumber {
		return 0, p.errf("expected integer")
	}
	n, err := strconv.Atoi(p.advance().text)
	if err != nil {
		return 0, p.errf("bad integer: %v", err)
	}
	if neg {
		n = -n
	}
	return n, nil
}

func (p *sparser) statement() (Stmt, error) {
	switch {
	case p.isKw("CREATE"):
		return p.createArray()
	case p.isKw("DROP"):
		p.advance()
		if err := p.expectKw("ARRAY"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropArray{Name: name}, nil
	case p.isKw("INSERT"):
		return p.insert()
	case p.isKw("SELECT"):
		return p.selectStmt()
	default:
		return nil, p.errf("expected CREATE, DROP, INSERT or SELECT")
	}
}

func (p *sparser) createArray() (Stmt, error) {
	p.advance() // CREATE
	if err := p.expectKw("ARRAY"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	out := &CreateArray{Name: name}
	for {
		colName, err := p.ident()
		if err != nil {
			return nil, err
		}
		typ, err := p.ident()
		if err != nil {
			return nil, err
		}
		if p.acceptKw("DIMENSION") {
			d := DimDef{Name: colName}
			if p.accept(tPunct, "[") {
				d.HasRange = true
				if d.Lo, err = p.intLit(); err != nil {
					return nil, err
				}
				if err := p.expect(tPunct, ":"); err != nil {
					return nil, err
				}
				if d.Hi, err = p.intLit(); err != nil {
					return nil, err
				}
				if err := p.expect(tPunct, "]"); err != nil {
					return nil, err
				}
			}
			out.Dims = append(out.Dims, d)
		} else {
			out.Cols = append(out.Cols, ColDef{Name: colName, Type: strings.ToUpper(typ)})
		}
		if p.accept(tPunct, ",") {
			continue
		}
		break
	}
	if err := p.expect(tPunct, ")"); err != nil {
		return nil, err
	}
	if len(out.Dims) != 2 {
		return nil, fmt.Errorf("sciql: array %s wants exactly 2 dimensions, got %d", name, len(out.Dims))
	}
	if len(out.Cols) == 0 {
		return nil, fmt.Errorf("sciql: array %s wants at least one value column", name)
	}
	return out, nil
}

func (p *sparser) insert() (Stmt, error) {
	p.advance() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.isKw("SELECT") {
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		return &InsertSelect{Name: name, Sel: sel.(*Select)}, nil
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	out := &InsertValues{Name: name}
	for {
		if err := p.expect(tPunct, "("); err != nil {
			return nil, err
		}
		var row []float64
		for {
			neg := p.accept(tOp, "-")
			if p.cur().kind != tNumber {
				return nil, p.errf("expected number in VALUES")
			}
			v, err := strconv.ParseFloat(p.advance().text, 64)
			if err != nil {
				return nil, p.errf("bad number: %v", err)
			}
			if neg {
				v = -v
			}
			row = append(row, v)
			if p.accept(tPunct, ",") {
				continue
			}
			break
		}
		if err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
		if p.accept(tPunct, ",") {
			continue
		}
		break
	}
	return out, nil
}

func (p *sparser) selectStmt() (Stmt, error) {
	sel, err := p.selectBlock()
	if err != nil {
		return nil, err
	}
	return sel, nil
}

func (p *sparser) selectBlock() (*Select, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	out := &Select{}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		out.Items = append(out.Items, item)
		if p.accept(tPunct, ",") {
			continue
		}
		break
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	from, err := p.fromClause()
	if err != nil {
		return nil, err
	}
	out.From = from
	if p.acceptKw("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		out.Where = w
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		gs, err := p.groupSpec()
		if err != nil {
			return nil, err
		}
		out.GroupBy = gs
	}
	return out, nil
}

// selectItem parses "[x]", "[T039.x]", or "expr [AS alias]".
func (p *sparser) selectItem() (SelectItem, error) {
	if p.cur().kind == tPunct && p.cur().text == "[" {
		p.advance()
		q, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item := SelectItem{Dim: q}
		if p.accept(tPunct, ".") {
			d, err := p.ident()
			if err != nil {
				return SelectItem{}, err
			}
			item.DimQualifier = q
			item.Dim = d
		}
		if err := p.expect(tPunct, "]"); err != nil {
			return SelectItem{}, err
		}
		if item.Dim != "x" && item.Dim != "y" {
			return SelectItem{}, fmt.Errorf("sciql: unknown dimension %q", item.Dim)
		}
		return item, nil
	}
	e, err := p.expr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	}
	return item, nil
}

func (p *sparser) fromClause() (FromClause, error) {
	left, err := p.fromSource()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("JOIN") {
		right, err := p.fromSource()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		left = &JoinRef{L: left, R: right, On: cond}
	}
	return left, nil
}

func (p *sparser) fromSource() (FromClause, error) {
	if p.accept(tPunct, "(") {
		sel, err := p.selectBlock()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		p.acceptKw("AS")
		alias, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &SubqueryRef{Sel: sel, Alias: alias}, nil
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	// Table function?
	if p.cur().kind == tPunct && p.cur().text == "(" {
		p.advance()
		f := &FuncRef{Name: strings.ToLower(name)}
		for !p.accept(tPunct, ")") {
			if p.cur().kind != tString {
				return nil, p.errf("table function arguments must be string literals")
			}
			f.Args = append(f.Args, p.advance().text)
			p.accept(tPunct, ",")
		}
		if p.acceptKw("AS") {
			if f.Alias, err = p.ident(); err != nil {
				return nil, err
			}
		}
		return f, nil
	}
	ref := &TableRef{Name: name}
	// Optional slice "[a:b][c:d]".
	if p.cur().kind == tPunct && p.cur().text == "[" {
		s := &SliceSpec{}
		p.advance()
		if s.X0, err = p.intLit(); err != nil {
			return nil, err
		}
		if err := p.expect(tPunct, ":"); err != nil {
			return nil, err
		}
		if s.X1, err = p.intLit(); err != nil {
			return nil, err
		}
		if err := p.expect(tPunct, "]"); err != nil {
			return nil, err
		}
		if err := p.expect(tPunct, "["); err != nil {
			return nil, err
		}
		if s.Y0, err = p.intLit(); err != nil {
			return nil, err
		}
		if err := p.expect(tPunct, ":"); err != nil {
			return nil, err
		}
		if s.Y1, err = p.intLit(); err != nil {
			return nil, err
		}
		if err := p.expect(tPunct, "]"); err != nil {
			return nil, err
		}
		ref.Slice = s
	}
	if p.acceptKw("AS") {
		if ref.Alias, err = p.ident(); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// groupSpec parses "target[x-1:x+2][y-1:y+2]".
func (p *sparser) groupSpec() (*GroupSpec, error) {
	target, err := p.ident()
	if err != nil {
		return nil, err
	}
	gs := &GroupSpec{Target: target}
	for i := 0; i < 2; i++ {
		if err := p.expect(tPunct, "["); err != nil {
			return nil, err
		}
		dim, lo, err := p.relOffset()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tPunct, ":"); err != nil {
			return nil, err
		}
		dim2, hi, err := p.relOffset()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tPunct, "]"); err != nil {
			return nil, err
		}
		if dim != dim2 {
			return nil, fmt.Errorf("sciql: mismatched dimensions %q/%q in GROUP BY window", dim, dim2)
		}
		switch dim {
		case "x":
			gs.XLo, gs.XHi = lo, hi
		case "y":
			gs.YLo, gs.YHi = lo, hi
		default:
			return nil, fmt.Errorf("sciql: unknown dimension %q in GROUP BY", dim)
		}
	}
	return gs, nil
}

// relOffset parses "x", "x-1", "x+2".
func (p *sparser) relOffset() (dim string, off int, err error) {
	dim, err = p.ident()
	if err != nil {
		return "", 0, err
	}
	switch {
	case p.accept(tOp, "-"):
		n, err := p.intLit()
		if err != nil {
			return "", 0, err
		}
		return dim, -n, nil
	case p.accept(tOp, "+"):
		n, err := p.intLit()
		if err != nil {
			return "", 0, err
		}
		return dim, n, nil
	default:
		return dim, 0, nil
	}
}

// --- expressions ---

func (p *sparser) expr() (Expr, error) { return p.orExpr() }

func (p *sparser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *sparser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *sparser) notExpr() (Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.comparison()
}

func (p *sparser) comparison() (Expr, error) {
	l, err := p.additive()
	if err != nil {
		return nil, err
	}
	if p.isKw("BETWEEN") {
		p.advance()
		lo, err := p.additive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.additive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: l, Lo: lo, Hi: hi}, nil
	}
	if t := p.cur(); t.kind == tOp {
		switch t.text {
		case "=", "<>", "<", "<=", ">", ">=":
			p.advance()
			r, err := p.additive()
			if err != nil {
				return nil, err
			}
			return &BinExpr{Op: t.text, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *sparser) additive() (Expr, error) {
	l, err := p.multiplicative()
	if err != nil {
		return nil, err
	}
	for t := p.cur(); t.kind == tOp && (t.text == "+" || t.text == "-"); t = p.cur() {
		p.advance()
		r, err := p.multiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: t.text, L: l, R: r}
	}
	return l, nil
}

func (p *sparser) multiplicative() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for t := p.cur(); t.kind == tOp && (t.text == "*" || t.text == "/"); t = p.cur() {
		p.advance()
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: t.text, L: l, R: r}
	}
	return l, nil
}

func (p *sparser) unary() (Expr, error) {
	if p.accept(tOp, "-") {
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.primary()
}

func (p *sparser) primary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tNumber:
		p.advance()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number: %v", err)
		}
		return &NumLit{V: v}, nil
	case tPunct:
		if t.text == "(" {
			p.advance()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tPunct, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == ":" && p.peekAt(1).kind == tIdent {
			p.advance()
			return &ParamRef{Name: p.advance().text}, nil
		}
		if t.text == "[" {
			// Dimension reference in expression position.
			p.advance()
			q, err := p.ident()
			if err != nil {
				return nil, err
			}
			ref := &DimRef{Name: q}
			if p.accept(tPunct, ".") {
				d, err := p.ident()
				if err != nil {
					return nil, err
				}
				ref.Qualifier = q
				ref.Name = d
			}
			if err := p.expect(tPunct, "]"); err != nil {
				return nil, err
			}
			return ref, nil
		}
		return nil, p.errf("unexpected %q in expression", t.text)
	case tIdent:
		upper := strings.ToUpper(t.text)
		if upper == "CASE" {
			return p.caseExpr()
		}
		// Function call?
		if p.peekAt(1).kind == tPunct && p.peekAt(1).text == "(" {
			name := upper
			p.advance()
			p.advance()
			f := &FuncExpr{Name: name}
			if p.accept(tOp, "*") {
				// COUNT(*)
				if err := p.expect(tPunct, ")"); err != nil {
					return nil, err
				}
				return f, nil
			}
			for !p.accept(tPunct, ")") {
				arg, err := p.expr()
				if err != nil {
					return nil, err
				}
				f.Args = append(f.Args, arg)
				p.accept(tPunct, ",")
			}
			return f, nil
		}
		// Column reference, possibly qualified; bare x/y are dimensions.
		name := t.text
		p.advance()
		if p.accept(tPunct, ".") {
			member, err := p.ident()
			if err != nil {
				return nil, err
			}
			if member == "x" || member == "y" {
				return &DimRef{Qualifier: name, Name: member}, nil
			}
			return &ColRef{Qualifier: name, Name: member}, nil
		}
		if name == "x" || name == "y" {
			return &DimRef{Name: name}, nil
		}
		return &ColRef{Name: name}, nil
	default:
		return nil, p.errf("unexpected token in expression")
	}
}

func (p *sparser) caseExpr() (Expr, error) {
	p.advance() // CASE
	out := &CaseExpr{}
	for p.acceptKw("WHEN") {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		then, err := p.expr()
		if err != nil {
			return nil, err
		}
		out.Whens = append(out.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if len(out.Whens) == 0 {
		return nil, p.errf("CASE wants at least one WHEN")
	}
	if p.acceptKw("ELSE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		out.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return out, nil
}
