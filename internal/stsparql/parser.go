package stsparql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// defaultNamespaces serves requests parsed without a namespace table.
// Parse only reads a table, so one is shared.
var defaultNamespaces = rdf.NewNamespaces()

// Parse parses an stSPARQL query or update request. The namespace table
// provides prefix bindings in addition to any PREFIX declarations in the
// request itself, which bind for this request only and are consulted
// first; pass nil for the default TELEIOS namespaces.
func Parse(src string, ns *rdf.Namespaces) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	if ns == nil {
		ns = defaultNamespaces
	}
	p := &parser{toks: toks, ns: ns}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("trailing tokens after query")
	}
	q.nondet = p.nondet
	return q, nil
}

type parser struct {
	toks     []token
	pos      int
	ns       *rdf.Namespaces
	prefixes map[string]string // the request's own PREFIX declarations
	inFilter bool              // parsing a WHERE-clause FILTER, where aggregates are refused
	nondet   bool              // some call resolved to a nondeterministic builtin
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("stsparql: line %d: %s (near %q)", p.cur().line,
		fmt.Sprintf(format, args...), p.cur().text)
}

// isKeyword reports whether the current token is the given keyword
// (case-insensitive).
func (p *parser) isKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokWord && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *parser) isPunct(s string) bool {
	t := p.cur()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) acceptPunct(s string) bool {
	if p.isPunct(s) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q", s)
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	// Prologue.
	for p.acceptKeyword("PREFIX") {
		name, iri, err := p.prefixDecl()
		if err != nil {
			return nil, err
		}
		if p.prefixes == nil {
			p.prefixes = make(map[string]string)
		}
		p.prefixes[name] = iri
	}
	switch {
	case p.isKeyword("SELECT"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Query{Select: sel}, nil
	case p.isKeyword("ASK"):
		p.advance()
		p.acceptKeyword("WHERE")
		gp, err := p.parseGroupPattern()
		if err != nil {
			return nil, err
		}
		return &Query{Ask: &AskQuery{Where: gp}}, nil
	case p.isKeyword("DELETE") || p.isKeyword("INSERT"):
		up, err := p.parseUpdate()
		if err != nil {
			return nil, err
		}
		return &Query{Update: up}, nil
	default:
		return nil, p.errf("expected SELECT, ASK, DELETE or INSERT")
	}
}

// prefixDecl parses the "name: <iri>" of a PREFIX or @prefix directive.
func (p *parser) prefixDecl() (name, iri string, err error) {
	n := p.advance()
	if n.kind != tokWord || !strings.HasSuffix(n.text, ":") {
		return "", "", p.errf("PREFIX wants 'name:'")
	}
	i := p.advance()
	if i.kind != tokIRI {
		return "", "", p.errf("PREFIX wants an IRI")
	}
	return strings.TrimSuffix(n.text, ":"), i.text, nil
}

// expand resolves a prefixed name: the request's own PREFIX
// declarations first, then the namespace table.
func (p *parser) expand(qname string) (string, error) {
	if i := strings.IndexByte(qname, ':'); i >= 0 {
		if base, ok := p.prefixes[qname[:i]]; ok {
			return base + qname[i+1:], nil
		}
	}
	return p.ns.Expand(qname)
}

func (p *parser) parseSelect() (*SelectQuery, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &SelectQuery{Limit: -1}
	if p.acceptKeyword("DISTINCT") {
		q.Distinct = true
	} else {
		p.acceptKeyword("REDUCED")
	}
	// Projection.
	if p.cur().kind == tokOp && p.cur().text == "*" {
		p.advance()
		q.Star = true
	} else {
		for {
			switch {
			case p.cur().kind == tokVar:
				q.Projection = append(q.Projection, SelectItem{Var: p.advance().text})
			case p.isPunct("("):
				p.advance()
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expectKeyword("AS"); err != nil {
					return nil, err
				}
				if p.cur().kind != tokVar {
					return nil, p.errf("AS wants a variable")
				}
				v := p.advance().text
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				q.Projection = append(q.Projection, SelectItem{Var: v, Expr: e})
			default:
				if len(q.Projection) == 0 {
					return nil, p.errf("SELECT wants at least one projection")
				}
				goto projDone
			}
		}
	}
projDone:
	p.acceptKeyword("WHERE")
	gp, err := p.parseGroupPattern()
	if err != nil {
		return nil, err
	}
	q.Where = gp

	// Solution modifiers.
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseGroupByKey()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, e)
			if p.cur().kind == tokVar || p.isPunct("(") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("HAVING") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			q.Having = append(q.Having, e)
			if p.isPunct("(") || p.cur().kind == tokVar {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			var key OrderKey
			switch {
			case p.isKeyword("ASC") || p.isKeyword("DESC"):
				key.Desc = p.isKeyword("DESC")
				p.advance()
				e, err := p.parseBracketed()
				if err != nil {
					return nil, err
				}
				key.Expr = e
			case p.cur().kind == tokVar:
				key = OrderKey{Expr: &VarExpr{Name: p.advance().text}}
			default:
				goto orderDone
			}
			q.OrderBy = append(q.OrderBy, key)
		}
	}
orderDone:
	// SPARQL allows LIMIT and OFFSET in either order, but at most one of
	// each.
	sawLimit, sawOffset := false, false
	for {
		switch {
		case p.acceptKeyword("LIMIT"):
			if sawLimit {
				return nil, p.errf("duplicate LIMIT clause")
			}
			sawLimit = true
			n, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			q.Limit = n
		case p.acceptKeyword("OFFSET"):
			if sawOffset {
				return nil, p.errf("duplicate OFFSET clause")
			}
			sawOffset = true
			n, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			q.Offset = n
		default:
			return q, nil
		}
	}
}

// parseGroupByKey accepts "?v" or "(expr)" or "(expr AS ?v)".
func (p *parser) parseGroupByKey() (Expr, error) {
	if p.cur().kind == tokVar {
		return &VarExpr{Name: p.advance().text}, nil
	}
	if p.isPunct("(") {
		return p.parseBracketed()
	}
	return nil, p.errf("GROUP BY wants a variable or parenthesised expression")
}

func (p *parser) parseInt() (int, error) {
	t := p.advance()
	if t.kind != tokNumber {
		return 0, p.errf("expected integer")
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errf("bad integer %q", t.text)
	}
	return n, nil
}

func (p *parser) parseUpdate() (*UpdateQuery, error) {
	up := &UpdateQuery{}
	dataForm := false
	deleteWhereShorthand := false
	if p.acceptKeyword("DELETE") {
		switch {
		case p.acceptKeyword("DATA"):
			dataForm = true
			tpl, err := p.parseTemplate()
			if err != nil {
				return nil, err
			}
			up.Delete = tpl
		case p.isKeyword("WHERE"):
			deleteWhereShorthand = true
		default:
			tpl, err := p.parseTemplate()
			if err != nil {
				return nil, err
			}
			up.Delete = tpl
		}
	}
	if p.acceptKeyword("INSERT") {
		if p.acceptKeyword("DATA") {
			dataForm = true
		}
		tpl, err := p.parseTemplate()
		if err != nil {
			return nil, err
		}
		up.Insert = tpl
	}
	if dataForm {
		// SPARQL 1.1 Update §3.1.1–3.1.2: the data forms hold ground
		// triples only.
		for _, tpl := range [][]TriplePattern{up.Delete, up.Insert} {
			if err := p.checkGround(tpl); err != nil {
				return nil, err
			}
		}
		return up, nil
	}
	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, err
	}
	gp, err := p.parseGroupPattern()
	if err != nil {
		return nil, err
	}
	up.Where = gp
	if deleteWhereShorthand {
		// DELETE WHERE { pattern }: the pattern doubles as the template.
		up.Delete = collectPatterns(gp)
	}
	return up, nil
}

func collectPatterns(gp *GroupPattern) []TriplePattern {
	var out []TriplePattern
	for _, el := range gp.Elements {
		switch v := el.(type) {
		case *BGPElement:
			out = append(out, v.Patterns...)
		case *GroupPattern:
			out = append(out, collectPatterns(v)...)
		}
	}
	return out
}

// parseTemplate parses "{ triples }" allowing variables everywhere.
func (p *parser) parseTemplate() ([]TriplePattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []TriplePattern
	for !p.isPunct("}") {
		pats, err := p.parseTriplesStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, pats...)
		p.acceptPunct(".")
	}
	p.advance() // consume '}'
	return out, nil
}

func (p *parser) parseGroupPattern() (*GroupPattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	gp := &GroupPattern{}
	for {
		switch {
		case p.isPunct("}"):
			p.advance()
			return gp, nil
		case p.isPunct("."):
			p.advance() // tolerate stray separators
		case p.isKeyword("FILTER"):
			p.advance()
			// "FILTER (expr)" or "FILTER fn(args)", possibly negated.
			p.inFilter = true
			cond, err := p.parseUnary()
			p.inFilter = false
			if err != nil {
				return nil, err
			}
			gp.Elements = append(gp.Elements, &FilterElement{Cond: cond})
		case p.isKeyword("OPTIONAL"):
			p.advance()
			sub, err := p.parseGroupPattern()
			if err != nil {
				return nil, err
			}
			gp.Elements = append(gp.Elements, &OptionalElement{Pattern: sub})
		case p.isKeyword("SELECT"):
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			gp.Elements = append(gp.Elements, &SubSelectElement{Select: sel})
		case p.isPunct("{"):
			first, err := p.parseGroupPattern()
			if err != nil {
				return nil, err
			}
			if p.isKeyword("UNION") {
				u := &UnionElement{Branches: []*GroupPattern{first}}
				for p.acceptKeyword("UNION") {
					br, err := p.parseGroupPattern()
					if err != nil {
						return nil, err
					}
					u.Branches = append(u.Branches, br)
				}
				gp.Elements = append(gp.Elements, u)
			} else {
				gp.Elements = append(gp.Elements, first)
			}
		case p.atEOF():
			return nil, p.errf("unterminated group pattern")
		default:
			pats, err := p.parseTriplesStatement()
			if err != nil {
				return nil, err
			}
			gp.Elements = append(gp.Elements, &BGPElement{Patterns: pats})
		}
	}
}

// parseTriplesStatement parses one subject with its predicate-object list.
// It stops at '.', '}' or before a FILTER/OPTIONAL keyword that follows a
// dangling ';' (a tolerance for the paper's listings).
func (p *parser) parseTriplesStatement() ([]TriplePattern, error) {
	subj, err := p.parseTermOrVar()
	if err != nil {
		return nil, err
	}
	var out []TriplePattern
	for {
		verb, err := p.parseVerb()
		if err != nil {
			return nil, err
		}
		for {
			obj, err := p.parseTermOrVar()
			if err != nil {
				return nil, err
			}
			out = append(out, TriplePattern{S: subj, P: verb, O: obj})
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if p.acceptPunct(";") {
			// Dangling ';' before '}', '.', FILTER, OPTIONAL is tolerated.
			if p.isPunct("}") || p.isPunct(".") || p.isKeyword("FILTER") || p.isKeyword("OPTIONAL") {
				if p.isPunct(".") {
					p.advance()
				}
				return out, nil
			}
			continue
		}
		p.acceptPunct(".")
		return out, nil
	}
}

func (p *parser) parseVerb() (TermOrVar, error) {
	t := p.cur()
	if t.kind == tokWord && t.text == "a" {
		p.advance()
		return TermOrVar{Term: rdf.NewIRI(rdf.RDFType)}, nil
	}
	return p.parseTermOrVar()
}

func (p *parser) parseTermOrVar() (TermOrVar, error) {
	t := p.cur()
	var term rdf.Term
	var err error
	switch {
	case t.kind == tokVar:
		p.advance()
		return TermOrVar{Var: t.text}, nil
	case t.kind == tokIRI:
		term = rdf.NewIRI(t.text)
	case t.kind == tokNumber:
		term = numberTerm(t.text)
	case t.kind == tokString && t.lang != "":
		term = rdf.NewLangLiteral(t.text, t.lang)
	case t.kind == tokString && strings.HasPrefix(t.datatype, "<"):
		term = rdf.NewTypedLiteral(t.text, t.datatype[1:len(t.datatype)-1])
	case t.kind == tokString && t.datatype != "":
		term = rdf.NewLiteral(t.text)
		term.Datatype, err = p.expand(t.datatype)
	case t.kind == tokString:
		term = rdf.NewLiteral(t.text)
	case t.kind == tokWord && (strings.EqualFold(t.text, "true") || strings.EqualFold(t.text, "false")):
		term = rdf.NewBoolean(strings.EqualFold(t.text, "true"))
	case t.kind == tokWord && strings.HasPrefix(t.text, "_:"):
		term = rdf.NewBlank(t.text[2:])
	case t.kind == tokWord:
		var iri string
		iri, err = p.expand(t.text)
		term = rdf.NewIRI(iri)
	default:
		return TermOrVar{}, p.errf("expected term or variable")
	}
	if err != nil {
		return TermOrVar{}, p.errf("%v", err)
	}
	p.advance()
	return TermOrVar{Term: term}, nil
}

func numberTerm(text string) rdf.Term {
	if strings.ContainsAny(text, ".eE") {
		return rdf.NewTypedLiteral(text, rdf.XSDDouble)
	}
	return rdf.NewTypedLiteral(text, rdf.XSDInteger)
}

// --- expressions ---

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokOp && p.cur().text == "||" {
		p.advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokOp && p.cur().text == "&&" {
		p.advance()
		r, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "&&", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseRelational() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.kind == tokOp {
		switch t.text {
		case "=", "!=", "<", "<=", ">", ">=":
			p.advance()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: t.text, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		var r Expr
		switch {
		case t.kind == tokOp && (t.text == "+" || t.text == "-"):
			p.advance()
			r, err = p.parseMultiplicative()
		case t.kind == tokNumber && (t.text[0] == '+' || t.text[0] == '-'):
			// A signed number directly after an operand is the operator
			// and the number's magnitude (SPARQL 1.1 grammar rule [116]).
			p.advance()
			r, err = p.multiplicativeFrom(&ConstExpr{Term: numberTerm(t.text[1:])})
		default:
			return l, nil
		}
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: t.text[:1], L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return p.multiplicativeFrom(l)
}

// multiplicativeFrom continues a multiplicative expression whose first
// operand is l.
func (p *parser) multiplicativeFrom(l Expr) (Expr, error) {
	for t := p.cur(); t.kind == tokOp && (t.text == "*" || t.text == "/"); t = p.cur() {
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: t.text, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if t := p.cur(); t.kind == tokOp && (t.text == "!" || t.text == "-" || t.text == "+") {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: t.text, X: x}, nil
	}
	return p.parsePrimary()
}

// parseBracketed parses "( expr )".
func (p *parser) parseBracketed() (Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return e, p.expectPunct(")")
}

// parsePrimary parses a bracketed expression, a function call, or a
// variable or term as parseTermOrVar reads them.
func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokPunct && t.text == "(":
		return p.parseBracketed()
	case t.kind == tokWord && p.toks[p.pos+1].kind == tokPunct && p.toks[p.pos+1].text == "(":
		p.advance() // name
		p.advance() // '('
		call := &CallExpr{Name: strings.ToLower(t.text)}
		if p.acceptKeyword("DISTINCT") {
			call.Distinct = true
		}
		if p.cur().kind == tokOp && p.cur().text == "*" {
			p.advance()
			call.Star = true
		} else if !p.isPunct(")") {
			for {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if !p.acceptPunct(",") {
					break
				}
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if err := resolve(call); err != nil {
			return nil, p.errf("%v", err)
		}
		if p.inFilter && call.isAggregate() {
			return nil, p.errf("aggregate %s in a FILTER", call.Name)
		}
		p.nondet = p.nondet || call.Fn.nondet
		return call, nil
	}
	tv, err := p.parseTermOrVar()
	switch {
	case err != nil:
		return nil, err
	case tv.IsVar():
		return &VarExpr{Name: tv.Var}, nil
	default:
		return &ConstExpr{Term: tv.Term}, nil
	}
}
