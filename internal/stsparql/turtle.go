package stsparql

import "repro/internal/rdf"

// ParseTurtle parses a Turtle document into triples with the query
// lexer and triples grammar, so documents and queries read RDF terms
// alike. @prefix and PREFIX directives bind into ns (nil means a fresh
// default table); every statement must be ground and end with '.'.
// Relative IRIs are not resolved: an IRI must hold a ':'.
func ParseTurtle(src string, ns *rdf.Namespaces) ([]rdf.Triple, error) {
	if ns == nil {
		ns = rdf.NewNamespaces()
	}
	l := &lexer{src: src, line: 1}
	p := &parser{ns: ns}
	var out []rdf.Triple
	for {
		// A document lexes one statement at a time into one reused
		// buffer, so its tokens never all sit in memory at once.
		toks, err := l.tokens(p.toks[:0], true)
		if err != nil {
			return nil, err
		}
		p.toks, p.pos = toks, 0
		if p.atEOF() {
			return out, nil
		}
		for !p.atEOF() {
			if p.isKeyword("@prefix") || p.isKeyword("PREFIX") {
				directive := p.advance().text
				name, iri, err := p.prefixDecl()
				if err == nil && directive[0] == '@' {
					err = p.expectPunct(".")
				}
				if err != nil {
					return nil, err
				}
				ns.Bind(name, iri)
				continue
			}
			pats, err := p.parseTriplesStatement()
			if err != nil {
				return nil, err
			}
			if end := p.toks[p.pos-1]; end.kind != tokPunct || end.text != "." {
				return nil, p.errf("expected '.' after a statement")
			}
			if err := p.checkGround(pats); err != nil {
				return nil, err
			}
			for _, tp := range pats {
				out = append(out, rdf.Triple{S: tp.S.Term, P: tp.P.Term, O: tp.O.Term})
			}
		}
	}
}

// checkGround reports an error unless every pattern is a ground RDF
// triple: no variable, the subject an IRI or blank node, the predicate
// an IRI.
func (p *parser) checkGround(pats []TriplePattern) error {
	for _, tp := range pats {
		switch {
		case tp.S.IsVar() || tp.P.IsVar() || tp.O.IsVar():
			return p.errf("variable in ground data")
		case tp.S.Term.IsLiteral():
			return p.errf("literal subject")
		case !tp.P.Term.IsIRI():
			return p.errf("predicate must be an IRI")
		}
	}
	return nil
}
