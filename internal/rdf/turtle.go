package rdf

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Namespaces manages prefix -> IRI bindings for Turtle parsing and for the
// stSPARQL parser. It is safe for concurrent use: strabon parses queries
// (reads) concurrently with Turtle loads (which may Bind new prefixes).
type Namespaces struct {
	mu       sync.RWMutex
	prefixes map[string]string
}

// NewNamespaces returns a namespace table preloaded with the vocabularies
// used by the paper's datasets.
func NewNamespaces() *Namespaces {
	n := &Namespaces{prefixes: make(map[string]string)}
	for p, iri := range map[string]string{
		"rdf":   "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
		"rdfs":  "http://www.w3.org/2000/01/rdf-schema#",
		"owl":   "http://www.w3.org/2002/07/owl#",
		"xsd":   "http://www.w3.org/2001/XMLSchema#",
		"strdf": "http://strdf.di.uoa.gr/ontology#",
		"noa":   "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#",
		"clc":   "http://teleios.di.uoa.gr/ontologies/clcOntology.owl#",
		"coast": "http://teleios.di.uoa.gr/ontologies/coastlineOntology.owl#",
		"gag":   "http://teleios.di.uoa.gr/ontologies/gagOntology.owl#",
		"lgd":   "http://linkedgeodata.org/triplify/",
		"lgdo":  "http://linkedgeodata.org/ontology/",
		"gn":    "http://www.geonames.org/ontology#",
		"sweet": "http://sweet.jpl.nasa.gov/ontology/",
	} {
		n.prefixes[p] = iri
	}
	return n
}

// Bind registers (or overrides) a prefix. Query parsing reaches this
// for PREFIX declarations, so it runs on read paths too: the lock is
// the namespace table's own mutex, held for one map write.
func (n *Namespaces) Bind(prefix, iri string) {
	//lint:allow lockdiscipline namespace-table mutex, not a store lock; PREFIX declarations bind during read-path parsing
	n.mu.Lock()
	n.prefixes[prefix] = iri
	n.mu.Unlock()
}

// Expand resolves a prefixed name such as "noa:Hotspot" to a full IRI.
func (n *Namespaces) Expand(qname string) (string, error) {
	i := strings.Index(qname, ":")
	if i < 0 {
		return "", fmt.Errorf("rdf: %q is not a prefixed name", qname)
	}
	n.mu.RLock()
	base, ok := n.prefixes[qname[:i]]
	n.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("rdf: unknown prefix %q", qname[:i])
	}
	return base + qname[i+1:], nil
}

// ParseTurtle parses a Turtle document into triples. It supports the
// subset used by the paper's datasets: @prefix directives, IRIs, prefixed
// names, the "a" keyword, blank node labels, predicate lists (;), object
// lists (,), string literals with ^^datatype or @lang, and bare numeric /
// boolean literals.
func ParseTurtle(src string, ns *Namespaces) ([]Triple, error) {
	if ns == nil {
		ns = NewNamespaces()
	}
	p := &turtleParser{src: src, ns: ns}
	return p.parse()
}

type turtleParser struct {
	src  string
	pos  int
	line int
	ns   *Namespaces
}

func (p *turtleParser) errf(format string, args ...any) error {
	return fmt.Errorf("rdf: turtle line %d: %s", p.line+1, fmt.Sprintf(format, args...))
}

func (p *turtleParser) skipWS() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c == '\n':
			p.line++
			p.pos++
		case c == ' ' || c == '\t' || c == '\r':
			p.pos++
		case c == '#':
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

func (p *turtleParser) eof() bool {
	p.skipWS()
	return p.pos >= len(p.src)
}

func (p *turtleParser) peek() byte {
	p.skipWS()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *turtleParser) expect(c byte) error {
	if p.peek() != c {
		return p.errf("expected %q", string(c))
	}
	p.pos++
	return nil
}

func (p *turtleParser) parse() ([]Triple, error) {
	var out []Triple
	for !p.eof() {
		if p.peek() == '@' {
			if err := p.directive(); err != nil {
				return nil, err
			}
			continue
		}
		triples, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, triples...)
	}
	return out, nil
}

func (p *turtleParser) directive() error {
	word := p.readWhile(func(c byte) bool { return c != ' ' && c != '\t' && c != '\n' })
	if word != "@prefix" {
		return p.errf("unsupported directive %q", word)
	}
	p.skipWS()
	prefix := p.readWhile(func(c byte) bool { return c != ':' })
	if err := p.expect(':'); err != nil {
		return err
	}
	term, err := p.term()
	if err != nil {
		return err
	}
	if !term.IsIRI() {
		return p.errf("@prefix wants an IRI")
	}
	p.ns.Bind(strings.TrimSpace(prefix), term.Value)
	return p.expect('.')
}

func (p *turtleParser) statement() ([]Triple, error) {
	subj, err := p.term()
	if err != nil {
		return nil, err
	}
	if subj.IsLiteral() {
		return nil, p.errf("literal subject")
	}
	var out []Triple
	for {
		pred, err := p.predicate()
		if err != nil {
			return nil, err
		}
		for {
			obj, err := p.term()
			if err != nil {
				return nil, err
			}
			out = append(out, Triple{S: subj, P: pred, O: obj})
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		switch p.peek() {
		case ';':
			p.pos++
			// A dangling ";" before "." is legal Turtle.
			if p.peek() == '.' {
				p.pos++
				return out, nil
			}
			continue
		case '.':
			p.pos++
			return out, nil
		default:
			return nil, p.errf("expected ';' or '.' after object")
		}
	}
}

func (p *turtleParser) predicate() (Term, error) {
	p.skipWS()
	if p.pos < len(p.src) && p.src[p.pos] == 'a' {
		// "a" keyword only when followed by whitespace.
		if p.pos+1 < len(p.src) {
			c := p.src[p.pos+1]
			if c == ' ' || c == '\t' || c == '\n' || c == '<' {
				p.pos++
				return NewIRI(RDFType), nil
			}
		}
	}
	t, err := p.term()
	if err != nil {
		return Term{}, err
	}
	if !t.IsIRI() {
		return Term{}, p.errf("predicate must be an IRI")
	}
	return t, nil
}

func (p *turtleParser) readWhile(ok func(byte) bool) string {
	start := p.pos
	for p.pos < len(p.src) && ok(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos]
}

func isNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_' || c == '-' || c == '.' || c == '%'
}

func (p *turtleParser) term() (Term, error) {
	switch c := p.peek(); {
	case c == '<':
		p.pos++
		iri := p.readWhile(func(c byte) bool { return c != '>' })
		if err := p.expect('>'); err != nil {
			return Term{}, err
		}
		return NewIRI(iri), nil
	case c == '_':
		p.pos++
		if err := p.expect(':'); err != nil {
			return Term{}, err
		}
		label := p.readWhile(isNameChar)
		label = strings.TrimSuffix(label, ".")
		return NewBlank(label), nil
	case c == '"':
		return p.stringLiteral()
	case c >= '0' && c <= '9' || c == '-' || c == '+':
		lex := p.readWhile(func(c byte) bool {
			return c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
		})
		// A trailing '.' is the statement terminator, not part of the number.
		if strings.HasSuffix(lex, ".") {
			lex = lex[:len(lex)-1]
			p.pos--
		}
		if strings.ContainsAny(lex, ".eE") {
			if _, err := strconv.ParseFloat(lex, 64); err != nil {
				return Term{}, p.errf("bad numeric literal %q", lex)
			}
			return NewTypedLiteral(lex, XSDDouble), nil
		}
		if _, err := strconv.ParseInt(lex, 10, 64); err != nil {
			return Term{}, p.errf("bad integer literal %q", lex)
		}
		return NewTypedLiteral(lex, XSDInteger), nil
	default:
		word := p.readWhile(func(c byte) bool { return isNameChar(c) || c == ':' })
		if word == "true" || word == "false" {
			return NewTypedLiteral(word, XSDBoolean), nil
		}
		if word == "" {
			return Term{}, p.errf("unexpected character %q", string(c))
		}
		// Trailing '.' of the statement can stick to the local name.
		for strings.HasSuffix(word, ".") {
			word = word[:len(word)-1]
			p.pos--
		}
		iri, err := p.ns.Expand(word)
		if err != nil {
			return Term{}, p.errf("%v", err)
		}
		return NewIRI(iri), nil
	}
}

func (p *turtleParser) stringLiteral() (Term, error) {
	if err := p.expect('"'); err != nil {
		return Term{}, err
	}
	var b strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '\\' && p.pos+1 < len(p.src) {
			p.pos++
			switch p.src[p.pos] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				b.WriteByte(p.src[p.pos])
			}
			p.pos++
			continue
		}
		if c == '"' {
			p.pos++
			lex := b.String()
			// Datatype or language tag?
			if p.pos+1 < len(p.src) && p.src[p.pos] == '^' && p.src[p.pos+1] == '^' {
				p.pos += 2
				dt, err := p.term()
				if err != nil {
					return Term{}, err
				}
				if !dt.IsIRI() {
					return Term{}, p.errf("datatype must be an IRI")
				}
				return NewTypedLiteral(lex, dt.Value), nil
			}
			if p.pos < len(p.src) && p.src[p.pos] == '@' {
				p.pos++
				lang := p.readWhile(func(c byte) bool {
					return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '-'
				})
				return NewLangLiteral(lex, lang), nil
			}
			return NewLiteral(lex), nil
		}
		if c == '\n' {
			p.line++
		}
		b.WriteByte(c)
		p.pos++
	}
	return Term{}, p.errf("unterminated string literal")
}
