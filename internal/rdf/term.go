// Package rdf implements the RDF data model used by the Strabon
// substrate: IRIs, blank nodes and typed literals, a dictionary encoder
// that maps terms to dense integer identifiers, an in-memory triple store
// with SPO/POS/OSP orderings, and the N-Triples-style term syntax the
// stsparql package's lexer reads back.
//
// The model follows stRDF (Koubarakis et al.): geometries are literals of
// datatype strdf:geometry (or strdf:WKT) whose lexical form is OGC
// Well-Known Text.
package rdf

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// TermKind discriminates the three RDF term categories.
type TermKind uint8

// Term kinds.
const (
	TermIRI TermKind = iota
	TermBlank
	TermLiteral
)

// Term is an RDF term. The zero Term is invalid; use the constructors.
type Term struct {
	Kind     TermKind
	Value    string // IRI text, blank node label, or literal lexical form
	Datatype string // literal datatype IRI ("" means xsd:string / plain)
	Lang     string // literal language tag
}

// Well-known datatype IRIs.
const (
	XSDString   = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger  = "http://www.w3.org/2001/XMLSchema#integer"
	XSDFloat    = "http://www.w3.org/2001/XMLSchema#float"
	XSDDouble   = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean  = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDateTime = "http://www.w3.org/2001/XMLSchema#dateTime"

	// RDFLangString is rdf:langString, the datatype of a language-tagged
	// literal.
	RDFLangString = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"

	// StRDFGeometry is the strdf:geometry datatype of stRDF literals.
	StRDFGeometry = "http://strdf.di.uoa.gr/ontology#geometry"
	// StRDFWKT is the strdf:WKT alias accepted by Strabon.
	StRDFWKT = "http://strdf.di.uoa.gr/ontology#WKT"

	// RDFType is rdf:type, abbreviated "a" in Turtle.
	RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
)

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: TermIRI, Value: iri} }

// NewBlank returns a blank node term with the given label.
func NewBlank(label string) Term { return Term{Kind: TermBlank, Value: label} }

// NewLiteral returns a plain string literal.
func NewLiteral(lex string) Term { return Term{Kind: TermLiteral, Value: lex} }

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: TermLiteral, Value: lex, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: TermLiteral, Value: lex, Lang: lang}
}

// NewInteger returns an xsd:integer literal.
func NewInteger(v int64) Term {
	return NewTypedLiteral(strconv.FormatInt(v, 10), XSDInteger)
}

// NewFloat returns an xsd:float literal.
func NewFloat(v float64) Term {
	return NewTypedLiteral(strconv.FormatFloat(v, 'g', -1, 64), XSDFloat)
}

// NewBoolean returns an xsd:boolean literal.
func NewBoolean(v bool) Term {
	return NewTypedLiteral(strconv.FormatBool(v), XSDBoolean)
}

// NewDateTime returns an xsd:dateTime literal from an ISO 8601 string.
func NewDateTime(iso string) Term { return NewTypedLiteral(iso, XSDDateTime) }

// NewGeometry returns an strdf:geometry literal holding WKT.
func NewGeometry(wkt string) Term { return NewTypedLiteral(wkt, StRDFGeometry) }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == TermIRI }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == TermBlank }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == TermLiteral }

// IsGeometry reports whether the term is an stRDF geometry literal.
func (t Term) IsGeometry() bool {
	return t.Kind == TermLiteral && (t.Datatype == StRDFGeometry || t.Datatype == StRDFWKT)
}

// IsZero reports whether the term is the zero (invalid/wildcard) value.
func (t Term) IsZero() bool {
	return t.Value == "" && t.Datatype == "" && t.Lang == "" && t.Kind == TermIRI
}

// Float parses the literal as a float.
func (t Term) Float() (float64, bool) {
	if t.Kind != TermLiteral {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(t.Value), 64)
	return v, err == nil
}

// Bool parses the literal as a boolean.
func (t Term) Bool() (bool, bool) {
	if t.Kind != TermLiteral {
		return false, false
	}
	v, err := strconv.ParseBool(t.Value)
	return v, err == nil
}

// appendKey appends the term's dictionary key — a unique string
// encoding of the term — to b. Callers probing a
// map can pass a stack buffer and index with string(b) — the compiler
// elides the string copy, so the lookup does not allocate. Literal
// fields are length-prefixed rather than separator-joined so that no
// byte content (NULs included) can make two distinct terms collide.
// The value always comes last: the dictionary keeps a term's value as
// its key's suffix.
func (t Term) appendKey(b []byte) []byte {
	switch t.Kind {
	case TermIRI:
		b = append(b, 'I')
		return append(b, t.Value...)
	case TermBlank:
		b = append(b, 'B')
		return append(b, t.Value...)
	default:
		b = append(b, 'L')
		b = binary.AppendUvarint(b, uint64(len(t.Datatype)))
		b = append(b, t.Datatype...)
		b = binary.AppendUvarint(b, uint64(len(t.Lang)))
		b = append(b, t.Lang...)
		return append(b, t.Value...)
	}
}

// String renders the term in N-Triples-like syntax.
func (t Term) String() string {
	switch t.Kind {
	case TermIRI:
		return "<" + t.Value + ">"
	case TermBlank:
		return "_:" + t.Value
	default:
		s := quote(t.Value)
		if t.Lang != "" {
			return s + "@" + t.Lang
		}
		if t.Datatype != "" && t.Datatype != XSDString {
			return s + "^^<" + t.Datatype + ">"
		}
		return s
	}
}

// quote quotes s in escapes SPARQL and Turtle decode: \t \n \r \" \\
// by name, every other rune strconv.Quote escapes as \uXXXX or
// \UXXXXXXXX, and invalid UTF-8 as U+FFFD. Text strconv.Quote leaves
// bare stays bare.
func quote(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for _, r := range s { // an invalid byte ranges as utf8.RuneError
		switch {
		case r == '"' || r == '\\':
			b.WriteByte('\\')
			b.WriteByte(byte(r))
		case r == '\t':
			b.WriteString(`\t`)
		case r == '\n':
			b.WriteString(`\n`)
		case r == '\r':
			b.WriteString(`\r`)
		case strconv.IsPrint(r):
			b.WriteRune(r)
		case r <= 0xFFFF:
			fmt.Fprintf(&b, `\u%04x`, r)
		default:
			fmt.Fprintf(&b, `\U%08x`, r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Equal reports exact term equality.
func (t Term) Equal(o Term) bool {
	return t.Kind == o.Kind && t.Value == o.Value && t.Datatype == o.Datatype && t.Lang == o.Lang
}

// Triple is a subject/predicate/object statement.
type Triple struct {
	S, P, O Term
}

// String renders the triple in N-Triples-like syntax.
func (tr Triple) String() string {
	return fmt.Sprintf("%s %s %s .", tr.S, tr.P, tr.O)
}
