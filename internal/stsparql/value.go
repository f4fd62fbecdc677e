// Package stsparql implements the stSPARQL query and update language of
// Strabon (Kyzirakos et al., ISWC 2012): SPARQL 1.1 SELECT / ASK /
// DELETE-INSERT-WHERE over RDF with the strdf:* spatial filter functions,
// spatial aggregates, grouping, ordering and sub-selects — the exact
// dialect the paper's refinement queries (Section 3.2.4) are written in.
// Both of stSPARQL's dimensions are access paths, not only filters: a
// spatial join is served by the source's R-tree and a valid-time window
// by its dateTime index, when it keeps them (plan.go, timewindow.go).
package stsparql

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/geom"
	"repro/internal/rdf"
)

// ValueKind tags the runtime type of an expression value.
type ValueKind int

// Expression value kinds.
const (
	VErr ValueKind = iota
	VBool
	VNum
	VStr
	VTime
	VGeom
	VTerm // IRI or blank node
	VUnbound
)

// Value is the result of evaluating an expression. Values carry the
// original RDF term when they were derived from one, so projection can
// round-trip bindings losslessly.
type Value struct {
	Kind ValueKind
	Bool bool
	Num  float64
	Str  string
	Time time.Time
	Geom geom.Geometry
	Term rdf.Term
	err  error
}

func errValue(format string, args ...any) Value {
	return Value{Kind: VErr, err: fmt.Errorf(format, args...)}
}

// failed is the error a computation over the error value v yields: v's
// error without the term a malformed literal keeps (termError), which
// belongs to that literal and not to what is computed from it.
func (v Value) failed() Value { return Value{Kind: VErr, err: v.err} }

func unboundValue() Value { return Value{Kind: VUnbound} }

func boolValue(b bool) Value { return Value{Kind: VBool, Bool: b} }

func numValue(f float64) Value { return Value{Kind: VNum, Num: f} }

func strValue(s string) Value { return Value{Kind: VStr, Str: s} }

func geomValue(g geom.Geometry) Value { return Value{Kind: VGeom, Geom: g} }

// Err returns the error carried by a VErr value.
func (v Value) Err() error { return v.err }

// termError is the value of a typed literal whose lexical form does not
// parse: an error to comparisons and arithmetic that keeps the term, so
// the term functions (str, lang, datatype, isLiteral) still read its
// lexical form and datatype (SPARQL 1.1 §17.4.2).
func termError(t rdf.Term, format string, args ...any) Value {
	v := errValue(format, args...)
	v.Term = t
	return v
}

// termToValue converts an RDF term into an expression value, parsing
// typed literals into their native representation.
func termToValue(t rdf.Term, cache *Cache) Value {
	if t.IsZero() {
		return unboundValue()
	}
	switch t.Kind {
	case rdf.TermIRI, rdf.TermBlank:
		return Value{Kind: VTerm, Term: t}
	default:
		switch t.Datatype {
		case rdf.XSDInteger, rdf.XSDFloat, rdf.XSDDouble:
			if f, ok := t.Float(); ok {
				return Value{Kind: VNum, Num: f, Term: t}
			}
			return termError(t, "stsparql: malformed numeric literal %q", t.Value)
		case rdf.XSDBoolean:
			if b, ok := t.Bool(); ok {
				return Value{Kind: VBool, Bool: b, Term: t}
			}
			return termError(t, "stsparql: malformed boolean literal %q", t.Value)
		case rdf.XSDDateTime:
			if tm, ok := parseDateTime(t.Value); ok {
				return Value{Kind: VTime, Time: tm, Term: t}
			}
			return termError(t, "stsparql: malformed dateTime literal %q", t.Value)
		case rdf.StRDFGeometry, rdf.StRDFWKT:
			g, err := cache.parse(t.Value)
			if err != nil {
				return termError(t, "stsparql: %v", err)
			}
			return Value{Kind: VGeom, Geom: g, Term: t}
		default:
			return Value{Kind: VStr, Str: t.Value, Term: t}
		}
	}
}

// ParseDateTime parses the ISO dateTime forms appearing in the
// datasets — the engine's literal parsing, exported so the store's
// routing and window pruning accept exactly the forms the evaluator
// compares.
func ParseDateTime(s string) (time.Time, bool) { return parseDateTime(s) }

// parseDateTime accepts the ISO forms appearing in the datasets. The
// layout is dispatched on the literal's length first: this runs per row
// under filter evaluation, and every failed time.Parse attempt
// allocates its error.
func parseDateTime(s string) (time.Time, bool) {
	var layout string
	switch len(s) {
	case len("2006-01-02"):
		layout = "2006-01-02"
	case len("2006-01-02T15:04"):
		layout = "2006-01-02T15:04"
	case len("2006-01-02T15:04:05"):
		layout = "2006-01-02T15:04:05"
	default:
		layout = time.RFC3339 // zoned forms
	}
	t, err := time.Parse(layout, s)
	return t, err == nil
}

// asTerm converts a value back to an RDF term for projection or template
// instantiation.
func (v Value) asTerm() (rdf.Term, bool) {
	if v.Kind == VErr {
		return rdf.Term{}, false
	}
	if !v.Term.IsZero() {
		return v.Term, true
	}
	switch v.Kind {
	case VBool:
		return rdf.NewBoolean(v.Bool), true
	case VNum:
		return rdf.NewFloat(v.Num), true
	case VStr:
		return rdf.NewLiteral(v.Str), true
	case VTime:
		return rdf.NewDateTime(v.Time.Format("2006-01-02T15:04:05")), true
	case VGeom:
		return rdf.NewGeometry(geom.WKT(v.Geom)), true
	case VTerm:
		return v.Term, true
	default:
		return rdf.Term{}, false
	}
}

// effectiveBool implements SPARQL's effective boolean value rules.
func (v Value) effectiveBool() (bool, error) {
	switch v.Kind {
	case VBool:
		return v.Bool, nil
	case VNum:
		return v.Num != 0, nil
	case VStr:
		return v.Str != "", nil
	case VErr:
		return false, v.err
	case VUnbound:
		return false, fmt.Errorf("stsparql: unbound value has no boolean")
	default:
		return false, fmt.Errorf("stsparql: value kind %d has no effective boolean", v.Kind)
	}
}

// compare returns -1/0/1 for ordered values, or an error for incomparable
// kinds. SPARQL's operator mapping: numbers by value, strings
// lexicographically, dateTimes chronologically, other terms by string form.
func (v Value) compare(o Value) (int, error) {
	if v.Kind == VErr {
		return 0, v.err
	}
	if o.Kind == VErr {
		return 0, o.err
	}
	if v.Kind == VUnbound || o.Kind == VUnbound {
		return 0, fmt.Errorf("stsparql: comparison with unbound value")
	}
	switch {
	case v.Kind == VNum && o.Kind == VNum:
		switch {
		case v.Num < o.Num:
			return -1, nil
		case v.Num > o.Num:
			return 1, nil
		default:
			return 0, nil
		}
	case v.Kind == VTime && o.Kind == VTime:
		switch {
		case v.Time.Before(o.Time):
			return -1, nil
		case v.Time.After(o.Time):
			return 1, nil
		default:
			return 0, nil
		}
	case v.Kind == VStr && o.Kind == VStr:
		return strings.Compare(v.Str, o.Str), nil
	case v.Kind == VStr && o.Kind == VTime:
		// The paper compares str(?hAcqTime) against plain strings; also
		// allow the symmetric direct comparison of a dateTime with an ISO
		// string, which Strabon accepts.
		if t, ok := parseDateTime(v.Str); ok {
			return Value{Kind: VTime, Time: t}.compare(o)
		}
		return 0, fmt.Errorf("stsparql: cannot compare %q with dateTime", v.Str)
	case v.Kind == VTime && o.Kind == VStr:
		c, err := o.compare(v)
		return -c, err
	case v.Kind == VBool && o.Kind == VBool:
		switch {
		case !v.Bool && o.Bool:
			return -1, nil
		case v.Bool && !o.Bool:
			return 1, nil
		default:
			return 0, nil
		}
	case v.Kind == VTerm && o.Kind == VTerm:
		return compareTermStrings(v.Term, o.Term), nil
	default:
		return 0, fmt.Errorf("stsparql: incomparable value kinds %d and %d", v.Kind, o.Kind)
	}
}

// compareTermStrings returns strings.Compare(a.String(), b.String()) —
// the order of IRIs and blank nodes, the terms a VTerm holds — without
// building the strings for them: "<v>" against "<w>" is v against w
// with the terminator '>' after each, "_:v" against "_:w" is v against
// w, and every IRI sorts before every blank node ('<' < '_'). Literals
// take String.
func compareTermStrings(a, b rdf.Term) int {
	switch {
	case a.Kind > rdf.TermBlank || b.Kind > rdf.TermBlank:
		return strings.Compare(a.String(), b.String())
	case a.Kind != b.Kind:
		return int(a.Kind) - int(b.Kind) // TermIRI < TermBlank
	case a.Kind == rdf.TermBlank:
		return strings.Compare(a.Value, b.Value)
	}
	n := min(len(a.Value), len(b.Value))
	if c := strings.Compare(a.Value[:n], b.Value[:n]); c != 0 || len(a.Value) == len(b.Value) {
		return c
	}
	if len(a.Value) < len(b.Value) {
		if b.Value[n] < '>' {
			return 1
		}
		return -1
	}
	if a.Value[n] < '>' {
		return -1
	}
	return 1
}

// equalValue implements "=" with term-equality fallbacks.
func (v Value) equalValue(o Value) (bool, error) {
	if v.Kind == VGeom && o.Kind == VGeom {
		return geom.Equals(v.Geom, o.Geom), nil
	}
	if v.Kind == VTerm || o.Kind == VTerm {
		t1, ok1 := v.asTerm()
		t2, ok2 := o.asTerm()
		if !ok1 || !ok2 {
			return false, fmt.Errorf("stsparql: cannot compare terms")
		}
		return t1.Equal(t2), nil
	}
	c, err := v.compare(o)
	if err != nil {
		return false, err
	}
	return c == 0, nil
}
