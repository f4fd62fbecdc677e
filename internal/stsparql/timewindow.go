package stsparql

import (
	"math"
	"time"

	"repro/internal/rdf"
)

// Valid-time windows. The paper's everyday constraint — "hotspots of
// this acquisition window" — reaches the engine as conjunctive FILTERs
// comparing a time variable with constants. ExtractTimeWindows folds
// them into one inclusive window per variable, and both consumers read
// the same result: the sharded store's router prunes slices with it
// (internal/shard/route.go) and the planner turns `?s <p> ?t` into a
// time-range scan over the source's dateTime index (plan.go). A window
// is always a SUPERSET of what its filters accept — strict bounds relax
// to inclusive ones, sub-second parts round outwards — so the filters
// stay in the plan as residuals and decide the rows.

// TimeWindow is the inclusive valid-time interval a conjunction of
// filters confines one variable to, in unix seconds; an open side is
// math.MinInt64 / math.MaxInt64. Hi < Lo is the empty window.
type TimeWindow struct {
	Lo, Hi int64
	// Lexical marks a window with a bound taken from a plain-string
	// constant (the paper's `str(?at) >= "2007-08-24T10:00:00"` idiom).
	// Such a comparison orders STRINGS wherever it does not meet a
	// dateTime, and string order is chronological order only among
	// literals of the canonical form (see TimeKey). A lexical window may
	// therefore prune — slices or index ranges — only while every time
	// literal it could meet is canonical; a window built from
	// xsd:dateTime constants alone compares instants and always may.
	Lexical bool
}

// Bounded reports whether both sides are closed.
func (w TimeWindow) Bounded() bool { return w.Lo != math.MinInt64 && w.Hi != math.MaxInt64 }

// String renders the window for Explain: [lo, hi] in UTC, ".." for an
// open side.
func (w TimeWindow) String() string {
	side := func(u int64, open int64) string {
		if u == open {
			return ".."
		}
		return time.Unix(u, 0).UTC().Format(canonicalDateTime)
	}
	return "[" + side(w.Lo, math.MinInt64) + ", " + side(w.Hi, math.MaxInt64) + "]"
}

// canonicalDateTime is the unzoned seconds-resolution form the products
// are stamped with: among literals of this form string order and
// chronological order coincide.
const canonicalDateTime = "2006-01-02T15:04:05"

// TimeKey is how a triple object enters a time index or routes a group:
// ok reports an xsd:dateTime literal the engine can parse, unix its
// instant (unzoned forms read as UTC, fractions truncated), canonical
// that it is written in the canonical form.
func TimeKey(o rdf.Term) (unix int64, canonical, ok bool) {
	if !o.IsLiteral() || o.Datatype != rdf.XSDDateTime {
		return 0, false, false
	}
	t, ok := parseDateTime(o.Value)
	if !ok {
		return 0, false, false
	}
	return t.Unix(), len(o.Value) == len(canonicalDateTime), true
}

// ExtractTimeWindows folds the conjunctive constraints filters place on
// the variables of timeVars into one window PER variable (constraints
// on different variables are never conflated). Recognised are
// comparisons of ?t or str(?t) with a constant, either way round, under
// >=, >, <=, <, = and nested in &&. A constant typed xsd:dateTime bounds
// chronologically in any form the engine parses; a plain constant
// bounds lexically and only in an unzoned form, where its string order
// against canonical literals is the order of the instant it names.
func ExtractTimeWindows(filters []Expr, timeVars map[string]bool) map[string]*TimeWindow {
	wins := make(map[string]*TimeWindow)
	for _, f := range filters {
		collectTimeBounds(f, timeVars, wins)
	}
	return wins
}

func collectTimeBounds(e Expr, timeVars map[string]bool, wins map[string]*TimeWindow) {
	b, ok := e.(*BinaryExpr)
	if !ok {
		return
	}
	if b.Op == "&&" {
		collectTimeBounds(b.L, timeVars, wins)
		collectTimeBounds(b.R, timeVars, wins)
		return
	}
	op := b.Op
	name, vOK := timeVarOf(b.L, timeVars)
	t, lexical, cOK := timeConstOf(b.R)
	if !vOK || !cOK {
		// Mirror: constant OP var.
		if name, vOK = timeVarOf(b.R, timeVars); !vOK {
			return
		}
		if t, lexical, cOK = timeConstOf(b.L); !cOK {
			return
		}
		switch op {
		case ">=", ">":
			op = "<="
		case "<=", "<":
			op = ">="
		}
	}
	lo, hi := false, false
	switch op {
	case ">=", ">":
		lo = true
	case "<=", "<":
		hi = true
	case "=":
		lo, hi = true, true
	default:
		return
	}
	w := wins[name]
	if w == nil {
		w = &TimeWindow{Lo: math.MinInt64, Hi: math.MaxInt64}
		wins[name] = w
	}
	w.Lexical = w.Lexical || lexical
	if lo && t > w.Lo {
		w.Lo = t
	}
	if hi && t < w.Hi {
		w.Hi = t
	}
}

// timeVarOf recognises ?t and str(?t) for a tracked time variable.
func timeVarOf(e Expr, timeVars map[string]bool) (string, bool) {
	switch v := e.(type) {
	case *VarExpr:
		if timeVars[v.Name] {
			return v.Name, true
		}
	case *CallExpr:
		if v.Name == "str" && len(v.Args) == 1 {
			if ve, ok := v.Args[0].(*VarExpr); ok && timeVars[ve.Name] {
				return ve.Name, true
			}
		}
	}
	return "", false
}

// timeConstOf reads a window bound off a constant: the instant of an
// xsd:dateTime literal, or — lexical — of a plain string in one of the
// unzoned ISO forms. Constants of any other datatype never compare with
// a time and bound nothing.
func timeConstOf(e Expr) (unix int64, lexical, ok bool) {
	c, isConst := e.(*ConstExpr)
	if !isConst || !c.Term.IsLiteral() {
		return 0, false, false
	}
	switch c.Term.Datatype {
	case rdf.XSDDateTime:
	case "", rdf.XSDString:
		if len(c.Term.Value) > len(canonicalDateTime) {
			return 0, false, false // zoned: its string order is not its instant's
		}
		lexical = true
	default:
		return 0, false, false
	}
	t, ok := parseDateTime(c.Term.Value)
	if !ok {
		return 0, false, false
	}
	return t.Unix(), lexical, true
}

// TimeRangeSource is an optional Source extension: a store keeping a
// time index over the predicates whose objects are xsd:dateTime
// literals can serve `?s <p> ?t` restricted to a window without
// scanning the predicate. Like the other capability methods these run
// under whatever lock the evaluation already holds.
type TimeRangeSource interface {
	Source
	// CountTimeRange reports whether p's triples inside w can be served
	// from the index — every object of p is indexed, and canonical when w
	// is lexical — and if so how many MatchTimeRangeIDs will visit (exact).
	CountTimeRange(p rdf.Term, w TimeWindow) (n int, ok bool)
	// MatchTimeRangeIDs streams a superset of the encoded triples
	// (?s, p, ?t) whose ?t can satisfy w: the index range when
	// CountTimeRange says ok, every triple of p otherwise. Like MatchIDs
	// it reports whether it ran to its end.
	MatchTimeRangeIDs(p rdf.ID, w TimeWindow, visit func(rdf.EncodedTriple) bool) bool
}
