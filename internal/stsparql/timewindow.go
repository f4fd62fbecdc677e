package stsparql

import (
	"math"
	"time"

	"repro/internal/rdf"
)

// Valid-time windows. The paper's everyday constraint — "hotspots of
// this acquisition window" — reaches the engine as conjunctive FILTERs
// comparing a time variable with constants (or a prepared rule's seed
// variables). ExtractTimeWindows folds them into one inclusive window
// per variable, and both consumers read the same result: the sharded
// store's router prunes slices with it (internal/strabon/route.go) and
// the planner turns `?s <p> ?t` into a time-range scan over the source's
// dateTime index (plan.go). A window is always a SUPERSET of what its
// filters accept — strict bounds relax to inclusive ones, sub-second
// parts round outwards — so the filters stay in the plan as residuals
// and decide the rows.

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
	// LoVar and HiVar name variables bound before the scan whose values
	// narrow the window when it opens (under). Read without them — as the
	// shard router and the planner's estimate do — it is a superset.
	LoVar, HiVar string
}

// Bounded reports whether both sides are closed.
func (w TimeWindow) Bounded() bool { return w.Lo != math.MinInt64 && w.Hi != math.MaxInt64 }

// String renders the window for Explain: [lo, hi] in UTC, ?v for a side
// only a variable bounds, ".." for an open side.
func (w TimeWindow) String() string {
	side := func(u, open int64, v string) string {
		switch {
		case u != open:
			return time.Unix(u, 0).UTC().Format(canonicalDateTime)
		case v != "":
			return "?" + v
		}
		return ".."
	}
	return "[" + side(w.Lo, math.MinInt64, w.LoVar) + ", " + side(w.Hi, math.MaxInt64, w.HiVar) + "]"
}

// boundCols are the columns, in one schema, of a window's variable
// bounds (-1: none).
type boundCols struct{ lo, hi int }

func windowCols(w *TimeWindow, s *varSchema) boundCols {
	if w == nil {
		return boundCols{-1, -1}
	}
	return boundCols{slotOf(s, w.LoVar), slotOf(s, w.HiVar)}
}

// under evaluates w's variable bounds under a probe row, reading them
// from columns c: a value bounds as a constant of its term would
// (timeTermOf); one that bounds nothing — unbound included — leaves its
// side as the constants left it.
func (c boundCols) under(w TimeWindow, probe rowRef) TimeWindow {
	out := TimeWindow{Lo: w.Lo, Hi: w.Hi, Lexical: w.Lexical}
	if u, lexical, ok := timeTermOf(probe.term(c.lo)); ok {
		out.Lo, out.Lexical = max(out.Lo, u), out.Lexical || lexical
	}
	if u, lexical, ok := timeTermOf(probe.term(c.hi)); ok {
		out.Hi, out.Lexical = min(out.Hi, u), out.Lexical || lexical
	}
	return out
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
// comparisons of ?t or str(?t) with a constant or with a variable of
// boundVars (certainly bound before the scan: for a prepared rule, its
// seed), either way round, under >=, >, <=, <, = and nested in &&. A
// constant typed xsd:dateTime bounds chronologically in any form the
// engine parses; a plain constant bounds lexically and only in an
// unzoned form, where its string order against canonical literals is the
// order of the instant it names. A variable bound follows the same rule
// for its value when the scan opens; one per side is kept.
func ExtractTimeWindows(filters []Expr, timeVars, boundVars map[string]bool) map[string]*TimeWindow {
	wins := make(map[string]*TimeWindow)
	for _, f := range filters {
		collectTimeBounds(f, timeVars, boundVars, wins)
	}
	return wins
}

func collectTimeBounds(e Expr, timeVars, boundVars map[string]bool, wins map[string]*TimeWindow) {
	b, ok := e.(*BinaryExpr)
	if !ok {
		return
	}
	if b.Op == "&&" {
		collectTimeBounds(b.L, timeVars, boundVars, wins)
		collectTimeBounds(b.R, timeVars, boundVars, wins)
		return
	}
	op := b.Op
	name, vOK := timeVarOf(b.L, timeVars)
	t, lexical, bvar, cOK := timeBoundOf(b.R, boundVars)
	if !vOK || !cOK {
		// Mirror: bound OP var.
		if name, vOK = timeVarOf(b.R, timeVars); !vOK {
			return
		}
		if t, lexical, bvar, cOK = timeBoundOf(b.L, boundVars); !cOK {
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
	if bvar != "" {
		if lo && w.LoVar == "" {
			w.LoVar = bvar
		}
		if hi && w.HiVar == "" {
			w.HiVar = bvar
		}
		return
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
		if v.Fn == fnStr {
			if ve, ok := v.Args[0].(*VarExpr); ok && timeVars[ve.Name] {
				return ve.Name, true
			}
		}
	}
	return "", false
}

// timeBoundOf reads a window bound off the other side of a comparison:
// a constant (timeTermOf), or a variable of boundVars, whose value is
// only read when the scan opens.
func timeBoundOf(e Expr, boundVars map[string]bool) (unix int64, lexical bool, v string, ok bool) {
	switch b := e.(type) {
	case *ConstExpr:
		unix, lexical, ok = timeTermOf(b.Term)
		return unix, lexical, "", ok
	case *VarExpr:
		return 0, false, b.Name, boundVars[b.Name]
	}
	return 0, false, "", false
}

// timeTermOf reads a window bound off a term: the instant of an
// xsd:dateTime literal, or — lexical — of a plain string in one of the
// unzoned ISO forms. Terms of any other datatype never compare with a
// time and bound nothing.
func timeTermOf(c rdf.Term) (unix int64, lexical, ok bool) {
	if !c.IsLiteral() {
		return 0, false, false
	}
	switch c.Datatype {
	case rdf.XSDDateTime:
	case "", rdf.XSDString:
		if len(c.Value) > len(canonicalDateTime) {
			return 0, false, false // zoned: its string order is not its instant's
		}
		lexical = true
	default:
		return 0, false, false
	}
	t, ok := parseDateTime(c.Value)
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
	// is lexical — and if so at most how many MatchTimeRangeIDs will
	// visit (exact on a store; an overlay counts what its flush deleted).
	// Variable bounds are not read: the count is over the constant ones.
	CountTimeRange(p rdf.ID, w TimeWindow) (n int, ok bool)
	// MatchTimeRangeIDs streams a superset of the encoded triples
	// (?s, p, ?t) whose ?t can satisfy w: the index range when
	// CountTimeRange says ok, every triple of p otherwise. Like MatchIDs
	// it reports whether it ran to its end.
	MatchTimeRangeIDs(p rdf.ID, w TimeWindow, visit func(rdf.EncodedTriple) bool) bool
}
