package stsparql

import (
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/rdf"
)

// Source is the triple source queries run against: dictionary-encoded
// triples and the dictionary they are encoded in. The engine scans,
// joins and deduplicates on the source's IDs and decodes late.
type Source interface {
	// Dict exposes the source's term dictionary. It must honour the
	// rdf.Dictionary contract: append-only, IDs stable, safe to read
	// beside an appender.
	Dict() *rdf.Dictionary
	// MatchIDs streams encoded triples matching an encoded pattern;
	// rdf.Wildcard components match anything. visit returns false to
	// stop; MatchIDs reports whether the scan ran to its end.
	MatchIDs(s, p, o rdf.ID, visit func(rdf.EncodedTriple) bool) bool
}

// UpdatableSource additionally supports mutation, required by
// DELETE/INSERT requests.
type UpdatableSource interface {
	Source
	Add(rdf.Triple) bool
	Remove(rdf.Triple) bool
}

// SpatialSource is an optional Source extension: a store that maintains a
// spatial index over strdf:hasGeometry objects can serve window queries,
// which the engine uses to prune spatial-join candidates.
type SpatialSource interface {
	Source
	// MatchGeometryWindowIDs streams the encoded (subject,
	// hasGeometry-pred, geometry) triples whose geometry envelope
	// intersects env from the source's member stores outside skip (bit
	// i: the i-th member; members past the 64th are always searched),
	// reporting like MatchIDs whether it ran to its end.
	MatchGeometryWindowIDs(env geom.Envelope, skip uint64, visit func(rdf.EncodedTriple) bool) bool
	// WindowSkip returns, as a skip mask, the members whose windows on
	// p (rdf.Wildcard: any predicate) can yield no candidate the fixed
	// subject sets admit — those holding, for some entry of fixed, no
	// (s, p, ·) triple with s in one of its sets (a nil entry admits
	// every subject) — and the number of members.
	WindowSkip(p rdf.ID, fixed [][]rdf.IDSet) (skip uint64, members int)
	// SubjectSets appends to dst the subject sets of (p, o), one per
	// member store holding any — read-only, valid while the evaluation
	// holds its locks. Their union must hold every subject a scan of
	// (?x, p, o) finds, and may hold more: a window scan drops the
	// candidates in none of them, the type pattern still runs.
	SubjectSets(p, o rdf.ID, dst []rdf.IDSet) []rdf.IDSet
}

// GeometryPredicates lists the predicate IRIs treated as geometry
// attachment points for index acceleration (the datasets use
// strdf:hasGeometry; the paper's queries also write noa:hasGeometry).
var GeometryPredicates = map[string]bool{
	"http://strdf.di.uoa.gr/ontology#hasGeometry":                     true,
	"http://teleios.di.uoa.gr/ontologies/noaOntology.owl#hasGeometry": true,
}

// Row is one solution: its terms in the column order of the header
// (Vars) of whatever produced it; the zero Term is an unbound column.
type Row []rdf.Term

// Clone returns an independent copy of the row. Rows yielded by a
// Cursor are views into the engine's current batch and are only valid
// until the next call to Next (or Close); callers that retain a row
// beyond that must Clone it first.
func (r Row) Clone() Row { return slices.Clone(r) }

// Result is the outcome of a materialised SELECT evaluation: every row
// has one term per header variable.
type Result struct {
	Vars []string
	Rows []Row
}

// Col returns the column of variable v in the result's rows, or -1.
func (r *Result) Col(v string) int { return slices.Index(r.Vars, v) }

// ReadAll drains a cursor into an owned Result, copying each row out of
// the cursor's reused view into one slab. It leaves the cursor open:
// the caller closes it and checks the error.
func ReadAll(cur Cursor) *Result {
	res := &Result{Vars: cur.Vars()}
	w := len(res.Vars)
	var slab []rdf.Term
	n := 0
	for {
		row, ok := cur.Next()
		if !ok {
			break
		}
		slab = append(slab, row...)
		n++
	}
	res.Rows = make([]Row, n)
	for i := range res.Rows {
		res.Rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return res
}

// Cursor is the pull side of a running query: Next yields solutions one
// at a time, terminating the underlying scans early when the consumer
// stops (LIMIT, ASK, an abandoned client). A cursor must be Closed —
// Close releases the scans still in flight and reports any evaluation
// error; callers embedding a cursor in a locked context (see
// strabon.Store.QueryStream) additionally hold their lock until Close.
// A cursor is single-goroutine, like the Evaluator that produced it.
type Cursor interface {
	// Vars is the result header: the projected variable list. It is
	// final when the cursor opens.
	Vars() []string
	// Next returns the next solution, one term per header variable;
	// ok=false once the result set is exhausted or evaluation failed
	// (check Err).
	Next() (Row, bool)
	// Err reports the first evaluation error, if any.
	Err() error
	// Close terminates the evaluation, releasing scans in flight. It is
	// idempotent and returns Err().
	Close() error
}

// planCursor adapts an opened batch pipeline to the public Cursor API:
// Next is a thin row-view over the current batch, whose columns are the
// header's. The yielded Row is one reused slice, refilled by decoding
// the batch columns per row — valid only until the next call to Next
// (or Close); retainers must Clone it.
type planCursor struct {
	it     batchIter
	vars   []string
	cur    *Batch
	ord    int
	view   Row
	err    error
	closed bool
}

func (c *planCursor) Vars() []string { return c.vars }

func (c *planCursor) Next() (Row, bool) {
	if c.closed || c.err != nil {
		return nil, false
	}
	for c.cur == nil || c.ord >= c.cur.live() {
		b, err := c.it.next()
		if err != nil {
			c.err = err
			return nil, false
		}
		if b == nil {
			return nil, false
		}
		//lint:allow batchview cur is drained before the next pull invalidates it
		c.cur, c.ord = b, 0
	}
	i := c.cur.row(c.ord)
	c.ord++
	if c.view == nil {
		c.view = make(Row, len(c.vars))
	}
	for j := range c.view {
		c.view[j] = c.cur.dict.decode(c.cur.cols[j][i])
	}
	return c.view, true
}

func (c *planCursor) Err() error { return c.err }

func (c *planCursor) Close() error {
	if !c.closed {
		c.closed = true
		c.cur = nil
		c.it.close()
	}
	return c.err
}

// AskCursor returns the one-row result of an ASK: the verdict bound to
// "ask", replayed from a one-row snapshot.
func AskCursor(ok bool) Cursor {
	snap := NewRowSnapshot([]string{"ask"})
	snap.Append(Row{rdf.NewBoolean(ok)})
	return snap.Cursor()
}

// UpdateStats reports the effect of an update request.
type UpdateStats struct {
	Matched  int // WHERE solutions
	Deleted  int // triples removed
	Inserted int // triples added
}

// Evaluator executes parsed queries against a source. Queries are
// compiled into a plan of physical operators (see plan.go and ops.go)
// and run through pull-based cursors. The evaluator and its cursors are
// not safe for concurrent use; create one per goroutine (the geometry
// cache may be shared through NewEvaluatorWithCache, and a Compiled
// plan may be run by several evaluators over the same unchanged
// source — see compiled.go).
type Evaluator struct {
	src   Source
	cache *geomCache

	// dict is this evaluator's term codec (see iddict.go): batches carry
	// IDs, and every encode/decode of an evaluation goes through it.
	dict *execDict
	// spatial and timed are the source's optional capabilities, resolved
	// once at construction so planner and scans cost a nil check.
	spatial SpatialSource
	timed   TimeRangeSource

	// argScratch is the function-call argument stack of expression
	// evaluation: call nodes append their argument Values and truncate
	// back on return, so per-row filter evaluation allocates nothing
	// once the slice has grown to the plan's deepest call.
	// applyFunction must not retain the slice it is handed.
	argScratch []Value
	// group is the group aggregate nodes compute over while the
	// aggregate operator evaluates one (see aggregate).
	group struct {
		rows *Batch
		mem  []int32
	}
	// memo holds the typed nodes' memos (exprMemos).
	memo exprMemos

	// seedVars, seed and subRes carry one evaluation's state: the seed
	// rows its sub-selects take, binding seedVars positionally (a
	// prepared run's, see prepare.go, or the unit seed), and the
	// sub-selects' solutions.
	seedVars []string
	seed     []Row
	subRes   map[*subSelectOp]*Result

	// One evaluation's memo, valid while begin's pin holds: the window
	// scans' subject sets (subjectSets).
	subjects map[subjectKey][]rdf.IDSet

	// trace, when armed (SetTrace), collects per-operator actuals for
	// EXPLAIN ANALYZE. The disabled path costs one nil check per
	// operator at open time — nothing per row or batch.
	trace *ExecTrace
}

// NewEvaluator returns an evaluator over src.
func NewEvaluator(src Source) *Evaluator { return newEvaluator(src, newGeomCache()) }

func newEvaluator(src Source, cache *geomCache) *Evaluator {
	e := &Evaluator{src: src, cache: cache, dict: &execDict{store: src.Dict()}}
	e.spatial, _ = src.(SpatialSource)
	e.timed, _ = src.(TimeRangeSource)
	return e
}

// begin starts one top-level evaluation — callers hold whatever locks
// the source needs by now: the dictionary watermark is pinned (see
// iddict.go), and the seed is parked where the sub-selects read it and
// leave their solutions for this evaluation.
func (e *Evaluator) begin(vars []string, seed []Row) {
	e.dict.pin()
	e.seedVars, e.seed = vars, seed
	clear(e.subRes)
	clear(e.subjects)
}

// unitSeed is the seed of an unprepared evaluation: one row binding
// nothing.
var unitSeed = []Row{{}}

// UpdatePlan is a computed but not yet applied DELETE/INSERT request: the
// WHERE solutions have been matched and both templates instantiated
// against the pre-update state. It is ID-native: template instances are
// ID tuples of the evaluation's dictionary, deduplicated on the tuple,
// and terms materialise only when the plan is applied or inspected. A
// plan is meant to be applied to the state it was computed against.
type UpdatePlan struct {
	Matched int // WHERE solutions

	dict    *execDict
	deletes []idTriple
	inserts []idTriple
}

type idTriple [3]termID

func (t idTriple) decode(d *execDict) rdf.Triple {
	return rdf.Triple{S: d.decode(t[0]), P: d.decode(t[1]), O: d.decode(t[2])}
}

// Deletes decodes the triples the plan removes.
func (p *UpdatePlan) Deletes() []rdf.Triple { return p.decode(p.deletes) }

// Inserts decodes the triples the plan adds.
func (p *UpdatePlan) Inserts() []rdf.Triple { return p.decode(p.inserts) }

// InsertCount reports how many distinct triples the plan adds.
func (p *UpdatePlan) InsertCount() int { return len(p.inserts) }

func (p *UpdatePlan) decode(ts []idTriple) []rdf.Triple {
	out := make([]rdf.Triple, len(ts))
	for i, t := range ts {
		out[i] = t.decode(p.dict)
	}
	return out
}

// Insert appends ground triples to the plan's insert set — data a caller
// derived from the same pre-update state and wants applied in the same
// step (the refinement's virtual hotspots).
func (p *UpdatePlan) Insert(ts ...rdf.Triple) {
	for _, t := range ts {
		p.inserts = append(p.inserts, idTriple{p.dict.encode(t.S), p.dict.encode(t.P), p.dict.encode(t.O)})
	}
}

// tplSlot is one template component resolved against a plan schema: a
// constant's ID, or the column its variable reads (-1 when the WHERE
// clause never binds it, which voids every instance).
type tplSlot struct {
	id  termID
	col int
}

func (e *Evaluator) tplSlots(tpls []TriplePattern, schema *varSchema) [][3]tplSlot {
	out := make([][3]tplSlot, len(tpls))
	for i, tpl := range tpls {
		for j, tv := range [3]TermOrVar{tpl.S, tpl.P, tpl.O} {
			if !tv.IsVar() {
				out[i][j] = tplSlot{id: e.dict.encode(tv.Term)}
			} else if c, ok := schema.col(tv.Var); ok {
				out[i][j] = tplSlot{col: c}
			} else {
				out[i][j] = tplSlot{col: -1}
			}
		}
	}
	return out
}

// PlanUpdate evaluates an update's WHERE clause and instantiates its
// templates without mutating the source. Update WHERE clauses are always
// fully drained — no LIMIT, no early exit — so their joins use buffered
// scans.
func (e *Evaluator) PlanUpdate(q *UpdateQuery) (*UpdatePlan, error) {
	e.begin(nil, unitSeed)
	where := e.newPlanner().planGroupRoot(q.Where, true)
	return e.planUpdate(q, where, nil, unitSeed)
}

// planUpdate drains the WHERE pipeline batch by batch and instantiates
// both templates per solution row straight off the ID columns. SPARQL
// Update semantics: both instantiations are computed against the
// pre-update state; ApplyPlan then deletes before it inserts.
func (e *Evaluator) planUpdate(q *UpdateQuery, where *groupPlan, vars []string, seed []Row) (*UpdatePlan, error) {
	plan := &UpdatePlan{dict: e.dict}
	it := where.open(e, seedIter(e.dict, where.schema, vars, seed))
	defer it.close()
	del, ins := e.tplSlots(q.Delete, where.schema), e.tplSlots(q.Insert, where.schema)
	seenD, seenI := make(map[idTriple]struct{}), make(map[idTriple]struct{})
	emit := func(b *Batch, i int, slots [][3]tplSlot, seen map[idTriple]struct{}, out []idTriple) []idTriple {
	next:
		for _, sl := range slots {
			var t idTriple
			for j, c := range sl {
				switch {
				case c.id != 0:
					t[j] = c.id
				case c.col >= 0:
					t[j] = b.cols[c.col][i]
				}
				if t[j] == 0 {
					continue next
				}
			}
			if _, dup := seen[t]; dup {
				continue
			}
			if e.dict.decode(t[0]).IsLiteral() || !e.dict.decode(t[1]).IsIRI() {
				continue
			}
			seen[t] = struct{}{}
			out = append(out, t)
		}
		return out
	}
	for {
		b, err := it.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return plan, nil
		}
		plan.Matched += b.live()
		for ord := 0; ord < b.live(); ord++ {
			i := b.row(ord)
			plan.deletes = emit(b, i, del, seenD, plan.deletes)
			plan.inserts = emit(b, i, ins, seenI, plan.inserts)
		}
	}
}

// ApplyPlan applies a computed update plan to a source: deletes before
// inserts, per SPARQL Update semantics.
func ApplyPlan(up UpdatableSource, plan *UpdatePlan) UpdateStats {
	stats := UpdateStats{Matched: plan.Matched}
	for _, t := range plan.deletes {
		if up.Remove(t.decode(plan.dict)) {
			stats.Deleted++
		}
	}
	for _, t := range plan.inserts {
		if up.Add(t.decode(plan.dict)) {
			stats.Inserted++
		}
	}
	return stats
}

// Update executes a DELETE/INSERT request against an updatable source.
func (e *Evaluator) Update(q *UpdateQuery) (UpdateStats, error) {
	up, ok := e.src.(UpdatableSource)
	if !ok {
		return UpdateStats{}, fmt.Errorf("stsparql: source is not updatable")
	}
	plan, err := e.PlanUpdate(q)
	if err != nil {
		return UpdateStats{}, err
	}
	return ApplyPlan(up, plan), nil
}

// --- projection / modifier helpers (used by the tail operators) ---

// IsGrouped reports whether the SELECT evaluates through the aggregate
// operator (GROUP BY, HAVING, or aggregate projections).
func IsGrouped(sel *SelectQuery) bool {
	return len(sel.GroupBy) > 0 || len(sel.Having) > 0 || projectionHasAggregates(sel)
}

func projectionHasAggregates(q *SelectQuery) bool {
	for _, item := range q.Projection {
		if item.Expr != nil && anyCall(item.Expr, (*CallExpr).isAggregate) {
			return true
		}
	}
	return false
}

// projectionVars is the header of an explicit projection (SELECT *
// derives its header from the rows, see projectOp).
func projectionVars(q *SelectQuery) []string {
	vars := make([]string, len(q.Projection))
	for i, item := range q.Projection {
		vars[i] = item.Var
	}
	return vars
}

// compileKeys compiles ORDER BY keys against schema.
func compileKeys(keys []OrderKey, schema *varSchema, cache *geomCache) []cexpr {
	prog := make([]cexpr, len(keys))
	for i, k := range keys {
		prog[i] = compileExpr(k.Expr, schema, cache)
	}
	return prog
}

// appendKeys appends the row's ORDER BY key values to dst.
func (e *Evaluator) appendKeys(dst []Value, keys []cexpr, row rowRef) []Value {
	for _, k := range keys {
		dst = append(dst, k.eval(e, row))
	}
	return dst
}

// compareKeys compares two rows' evaluated ORDER BY keys — the one
// comparator of the order operator and its top-k heap: negative when a
// sorts before b, zero when every key ties (unbound and incomparable
// values tie).
func compareKeys(a, b []Value, keys []OrderKey) int {
	for i, k := range keys {
		if a[i].Kind == VUnbound || b[i].Kind == VUnbound {
			continue // compare would only build the error that says so
		}
		c, err := a[i].compare(b[i])
		if err != nil || c == 0 {
			continue
		}
		if k.Desc {
			return -c
		}
		return c
	}
	return 0
}

// --- grouping & aggregates ---

// aggregate groups the input and evaluates HAVING and the aggregate
// projection per group, in group arrival order. The live input rows
// are copied into one owned batch, and a group is the list of its
// member rows' indices. Groups key on the IDs of their GROUP BY values —
// a variable's column, or a computed key interned through the
// evaluation dictionary — so equal terms always share a group.
//
// The output batch (schema op.out) has a column per GROUP BY variable
// and per projected variable: a group's key and plain variables take
// its first member's values (its representative), computed items their
// value.
func (e *Evaluator) aggregate(op *aggregateOp, in batchIter) (*Batch, error) {
	rows, err := drainBatch(e.dict, in)
	if err != nil {
		return nil, err
	}
	groups := make(map[string]int)
	var members [][]int32 // per group, its rows in arrival order
	var kb []byte
	for i := 0; i < rows.n; i++ {
		row := rowRef{b: rows, i: i}
		kb = kb[:0]
		for _, k := range op.keys {
			if k.x == nil {
				kb = appendIDKey(kb, row.id(k.col))
				continue
			}
			t, _ := k.x.eval(e, row).asTerm()
			kb = appendIDKey(kb, e.dict.encode(t))
		}
		g, ok := groups[string(kb)]
		if !ok {
			g = len(members)
			groups[string(kb)] = g
			members = append(members, nil)
		}
		members[g] = append(members[g], int32(i))
	}
	// With no GROUP BY, all rows form one implicit group (even zero rows
	// for COUNT(*) = 0).
	if len(op.keys) == 0 && len(members) == 0 {
		members = append(members, nil)
	}

	out := newBatch(e.dict, op.out, len(members))
	defer func() { e.group.rows, e.group.mem = nil, nil }()
	e.group.rows = rows
	for _, mem := range members {
		e.group.mem = mem
		rep := rowRef{} // an empty group binds nothing
		if len(mem) > 0 {
			rep = rowRef{b: rows, i: int(mem[0])}
		}
		if !e.having(op.having, rep) {
			continue
		}
		r := out.beginRow(rowRef{})
		for _, k := range op.keys {
			if k.x == nil {
				out.cols[k.out][r] = rep.id(k.col)
			}
		}
		for _, item := range op.items {
			if item.x == nil {
				if id := rep.id(item.col); id != 0 {
					out.cols[item.out][r] = id
				}
			} else if t, ok := item.x.eval(e, rep).asTerm(); ok {
				out.cols[item.out][r] = e.dict.encode(t)
			}
		}
		out.commitRow()
	}
	return out, nil
}

// having reports whether the group under evaluation passes every
// HAVING constraint.
func (e *Evaluator) having(conds []cexpr, rep rowRef) bool {
	for _, h := range conds {
		if h.test(e, rep) != triTrue {
			return false
		}
	}
	return true
}

// aggregateCall evaluates one aggregate call over the member rows mem
// of rows.
func (e *Evaluator) aggregateCall(n *aggNode, rows *Batch, mem []int32) Value {
	c := n.c
	collect := func() []Value {
		if n.arg == nil {
			return nil
		}
		var vals []Value
		var seen map[string]bool
		for _, i := range mem {
			v := n.arg.eval(e, rowRef{b: rows, i: int(i)})
			if v.Kind == VUnbound || v.Kind == VErr {
				continue
			}
			if c.Distinct {
				t, _ := v.asTerm()
				k := t.String()
				if seen[k] {
					continue
				}
				if seen == nil {
					seen = make(map[string]bool)
				}
				seen[k] = true
			}
			vals = append(vals, v)
		}
		return vals
	}
	switch c.Name {
	case "count":
		if c.Star {
			if c.Distinct {
				// Distinct over every column: ID equality is term
				// equality within the evaluation.
				seen := make(map[string]struct{}, len(mem))
				var kb []byte
				for _, i := range mem {
					kb = kb[:0]
					for _, col := range rows.cols {
						kb = appendIDKey(kb, col[i])
					}
					seen[string(kb)] = struct{}{}
				}
				return numValue(float64(len(seen)))
			}
			return numValue(float64(len(mem)))
		}
		if _, ok := c.Args[0].(*VarExpr); ok {
			return numValue(float64(countBound(rows, mem, n.countCol, c.Distinct)))
		}
		return numValue(float64(len(collect())))
	case "sum", "avg":
		vals := collect()
		var sum float64
		n := 0
		for _, v := range vals {
			if v.Kind == VNum {
				sum += v.Num
				n++
			}
		}
		if c.Name == "avg" {
			if n == 0 {
				return numValue(0)
			}
			return numValue(sum / float64(n))
		}
		return numValue(sum)
	case "min", "max":
		vals := collect()
		if len(vals) == 0 {
			return unboundValue()
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c2, err := v.compare(best)
			if err != nil {
				continue
			}
			if (c.Name == "min" && c2 < 0) || (c.Name == "max" && c2 > 0) {
				best = v
			}
		}
		return best
	case "sample":
		vals := collect()
		if len(vals) == 0 {
			return unboundValue()
		}
		return vals[0]
	case "strdf:union":
		vals := collect()
		var polys []geom.Polygon
		var rest geom.Collection
		for _, v := range vals {
			if v.Kind != VGeom {
				continue
			}
			_, _, ps := geomParts(v.Geom)
			if len(ps) > 0 {
				polys = append(polys, ps...)
			} else {
				rest = append(rest, v.Geom)
			}
		}
		u := geom.UnionAllPolygons(polys)
		if len(rest) == 0 {
			return geomValue(u)
		}
		return geomValue(append(rest, u))
	case "strdf:extent":
		vals := collect()
		env := geom.EmptyEnvelope()
		for _, v := range vals {
			if v.Kind == VGeom {
				env = env.Expand(v.Geom.Envelope())
			}
		}
		if env.IsEmpty() {
			return unboundValue()
		}
		return geomValue(env.ToPolygon())
	default:
		return errValue("stsparql: unknown aggregate %q", c.Name)
	}
}

// countBound is COUNT of a plain variable: the member rows binding it,
// or its distinct IDs (ID equality is term equality within the
// evaluation). Nothing is decoded: a variable bound to an ill-typed
// literal evaluates to that literal, not to an error (SPARQL 1.1
// §18.5.1.1), so every bound row counts.
func countBound(rows *Batch, mem []int32, c int, distinct bool) int {
	if c < 0 {
		return 0
	}
	n, seen := 0, map[termID]struct{}{}
	for _, i := range mem {
		id := rows.cols[c][i]
		if _, dup := seen[id]; id != 0 && !dup {
			n++
			if distinct {
				seen[id] = struct{}{}
			}
		}
	}
	return n
}

func geomParts(g geom.Geometry) ([]geom.Point, []geom.LineString, []geom.Polygon) {
	switch v := g.(type) {
	case geom.Point:
		return []geom.Point{v}, nil, nil
	case geom.MultiPoint:
		return v, nil, nil
	case geom.LineString:
		return nil, []geom.LineString{v}, nil
	case geom.MultiLineString:
		return nil, v, nil
	case geom.Polygon:
		return nil, nil, []geom.Polygon{v}
	case geom.MultiPolygon:
		return nil, nil, v
	case geom.Collection:
		var pts []geom.Point
		var ls []geom.LineString
		var ps []geom.Polygon
		for _, m := range v {
			p2, l2, g2 := geomParts(m)
			pts = append(pts, p2...)
			ls = append(ls, l2...)
			ps = append(ps, g2...)
		}
		return pts, ls, ps
	}
	return nil, nil, nil
}
