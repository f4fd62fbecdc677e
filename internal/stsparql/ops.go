package stsparql

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/geom"
	"repro/internal/rdf"
)

// This file holds the physical operators of the stSPARQL engine. A
// compiled plan (see plan.go) is a pipeline of operators in a
// vectorised pull model: open wires an operator over its input and
// returns a batchIter, and columnar *Batch slabs of up to batchSizeMax
// rows are pulled through the pipeline (see batch.go). Scans fill
// batches directly from the index iterators, in the source's ID space,
// so the hot path never materialises a term; filters and slices mark
// rows dead in the selection vector without copying, bind joins and
// hash probes run tight loops over fixed-width ID columns, and the
// blocking operators (order, aggregate, the SELECT * projection)
// consume whole batches before yielding.
//
// Pulling instead of pushing keeps early termination cheap: a
// downstream LIMIT simply stops pulling, an ASK stops at the first
// live batch, and a cursor abandoned by a client stops the scans when
// it is closed. Scans grow their batches geometrically from
// batchSizeMin so those early exits abandon the index scan after a few
// dozen visits, not a full slab. Producers own their output batches
// (valid until the next pull), which lets the streaming operators reuse
// one slab across calls instead of allocating per batch.
//
// Operator values themselves are immutable once planned — all
// per-execution state lives in the iterators open returns and in the
// evaluator's per-evaluation memos — so a compiled plan can be run
// repeatedly and concurrently (see compiled.go).

// operator is one stage of a compiled query pipeline.
type operator interface {
	// open wires the operator over its input batches and returns the
	// pull iterator of its output.
	open(e *Evaluator, in batchIter) batchIter
	// explain renders the operator's line at the given indentation,
	// closed by b.end, and then any sub-plans.
	explain(b *planText, indent string)
}

// Join strategies a joinOp can be planned with.
const (
	joinBind   = "bind"   // per-row indexed scan
	joinHash   = "hash"   // scan once, hash on shared vars, probe
	joinWindow = "window" // per-row R-tree window scan (spatial join)
	// joinTimeRange scans the source's time index over the window the
	// group's filters put on the pattern's object. Planned only for a
	// pattern with both variables fresh, so it opens a pipeline like a
	// plain first scan and Explain calls it scan[time-range].
	joinTimeRange = "time-range"
)

// joinOp extends each input row through one triple pattern. The planner
// chooses the strategy; window falls back to bind per row when no filter
// yields a candidate envelope, and hash falls back to bind for
// single-row inputs (the build cost would dominate).
type joinOp struct {
	pat TriplePattern
	// window lists, in the order a window scan tries them, the
	// geometries the group's spatial filters join the pattern's object
	// against (see windowArgs): compiled against schema, evaluated under
	// the probe row.
	window   []cexpr
	strategy string
	shared   []string   // pattern vars certainly bound by the input rows
	est      float64    // estimated output rows (Explain annotation)
	schema   *varSchema // column layout of the enclosing group
	// buffered joins fill their output batch probe row by probe row
	// instead of streaming scan batches through a pull coroutine: set
	// for per-row re-executed sub-plans (OPTIONAL/UNION, where a
	// coroutine per row would dominate) and for plans that are always
	// fully drained (update WHERE clauses), where early termination
	// cannot occur.
	buffered bool
	// first is the first-batch size hint (0 = batchSizeMin): a pushed
	// LIMIT below batchSizeMin caps how many rows the pipeline pulls, so
	// scans open with a batch of that size and still grow geometrically
	// if the slice turns out not to stop them.
	first int
	// trange is the index range of a joinTimeRange scan, its variable
	// bounds read from columns trCols.
	trange *TimeWindow
	trCols boundCols
	// subjects, for a window join, are the filters the BGP's remaining
	// patterns put on the pattern's subject (see windowFilters).
	subjects []subjectFilter
}

// streams reports whether probe rows scan through a pull coroutine: no
// input variable constrains the scan (its fan-out is the whole pattern
// extent — the shape of a pipeline's first scan), so batches stream out
// and a downstream LIMIT (or an abandoned cursor) stops the index scan
// itself.
func (op *joinOp) streams() bool {
	return (op.strategy == joinBind || op.strategy == joinTimeRange) && len(op.shared) == 0 && !op.buffered
}

func (op *joinOp) open(e *Evaluator, in batchIter) batchIter {
	return &joinIter{op: op, e: e, in: in, target: op.firstTarget()}
}

// firstTarget is the size of the first batch this join fills.
func (op *joinOp) firstTarget() int {
	if op.first > 0 {
		return op.first
	}
	return batchSizeMin
}

// makeTable scans the pattern once and indexes it by shared-var ID key.
// It also returns, per build column, its column in the join's schema.
func (op *joinOp) makeTable(e *Evaluator) (*Batch, map[string][]int32, []int) {
	var names []string
	for _, tv := range []TermOrVar{op.pat.S, op.pat.P, op.pat.O} {
		if tv.IsVar() && !containsVar(names, tv.Var) {
			names = append(names, tv.Var)
		}
	}
	sort.Strings(names)
	b := newBatch(e.dict, newSchema(names), batchSizeMax)
	newPatScan(e, op, nil, b.schema, func() *Batch { return b }, alwaysScan).run(rowRef{})
	table := make(map[string][]int32)
	var kb []byte
	shared := slotsOf(b.schema, op.shared)
	for r := 0; r < b.n; r++ {
		kb = rowKey(kb[:0], rowRef{b: b, i: r}, shared)
		table[string(kb)] = append(table[string(kb)], int32(r))
	}
	return b, table, slotsOf(op.schema, names)
}

type joinIter struct {
	op *joinOp
	e  *Evaluator
	in batchIter

	inBatch *Batch // current probe batch
	inOrd   int    // next live ordinal to probe

	pull func() (*Batch, bool) // streaming scan of the current probe row
	stop func()

	pending []*Batch // lookahead batches the hash decision pulled early
	hash    bool     // lookahead committed to the hash strategy
	started bool
	closed  bool
	target  int    // batch size target, growing geometrically
	kb      []byte // reused probe key buffer

	// Hash build side, built on first use: one batch over the pattern's
	// variables, indexed by shared-var ID key. It lives as long as the
	// iterator — a plan pins none (a repeat at the same generation is
	// the result cache's to absorb).
	build     *Batch
	table     map[string][]int32
	buildOut  []int // each build column's column in the output
	probeCols []int // the shared variables' columns in the probe rows

	scan    *patScan // reused per-probe-row bind scan
	scanOut *Batch   // output batch the reused scan appends to
	out     *Batch   // reused buffered-path output slab
}

// outBatch returns the iterator-owned output slab, reset for refilling
// (batches are only valid until the next pull, so the previous fill has
// been consumed by the time this is called again).
func (it *joinIter) outBatch() *Batch {
	if it.out == nil || it.out.cap < it.target {
		it.out = newBatch(it.e.dict, it.op.schema, it.target)
	} else {
		it.out.reset()
	}
	return it.out
}

func (it *joinIter) next() (*Batch, error) {
	if it.closed {
		return nil, nil
	}
	if it.op.streams() {
		for {
			if it.pull != nil {
				if b, ok := it.pull(); ok {
					return b, nil
				}
				it.stop()
				it.pull, it.stop = nil, nil
			}
			probe, ok, err := it.nextProbeRow()
			if err != nil || !ok {
				return nil, err
			}
			it.startStream(probe)
		}
	}
	var out *Batch
	for {
		probe, ok, err := it.nextProbeRow()
		if err != nil {
			return nil, err
		}
		if !ok {
			if out != nil && out.live() > 0 {
				return out, nil
			}
			return nil, nil
		}
		if out == nil {
			out = it.outBatch()
		}
		if it.hash {
			it.probeHash(probe, out)
		} else {
			if it.scan == nil {
				it.scan = newPatScan(it.e, it.op, it.op.window, it.op.schema, func() *Batch { return it.scanOut }, alwaysScan)
			}
			it.scanOut = out
			it.scan.run(probe)
		}
		if out.n >= it.target {
			if it.target < batchSizeMax {
				it.target *= batchSizeGrowth
			}
			return out, nil
		}
	}
}

// nextProbeRow returns the next live input row to extend.
func (it *joinIter) nextProbeRow() (rowRef, bool, error) {
	for {
		if it.inBatch != nil && it.inOrd < it.inBatch.live() {
			i := it.inBatch.row(it.inOrd)
			it.inOrd++
			return rowRef{b: it.inBatch, i: i}, true, nil
		}
		b, err := it.nextInBatch()
		if err != nil || b == nil {
			return rowRef{}, false, err
		}
		it.inBatch, it.inOrd = b, 0
	}
}

// nextInBatch returns the next non-empty input batch. The hash strategy
// decides on first use whether to engage: a single input row sticks to
// a bind scan (the build would dominate), two or more build the table.
func (it *joinIter) nextInBatch() (*Batch, error) {
	if len(it.pending) > 0 {
		b := it.pending[0]
		it.pending = it.pending[:copy(it.pending, it.pending[1:])]
		return b, nil
	}
	if it.op.strategy == joinHash && !it.started {
		it.started = true
		b1, err := nextLive(it.in)
		if err != nil || b1 == nil {
			return b1, err
		}
		if b1.live() >= 2 {
			it.hash = true
			return b1, nil
		}
		// Upstream batches are only valid until the next pull, so the
		// single held row is copied out before looking ahead.
		b1 = cloneBatch(b1)
		b2, err := nextLive(it.in)
		if err != nil {
			return nil, err
		}
		if b2 != nil {
			it.hash = true
			//lint:allow batchview pending is served before the iterator pulls in again
			it.pending = append(it.pending, b2)
		}
		return b1, nil
	}
	it.started = true
	return nextLive(it.in)
}

// nextLive pulls in until a batch with live rows (or exhaustion).
func nextLive(in batchIter) (*Batch, error) {
	for {
		b, err := in.next()
		if err != nil || b == nil {
			return nil, err
		}
		if b.live() > 0 {
			return b, nil
		}
	}
}

// startStream opens a pull coroutine yielding the scan's matches as
// progressively-sized batches. One slab is reused across yields — by
// the time the coroutine resumes, the consumer has moved past the
// previous batch — and replaced only when the target outgrows it.
func (it *joinIter) startStream(probe rowRef) {
	op, e := it.op, it.e
	it.pull, it.stop = iter.Pull(func(yield func(*Batch) bool) {
		target := op.firstTarget()
		out := newBatch(e.dict, op.schema, target)
		newPatScan(e, op, op.window, op.schema, func() *Batch { return out }, func() bool {
			if out.n >= target {
				if !yield(out) {
					return false
				}
				if target < batchSizeMax {
					target *= batchSizeGrowth
				}
				if out.cap < target {
					out = newBatch(e.dict, op.schema, target)
				} else {
					out.reset()
				}
			}
			return true
		}).run(probe)
		if out.n > 0 {
			yield(out)
		}
	})
}

// probeHash extends one probe row with every compatible build row. The
// compatibility loop runs entirely on IDs: equal IDs are equal terms
// within an evaluation.
func (it *joinIter) probeHash(probe rowRef, out *Batch) {
	if it.table == nil {
		it.build, it.table, it.buildOut = it.op.makeTable(it.e)
		it.probeCols = slotsOf(it.op.schema, it.op.shared)
	}
	it.kb = rowKey(it.kb[:0], probe, it.probeCols)
	build := it.build
	for _, bi := range it.table[string(it.kb)] {
		r := out.beginRow(probe)
		ok := true
		for c, oc := range it.buildOut {
			val := build.cols[c][bi]
			if val == 0 || oc < 0 {
				continue
			}
			if ex := out.cols[oc][r]; ex != 0 {
				if ex != val {
					ok = false
					break
				}
			} else {
				out.cols[oc][r] = val
			}
		}
		if ok {
			out.commitRow()
		}
	}
}

func (it *joinIter) close() {
	if it.closed {
		return
	}
	it.closed = true
	if it.e.trace != nil && it.scan != nil {
		if st, ok := it.e.trace.stats[it.op]; ok {
			for k, n := range it.scan.dropped {
				st.Dropped[k].Add(n)
			}
			st.Searched.Add(int64(it.scan.searched))
			st.Members.Add(int64(it.scan.members))
		}
	}
	if it.stop != nil {
		it.stop()
		it.pull, it.stop = nil, nil
	}
	it.in.close()
}

func (op *joinOp) explain(b *planText, indent string) {
	kind, strategy := "join", op.strategy
	if op.strategy == joinTimeRange {
		kind = "scan"
	}
	for _, f := range op.subjects {
		strategy += " " + f.String()
	}
	fmt.Fprintf(b, "%s%s[%s] {%s %s %s}", indent, kind, strategy,
		termOrVarString(op.pat.S), termOrVarString(op.pat.P), termOrVarString(op.pat.O))
	if op.trange != nil {
		fmt.Fprintf(b, " %s", op.trange)
	}
	if len(op.shared) > 0 {
		fmt.Fprintf(b, " on %s", strings.Join(op.shared, ","))
	}
	fmt.Fprintf(b, " est=%s", formatEst(op.est))
	b.end(op)
}

// filterOp keeps the rows satisfying a FILTER condition; evaluation
// errors drop the row, per SPARQL semantics. The filter runs a tight
// loop over the batch, compacting its selection vector in place — rows
// are marked dead, never moved. Equality against an IRI constant is
// detected at plan time (newFilterOp) and runs as an ID comparison: the
// constant is encoded once per evaluation and each row costs one
// integer compare, with no term materialisation.
type filterOp struct {
	cond  Expr
	eager bool // pushed into a BGP by the planner (Explain annotation)
	// prog is cond compiled against the group's schema; nil for the
	// constant-equality shape.
	prog cexpr

	// Plan-time constant-equality detection: FILTER(?v = <iri>) and its
	// negation, ?v in column idCol. IRI constants only — IRI equality is
	// term identity, so the ID comparison is exact; literals need value
	// semantics and fall through to expression evaluation.
	idCol   int
	idConst rdf.Term
	idNeg   bool
}

// newFilterOp builds a filter over batches of schema, compiling its
// condition and detecting the constant-IRI equality shape.
func newFilterOp(cond Expr, eager bool, schema *varSchema, cache *geomCache) *filterOp {
	op := &filterOp{cond: cond, eager: eager}
	if be, ok := cond.(*BinaryExpr); ok && (be.Op == "=" || be.Op == "!=") {
		var ve *VarExpr
		var ce *ConstExpr
		if v, okL := be.L.(*VarExpr); okL {
			ve = v
			ce, _ = be.R.(*ConstExpr)
		} else if v, okR := be.R.(*VarExpr); okR {
			ve = v
			ce, _ = be.L.(*ConstExpr)
		}
		if ve != nil && ce != nil && ce.Term.IsIRI() && !ce.Term.IsZero() {
			op.idCol, op.idConst, op.idNeg = slotOf(schema, ve.Name), ce.Term, be.Op == "!="
			return op
		}
	}
	op.prog = compileExpr(cond, schema, cache)
	return op
}

func (op *filterOp) open(e *Evaluator, in batchIter) batchIter {
	it := &filterIter{op: op, e: e, in: in}
	if op.prog == nil {
		// Encode (not merely look up) so the constant also matches terms
		// the evaluation computed itself.
		it.constID = e.dict.encode(op.idConst)
	}
	return it
}

type filterIter struct {
	op      *filterOp
	e       *Evaluator
	in      batchIter
	constID termID
	selBuf  []int32 // reused selection storage for unselected batches
}

func (it *filterIter) next() (*Batch, error) {
	for {
		b, err := it.in.next()
		if err != nil || b == nil {
			return nil, err
		}
		n := b.live()
		var keep []int32
		if b.sel != nil {
			keep = b.sel[:0]
		} else {
			if cap(it.selBuf) < n {
				it.selBuf = make([]int32, 0, b.cap)
			}
			keep = it.selBuf[:0]
		}
		if it.op.prog == nil {
			keep = it.filterIDs(b, keep)
		} else {
			for ord := 0; ord < n; ord++ {
				i := b.row(ord)
				if it.op.prog.test(it.e, rowRef{b: b, i: i}) == triTrue {
					keep = append(keep, int32(i))
				}
			}
		}
		b.sel = keep
		if len(keep) > 0 {
			return b, nil
		}
	}
}

// filterIDs is the constant-equality fast path: one ID compare per row.
// An unbound row (ID 0) drops for both = and != — SPARQL comparison
// with unbound is an error, and errors drop the row.
func (it *filterIter) filterIDs(b *Batch, keep []int32) []int32 {
	c := it.op.idCol
	if c < 0 {
		return keep
	}
	col := b.cols[c]
	n := b.live()
	for ord := 0; ord < n; ord++ {
		i := b.row(ord)
		id := col[i]
		if id != 0 && ((id == it.constID) != it.op.idNeg) {
			keep = append(keep, int32(i))
		}
	}
	return keep
}

func (it *filterIter) close() { it.in.close() }

func (op *filterOp) explain(b *planText, indent string) {
	label := "filter"
	if op.eager {
		label = "filter[pushed]"
	}
	fmt.Fprintf(b, "%s%s %s", indent, label, exprString(op.cond))
	b.end(op)
}

// optionalOp left-joins each row against a sub-plan: rows with no
// sub-solution pass through unextended. The sub-plan (which shares the
// enclosing group's schema) is re-opened per input row over a reused
// one-row seed batch; its batches are forwarded without copying, and
// unmatched probe rows accumulate in a pass-through batch flushed in
// arrival order.
type optionalOp struct {
	sub    *groupPlan
	schema *varSchema
}

func (op *optionalOp) open(e *Evaluator, in batchIter) batchIter {
	return &optionalIter{op: op, e: e, in: in}
}

type optionalIter struct {
	op *optionalOp
	e  *Evaluator
	in batchIter

	inBatch *Batch
	inOrd   int

	sub      batchIter
	subAny   bool
	subProbe rowRef
	seed     *Batch
	pass     *Batch // unmatched probe rows awaiting flush
	held     *Batch // sub batch held back while pass flushes first
}

func (it *optionalIter) next() (*Batch, error) {
	if it.held != nil {
		b := it.held
		it.held = nil
		return b, nil
	}
	for {
		if it.sub != nil {
			b, err := it.sub.next()
			if err != nil {
				return nil, err
			}
			if b != nil {
				if b.live() == 0 {
					continue
				}
				it.subAny = true
				if it.pass != nil && it.pass.live() > 0 {
					//lint:allow batchview held is returned on the next call, before sub is pulled again
					it.held = b
					return it.flushPass(), nil
				}
				return b, nil
			}
			it.sub.close()
			it.sub = nil
			if !it.subAny {
				if it.pass == nil {
					it.pass = newBatch(it.e.dict, it.op.schema, batchSizeMin)
				}
				it.pass.beginRow(it.subProbe)
				it.pass.commitRow()
				if it.pass.n >= batchSizeMax {
					return it.flushPass(), nil
				}
			}
		}
		probe, ok, err := it.nextProbeRow()
		if err != nil {
			return nil, err
		}
		if !ok {
			if it.pass != nil && it.pass.live() > 0 {
				return it.flushPass(), nil
			}
			return nil, nil
		}
		it.subProbe, it.subAny = probe, false
		if it.seed == nil {
			it.seed = newBatch(it.e.dict, it.op.schema, 1)
		}
		it.seed.reset()
		it.seed.beginRow(probe)
		it.seed.commitRow()
		it.sub = it.op.sub.open(it.e, &batchesIter{batches: []*Batch{it.seed}})
	}
}

func (it *optionalIter) flushPass() *Batch {
	b := it.pass
	it.pass = nil
	return b
}

func (it *optionalIter) nextProbeRow() (rowRef, bool, error) {
	for {
		if it.inBatch != nil && it.inOrd < it.inBatch.live() {
			i := it.inBatch.row(it.inOrd)
			it.inOrd++
			return rowRef{b: it.inBatch, i: i}, true, nil
		}
		b, err := nextLive(it.in)
		if err != nil || b == nil {
			return rowRef{}, false, err
		}
		//lint:allow batchview inBatch is drained before the next pull invalidates it
		it.inBatch, it.inOrd = b, 0
	}
}

func (it *optionalIter) close() {
	if it.sub != nil {
		it.sub.close()
		it.sub = nil
	}
	it.in.close()
}

func (op *optionalOp) explain(b *planText, indent string) {
	fmt.Fprintf(b, "%soptional", indent)
	b.end(op)
	op.sub.explain(b, indent+"  ")
}

// unionOp concatenates the solutions of each branch, seeded per row.
// Branches share the enclosing group's schema, so their batches forward
// through unchanged.
type unionOp struct {
	branches []*groupPlan
	schema   *varSchema
}

func (op *unionOp) open(e *Evaluator, in batchIter) batchIter {
	return &unionIter{op: op, e: e, in: in}
}

type unionIter struct {
	op *unionOp
	e  *Evaluator
	in batchIter

	inBatch *Batch
	inOrd   int

	probe  rowRef
	hasRow bool
	branch int
	sub    batchIter
	seed   *Batch
}

func (it *unionIter) next() (*Batch, error) {
	for {
		if it.sub != nil {
			b, err := it.sub.next()
			if err != nil {
				return nil, err
			}
			if b != nil {
				if b.live() == 0 {
					continue
				}
				return b, nil
			}
			it.sub.close()
			it.sub = nil
		}
		if it.hasRow && it.branch < len(it.op.branches) {
			if it.seed == nil {
				it.seed = newBatch(it.e.dict, it.op.schema, 1)
			}
			it.seed.reset()
			it.seed.beginRow(it.probe)
			it.seed.commitRow()
			it.sub = it.op.branches[it.branch].open(it.e, &batchesIter{batches: []*Batch{it.seed}})
			it.branch++
			continue
		}
		it.hasRow = false
		for {
			if it.inBatch != nil && it.inOrd < it.inBatch.live() {
				i := it.inBatch.row(it.inOrd)
				it.inOrd++
				it.probe, it.hasRow, it.branch = rowRef{b: it.inBatch, i: i}, true, 0
				break
			}
			b, err := nextLive(it.in)
			if err != nil || b == nil {
				return nil, err
			}
			//lint:allow batchview inBatch is drained before the next pull invalidates it
			it.inBatch, it.inOrd = b, 0
		}
	}
}

func (it *unionIter) close() {
	if it.sub != nil {
		it.sub.close()
		it.sub = nil
	}
	it.in.close()
}

func (op *unionOp) explain(b *planText, indent string) {
	fmt.Fprintf(b, "%sunion", indent)
	b.end(op)
	for _, br := range op.branches {
		fmt.Fprintf(b, "%s branch\n", indent)
		br.explain(b, indent+"  ")
	}
}

// nestedGroupOp evaluates a nested group graph pattern with its own
// filter scope.
type nestedGroupOp struct {
	sub *groupPlan
}

func (op *nestedGroupOp) open(e *Evaluator, in batchIter) batchIter {
	return op.sub.open(e, in)
}

func (op *nestedGroupOp) explain(b *planText, indent string) {
	fmt.Fprintf(b, "%sgroup", indent)
	b.end(op)
	op.sub.explain(b, indent+"  ")
}

// subSelectOp evaluates a nested SELECT once per evaluation and joins
// its solutions with the input rows on their shared variables. The
// sub-evaluation is lazy (an empty input never runs it) and its
// solutions — a Result of decoded terms, since overflow IDs are private
// to one evaluator — are kept in the evaluator's per-evaluation memo
// (subRes), so OPTIONAL re-entry reuses them. A prepared plan's
// sub-select takes the run's seed rows, an unprepared one the unit seed.
type subSelectOp struct {
	sub    *selectPlan
	schema *varSchema
}

func (op *subSelectOp) open(e *Evaluator, in batchIter) batchIter {
	return &subSelectIter{op: op, e: e, in: in, target: batchSizeMin}
}

func (op *subSelectOp) solutions(e *Evaluator) (*Result, error) {
	if res, ok := e.subRes[op]; ok {
		return res, nil
	}
	res, err := op.sub.run(e, e.seedVars, e.seed)
	if err != nil {
		return nil, err
	}
	if e.subRes == nil {
		e.subRes = make(map[*subSelectOp]*Result)
	}
	e.subRes[op] = res
	return res, nil
}

type subSelectIter struct {
	op *subSelectOp
	e  *Evaluator
	in batchIter

	inBatch *Batch
	inOrd   int
	target  int
	out     *Batch
	cols    []int // output column of each solution column; -1 = none
}

func (it *subSelectIter) next() (*Batch, error) {
	var out *Batch
	for {
		probe, ok, err := it.nextProbeRow()
		if err != nil {
			return nil, err
		}
		if !ok {
			if out != nil && out.live() > 0 {
				return out, nil
			}
			return nil, nil
		}
		res, err := it.op.solutions(it.e)
		if err != nil {
			return nil, err
		}
		if it.cols == nil {
			it.cols = make([]int, len(res.Vars))
			for j, v := range res.Vars {
				if c, ok := it.op.schema.col(v); ok {
					it.cols[j] = c
				} else {
					it.cols[j] = -1
				}
			}
		}
		if out == nil {
			if it.out == nil || it.out.cap < it.target {
				it.out = newBatch(it.e.dict, it.op.schema, it.target)
			} else {
				it.out.reset()
			}
			out = it.out
		}
		for _, cand := range res.Rows {
			r := out.beginRow(probe)
			compatible := true
			for j, v := range cand {
				c := it.cols[j]
				if c < 0 || v.IsZero() {
					continue
				}
				if ex := out.cols[c][r]; ex != 0 {
					if !out.dict.decode(ex).Equal(v) {
						compatible = false
						break
					}
				} else {
					out.cols[c][r] = out.dict.encode(v)
				}
			}
			if compatible {
				out.commitRow()
			}
		}
		if out.n >= it.target {
			if it.target < batchSizeMax {
				it.target *= batchSizeGrowth
			}
			return out, nil
		}
	}
}

func (it *subSelectIter) nextProbeRow() (rowRef, bool, error) {
	for {
		if it.inBatch != nil && it.inOrd < it.inBatch.live() {
			i := it.inBatch.row(it.inOrd)
			it.inOrd++
			return rowRef{b: it.inBatch, i: i}, true, nil
		}
		b, err := nextLive(it.in)
		if err != nil || b == nil {
			return rowRef{}, false, err
		}
		//lint:allow batchview inBatch is drained before the next pull invalidates it
		it.inBatch, it.inOrd = b, 0
	}
}

func (it *subSelectIter) close() { it.in.close() }

func (op *subSelectOp) explain(b *planText, indent string) {
	fmt.Fprintf(b, "%ssub-select", indent)
	b.end(op)
	op.sub.explain(b, indent+"  ")
}

// aggregateOp groups rows and evaluates aggregate projections and HAVING
// constraints. Blocking: grouping needs the full input, drained into one
// owned batch and keyed on fixed-width ID tuples (see
// Evaluator.aggregate). Its expressions are compiled against the input
// schema: the GROUP BY keys as plain expressions, HAVING and the
// computed projections in aggregate context.
type aggregateOp struct {
	q      *SelectQuery
	keys   []groupKey
	having []cexpr
	items  []groupItem
	out    *varSchema // a column per GROUP BY variable and projected variable, sorted by name
}

// groupKey is one GROUP BY key: a variable's input column (col >= 0,
// out its output column), or a computed expression.
type groupKey struct {
	col, out int
	x        cexpr
}

// groupItem is one projected variable: its output column and either its
// input column (x nil: a plain variable, the representative's value) or
// its computed expression.
type groupItem struct {
	out, col int
	x        cexpr
}

func newAggregateOp(q *SelectQuery, in *varSchema, cache *geomCache) *aggregateOp {
	names := map[string]bool{}
	for _, ge := range q.GroupBy {
		if ve, ok := ge.(*VarExpr); ok {
			names[ve.Name] = true
		}
	}
	for _, item := range q.Projection {
		names[item.Var] = true
	}
	op := &aggregateOp{q: q, out: schemaOf(names),
		keys: make([]groupKey, len(q.GroupBy)), having: make([]cexpr, len(q.Having)), items: make([]groupItem, len(q.Projection))}
	for i, ge := range q.GroupBy {
		if ve, ok := ge.(*VarExpr); ok {
			op.keys[i] = groupKey{col: slotOf(in, ve.Name), out: slotOf(op.out, ve.Name)}
		} else {
			op.keys[i] = groupKey{col: -1, out: -1, x: compileExpr(ge, in, cache)}
		}
	}
	for i, h := range q.Having {
		op.having[i] = compileGrouped(h, in, cache)
	}
	for i, item := range q.Projection {
		op.items[i] = groupItem{out: slotOf(op.out, item.Var), col: slotOf(in, item.Var)}
		if item.Expr != nil {
			op.items[i].x = compileGrouped(item.Expr, in, cache)
		}
	}
	return op
}

func (op *aggregateOp) open(e *Evaluator, in batchIter) batchIter {
	return &aggregateIter{op: op, e: e, in: in}
}

type aggregateIter struct {
	op  *aggregateOp
	e   *Evaluator
	in  batchIter
	out *batchesIter
}

func (it *aggregateIter) next() (*Batch, error) {
	if it.out == nil {
		grouped, err := it.e.aggregate(it.op, it.in)
		if err != nil {
			return nil, err
		}
		it.out = &batchesIter{batches: []*Batch{grouped}}
	}
	return it.out.next()
}

func (it *aggregateIter) close() { it.in.close() }

func (op *aggregateOp) explain(b *planText, indent string) {
	fmt.Fprintf(b, "%saggregate", indent)
	if len(op.q.GroupBy) > 0 {
		keys := make([]string, len(op.q.GroupBy))
		for i, g := range op.q.GroupBy {
			keys[i] = exprString(g)
		}
		fmt.Fprintf(b, " group=%s", strings.Join(keys, ","))
	}
	if len(op.q.Having) > 0 {
		fmt.Fprintf(b, " having=%d", len(op.q.Having))
	}
	b.end(op)
}

// projectOp applies the SELECT projection, rewriting each input batch
// into a batch whose columns are the header's, in order — an ID-to-ID
// column copy for plain variables, with expression results encoded
// through the evaluation dictionary. An explicit projection streams
// through one reused output slab; SELECT * is the one blocking modifier
// — its header is the sorted set of variables some row binds, so it
// drains at open, which is what keeps the header final before the
// first row.
type projectOp struct {
	q *SelectQuery
	// An explicit projection's output schema and, per item, its input
	// column (a plain variable, or a grouped row's computed binding) or
	// its expression compiled against the input schema.
	schema *varSchema
	items  []projItem
}

type projItem struct {
	col int
	x   cexpr
}

// newProjectOp builds the projection of q over batches of schema in.
func newProjectOp(q *SelectQuery, grouped bool, in *varSchema, cache *geomCache) *projectOp {
	op := &projectOp{q: q}
	if q.Star {
		return op
	}
	op.schema = newSchema(projectionVars(q))
	op.items = make([]projItem, len(q.Projection))
	for i, item := range q.Projection {
		op.items[i].col = slotOf(in, item.Var)
		if item.Expr != nil && !grouped {
			op.items[i].x = compileExpr(item.Expr, in, cache)
		}
	}
	return op
}

func (op *projectOp) open(e *Evaluator, in batchIter) batchIter {
	it := &projectIter{op: op, e: e, in: in}
	if op.q.Star {
		rows, err := drainBatch(e.dict, in)
		if err != nil {
			it.err = err
			return it
		}
		var cols []int // the columns some row binds, in schema (name) order
		for c, name := range rows.schema.names {
			if slices.ContainsFunc(rows.cols[c][:rows.n], func(id termID) bool { return id != 0 }) {
				it.vars, cols = append(it.vars, name), append(cols, c)
			}
		}
		out := &Batch{schema: newSchema(it.vars), dict: e.dict, n: rows.n, cap: rows.cap}
		for _, c := range cols {
			out.cols = append(out.cols, rows.cols[c])
		}
		it.star = &batchesIter{batches: []*Batch{out}}
		return it
	}
	it.vars = op.schema.names
	return it
}

type projectIter struct {
	op   *projectOp
	e    *Evaluator
	in   batchIter
	vars []string
	star *batchesIter // materialised output of a SELECT *
	out  *Batch       // reused output slab
	err  error
}

func (it *projectIter) next() (*Batch, error) {
	if it.err != nil {
		return nil, it.err
	}
	if it.star != nil {
		return it.star.next()
	}
	b, err := nextLive(it.in)
	if err != nil || b == nil {
		return nil, err
	}
	n := b.live()
	if it.out == nil || it.out.cap < n {
		it.out = newBatch(it.e.dict, it.op.schema, max(n, b.cap))
	} else {
		it.out.reset()
	}
	out := it.out
	for ord := 0; ord < n; ord++ {
		i := b.row(ord)
		in := rowRef{b: b, i: i}
		r := out.beginRow(rowRef{})
		for c, item := range it.op.items {
			if item.x != nil {
				if t, ok := item.x.eval(it.e, in).asTerm(); ok {
					out.cols[c][r] = out.dict.encode(t)
				}
				continue
			}
			// Plain variables, and grouped rows (which already carry the
			// computed aggregate bindings), copy through as IDs.
			out.cols[c][r] = in.id(item.col)
		}
		out.commitRow()
	}
	return out, nil
}

func (it *projectIter) close() { it.in.close() }

func (op *projectOp) explain(b *planText, indent string) {
	if op.q.Star {
		fmt.Fprintf(b, "%sproject *", indent)
		b.end(op)
		return
	}
	items := make([]string, len(op.q.Projection))
	for i, item := range op.q.Projection {
		if item.Expr != nil {
			items[i] = "(" + exprString(item.Expr) + " AS ?" + item.Var + ")"
		} else {
			items[i] = "?" + item.Var
		}
	}
	fmt.Fprintf(b, "%sproject %s", indent, strings.Join(items, " "))
	b.end(op)
}

// distinctOp deduplicates rows over the projected variables, streaming:
// each batch's fixed-width ID-tuple keys are built into a reused arena
// and checked against the seen set, compacting the selection vector in
// place so first occurrences flow through immediately (the same order
// materialised deduplication produced). The projection's batches carry
// exactly the projected columns, so the keys range over the batch
// schema.
type distinctOp struct {
	proj *projectOp
}

func (op *distinctOp) open(e *Evaluator, in batchIter) batchIter {
	return &distinctIter{in: in, seen: make(map[string]bool)}
}

type distinctIter struct {
	in     batchIter
	seen   map[string]bool
	kb     []byte
	selBuf []int32
}

func (it *distinctIter) next() (*Batch, error) {
	for {
		b, err := it.in.next()
		if err != nil || b == nil {
			return nil, err
		}
		n := b.live()
		var keep []int32
		if b.sel != nil {
			keep = b.sel[:0]
		} else {
			if cap(it.selBuf) < n {
				it.selBuf = make([]int32, 0, b.cap)
			}
			keep = it.selBuf[:0]
		}
		for ord := 0; ord < n; ord++ {
			i := b.row(ord)
			it.kb = it.kb[:0]
			for _, col := range b.cols {
				it.kb = appendIDKey(it.kb, col[i])
			}
			if !it.seen[string(it.kb)] {
				it.seen[string(it.kb)] = true
				keep = append(keep, int32(i))
			}
		}
		b.sel = keep
		if len(keep) > 0 {
			return b, nil
		}
	}
}

func (it *distinctIter) close() { it.in.close() }

func (op *distinctOp) explain(b *planText, indent string) {
	fmt.Fprintf(b, "%sdistinct", indent)
	b.end(op)
}

// orderOp sorts rows by the ORDER BY keys (stable; incomparable values
// tie). Blocking: the input drains into one owned batch of ID rows, each
// key is evaluated once per row, and the output is that batch under a
// selection vector listing its rows in sorted order — no row becomes a
// map, none is copied twice. When a downstream LIMIT bounds how many
// sorted rows can ever be consumed (topK > 0), the batch holds at most K
// rows, a bounded heap over their slots deciding which.
type orderOp struct {
	keys []OrderKey
	// prog is the keys' expressions compiled against the projection's
	// schema; nil under SELECT *, whose schema the first batch brings.
	prog []cexpr
	// topK > 0 bounds how many rows of the sorted output are reachable
	// (OFFSET+LIMIT). The input is still fully drained, but memory stays
	// O(topK) and the final sort is over topK rows, not the input.
	topK int
}

func (op *orderOp) open(e *Evaluator, in batchIter) batchIter {
	return &orderIter{op: op, e: e, in: in}
}

type orderIter struct {
	op   *orderOp
	e    *Evaluator
	in   batchIter
	prog []cexpr
	done bool

	// The kept rows: slot i of rows has its key values at
	// vals[i*len(keys):] and its arrival number at seq[i].
	rows *Batch
	vals []Value
	seq  []int
}

func (it *orderIter) next() (*Batch, error) {
	if it.done {
		return nil, nil
	}
	it.done = true
	heap, err := it.drain()
	if err != nil || it.rows == nil {
		return nil, err
	}
	// The comparisons are the map-row sort's, made in the same order —
	// incomparable values tie, so only the same algorithm over the same
	// input order reproduces its output: a stable sort of the arrivals,
	// or an unstable one of the heap by (keys, arrival).
	if it.op.topK == 0 {
		perm := make([]int32, it.rows.n)
		for i := range perm {
			perm[i] = int32(i)
		}
		slices.SortStableFunc(perm, func(a, b int32) int {
			return compareKeys(it.slotKeys(int(a)), it.slotKeys(int(b)), it.op.keys)
		})
		it.rows.sel = perm
		return it.rows, nil
	}
	slices.SortFunc(heap, func(a, b int32) int {
		if it.after(it.slotKeys(int(b)), it.seq[b], int(a)) {
			return -1
		}
		return 1
	})
	it.rows.sel = heap
	return it.rows, nil
}

func (it *orderIter) slotKeys(i int) []Value {
	n := len(it.op.keys)
	return it.vals[i*n : (i+1)*n]
}

// after reports whether a row with key values keys and arrival number
// seq sorts strictly after kept slot j.
func (it *orderIter) after(keys []Value, seq, j int) bool {
	if c := compareKeys(keys, it.slotKeys(j), it.op.keys); c != 0 {
		return c > 0
	}
	return seq > it.seq[j]
}

// drain pulls the input to exhaustion. Without a bound every row is
// kept; with topK the kept slots form a max-heap under after — the root
// is the worst kept row — so a new row either replaces the root or is
// dropped: O(n log k) comparisons, O(k) memory. It returns the heap.
func (it *orderIter) drain() ([]int32, error) {
	k := it.op.topK
	var heap []int32 // topK: kept slots, worst at the root
	var cand []Value // topK: key values of the row on trial
	worse := func(a, b int) bool { return it.after(it.slotKeys(int(heap[a])), it.seq[heap[a]], int(heap[b])) }
	for arrival := 0; ; {
		b, err := it.in.next()
		if err != nil || b == nil {
			return heap, err
		}
		if it.rows == nil {
			it.rows = newBatch(it.e.dict, b.schema, batchSizeMin)
			if it.prog = it.op.prog; it.prog == nil {
				it.prog = compileKeys(it.op.keys, b.schema, it.e.cache)
			}
		}
		for ord := 0; ord < b.live(); ord, arrival = ord+1, arrival+1 {
			row := rowRef{b: b, i: b.row(ord)}
			if k == 0 || it.rows.n < k {
				it.rows.beginRow(row)
				it.rows.commitRow()
				it.vals = it.e.appendKeys(it.vals, it.prog, row)
				it.seq = append(it.seq, arrival)
				if k == 0 {
					continue
				}
				heap = append(heap, int32(it.rows.n-1))
				for i := len(heap) - 1; i > 0 && worse(i, (i-1)/2); i = (i - 1) / 2 {
					heap[i], heap[(i-1)/2] = heap[(i-1)/2], heap[i]
				}
				continue
			}
			cand = it.e.appendKeys(cand[:0], it.prog, row)
			if it.after(cand, arrival, int(heap[0])) {
				continue // sorts after the worst kept row: unreachable
			}
			slot := int(heap[0])
			it.rows.setRow(slot, row)
			copy(it.slotKeys(slot), cand)
			it.seq[slot] = arrival
			for i := 0; ; { // sift down
				w := i
				for _, c := range []int{2*i + 1, 2*i + 2} {
					if c < len(heap) && worse(c, w) {
						w = c
					}
				}
				if w == i {
					break
				}
				heap[i], heap[w] = heap[w], heap[i]
				i = w
			}
		}
	}
}

func (it *orderIter) close() { it.in.close() }

func (op *orderOp) explain(b *planText, indent string) {
	keys := make([]string, len(op.keys))
	for i, k := range op.keys {
		keys[i] = exprString(k.Expr)
		if k.Desc {
			keys[i] += " desc"
		}
	}
	fmt.Fprintf(b, "%sorder %s", indent, strings.Join(keys, ", "))
	if op.topK > 0 {
		fmt.Fprintf(b, " top=%d", op.topK)
	}
	b.end(op)
}

// sliceOp applies OFFSET and LIMIT by trimming the selection vectors of
// the batches flowing through. Once the limit is satisfied it closes
// its input, releasing any scans still in flight — with a streaming
// upstream (pushed=true, see planSelect) this stops the index scans
// themselves.
type sliceOp struct {
	offset, limit int
	pushed        bool // order/aggregate/distinct-free: early exit reaches the scans
}

func (op *sliceOp) open(e *Evaluator, in batchIter) batchIter {
	return &sliceIter{op: op, in: in}
}

type sliceIter struct {
	op      *sliceOp
	in      batchIter
	skipped int
	emitted int
	done    bool
}

func (it *sliceIter) next() (*Batch, error) {
	if it.done {
		return nil, nil
	}
	for {
		if it.op.limit >= 0 && it.emitted >= it.op.limit {
			it.done = true
			it.in.close()
			return nil, nil
		}
		b, err := it.in.next()
		if err != nil || b == nil {
			it.done = true
			return nil, err
		}
		n := b.live()
		if it.skipped < it.op.offset {
			skip := it.op.offset - it.skipped
			if skip > n {
				skip = n
			}
			it.skipped += skip
			if skip == n {
				continue
			}
			b.dropFirst(skip)
			n -= skip
		}
		if it.op.limit >= 0 {
			remain := it.op.limit - it.emitted
			if n > remain {
				b.truncLive(remain)
				n = remain
			}
		}
		if n == 0 {
			continue
		}
		it.emitted += n
		if it.op.limit >= 0 && it.emitted >= it.op.limit {
			it.done = true
			// Stop the upstream scans before the consumer even drains
			// this final batch.
			it.in.close()
		}
		return b, nil
	}
}

func (it *sliceIter) close() { it.in.close() }

func (op *sliceOp) explain(b *planText, indent string) {
	label := "slice"
	if op.pushed {
		label = "slice[pushed]"
	}
	fmt.Fprintf(b, "%s%s offset=%d limit=%d", indent, label, op.offset, op.limit)
	b.end(op)
}

// --- pattern scanning (shared by bind joins and hash build sides) ---

// patScan is one pattern scan's reusable context. Bind joins run a
// scan per probe row, so everything a visit needs lives in fields and
// the visit callbacks are bound once at construction — a re-run
// mutates probe state and allocates nothing. The scan runs in ID space
// end to end: the pattern resolves to store IDs, the index visitor
// yields encoded triples and the matched IDs land in the batch columns
// without a single term materialisation.
//
// out is fetched per row rather than passed once — the streaming
// coroutine yields full batches from onRow and swaps in a fresh slab —
// and onRow, run after each appended row, reports whether to continue.
type patScan struct {
	e      *Evaluator
	op     *joinOp
	pat    TriplePattern
	trange *TimeWindow // non-nil for a time-range scan
	window []cexpr     // the op's window geometries; nil for a hash build
	out    func() *Batch
	onRow  func() bool
	// in and outc are the pattern components' columns in the probe row
	// and in the output batch (-1: a constant, or a variable the batch
	// does not hold).
	in, outc [3]int

	probe    rowRef // current probe row
	sid, pid rdf.ID // subject and predicate resolved under probe

	// Resolved when the scan opens, never per probe row: the store IDs of
	// the pattern's constants (miss: one of them is a term no visible
	// triple carries, so no probe row matches anything), whether the
	// source's spatial index could serve the pattern's object, and whether
	// a constant predicate is a geometry predicate. That is sound because
	// Evaluator.begin pins the dictionary watermark for the whole
	// evaluation — a constant that misses at open misses until its end —
	// and it lives here, in per-evaluation state, because the joinOp is
	// shared by every evaluation running the plan.
	consts   [3]rdf.ID
	miss     bool
	indexed  bool
	geomPred bool
	// A window scan keeps only the candidates its subject filters admit
	// and counts the rest by kind; sets are each filter's (subjectSets),
	// a constant object's from the open, the others' per probe row.
	subjects []subjectFilter
	sets     [][]rdf.IDSet
	dropped  [3]int64
	// A scan that can run windows asks its source once, when it opens,
	// which members the constant-object filters rule out (WindowSkip):
	// skip goes to every window, and a scan with no member left to
	// search runs none.
	skip              uint64
	searched, members int

	visit       func(rdf.EncodedTriple) bool // bound bind
	visitWindow func(rdf.EncodedTriple) bool // bound windowBind
}

func newPatScan(e *Evaluator, op *joinOp, window []cexpr, outSchema *varSchema, out func() *Batch, onRow func() bool) *patScan {
	sc := &patScan{e: e, op: op, pat: op.pat, trange: op.trange, window: window, out: out, onRow: onRow}
	sc.visit = sc.bind
	for i, tv := range [3]TermOrVar{op.pat.S, op.pat.P, op.pat.O} {
		sc.in[i], sc.outc[i] = -1, -1
		if tv.IsVar() {
			sc.in[i], sc.outc[i] = slotOf(op.schema, tv.Var), slotOf(outSchema, tv.Var)
			continue
		}
		id, ok := e.dict.storeID(tv.Term)
		sc.consts[i], sc.miss = id, sc.miss || !ok
	}
	sc.indexed = e.spatial != nil && op.pat.O.IsVar()
	sc.geomPred = !op.pat.P.IsVar() && GeometryPredicates[op.pat.P.Term.Value]
	if sc.indexed && len(op.subjects) > 0 {
		sc.subjects, sc.sets = op.subjects, make([][]rdf.IDSet, len(op.subjects))
		for i, f := range op.subjects {
			if f.time == nil && !f.o.IsVar() { // a constant object: no probe row needed
				sc.sets[i] = e.subjectSets(f, rowRef{})
			}
		}
	}
	if sc.indexed && !sc.miss && (sc.geomPred || op.pat.P.IsVar()) {
		sc.skip, sc.members = e.spatial.WindowSkip(sc.consts[1], sc.sets)
		sc.searched = sc.members - bits.OnesCount64(sc.skip)
		sc.visitWindow = sc.windowBind
	}
	return sc
}

// run scans the pattern under one probe row: constants come resolved
// from the open, variables resolve against the row. A bound component
// the store dictionary has never seen (including evaluation-computed
// overflow terms) matches nothing, so the scan is skipped outright.
// When the pattern binds a fresh geometry variable that a pending
// spatial filter constrains against an already-known geometry, and the
// source has a spatial index, the scan is served by an R-tree window
// query instead of a full predicate scan; a time-range scan reads the
// source's time index over its window — its variable bounds evaluated
// under the probe row, as the R-tree window's envelope is — unless the
// probe row turns out to bind the subject or the time after all (an
// OPTIONAL upstream may), which an ordinary index lookup serves better.
func (sc *patScan) run(probe rowRef) {
	if sc.miss {
		return
	}
	sc.probe = probe
	sid, ok := sc.resolve(0)
	if !ok {
		return
	}
	pid, ok := sc.resolve(1)
	if !ok {
		return
	}
	oid, ok := sc.resolve(2)
	if !ok {
		return
	}
	sc.sid, sc.pid = sid, pid

	// A predicate bound by the row, not by the pattern, is the one case
	// left to decode per row.
	if sc.indexed && pid != 0 && oid == 0 &&
		(sc.geomPred || sc.pat.P.IsVar() && GeometryPredicates[sc.e.dict.decode(termID(pid)).Value]) {
		if env, found := sc.windowEnv(probe); found {
			for i, f := range sc.subjects {
				if f.time != nil || f.o.IsVar() {
					sc.sets[i] = sc.e.subjectSets(f, probe)
				}
			}
			if sc.searched > 0 {
				sc.e.spatial.MatchGeometryWindowIDs(env, sc.skip, sc.visitWindow)
			}
			return
		}
	}
	if sc.trange != nil && sid == 0 && oid == 0 && sc.e.timed != nil {
		sc.e.timed.MatchTimeRangeIDs(pid, sc.op.trCols.under(*sc.trange, probe), sc.visit)
		return
	}
	sc.e.src.MatchIDs(sid, pid, oid, sc.visit)
}

// subjectKey is (p, o) for a set filter, p and the window under the
// probe row for a time filter.
type subjectKey struct {
	p, o rdf.ID
	w    TimeWindow
}

// subjectSets returns the sets of filter f under the probe row: a
// constant object's (p, o) sets, or — built once per distinct object or
// window per evaluation, however many probe rows share it — a bound
// variable's, or the subjects of p's time index over the window. An
// empty list passes no candidate (a term no visible triple carries), nil
// passes all (an unbound object, or a window the index cannot serve,
// rather than scan p).
func (e *Evaluator) subjectSets(f subjectFilter, probe rowRef) []rdf.IDSet {
	p, okP := e.dict.storeID(f.p)
	k := subjectKey{p: p}
	switch {
	case !okP:
		return []rdf.IDSet{}
	case f.time != nil:
		k.w = f.timeCols.under(*f.time, probe)
	case !f.o.IsVar():
		o, ok := e.dict.storeID(f.o.Term)
		if !ok {
			return []rdf.IDSet{}
		}
		return e.spatial.SubjectSets(p, o, []rdf.IDSet{})
	default:
		id := probe.id(f.col)
		if id == 0 || id >= overflowBase {
			return nil
		}
		k.o = rdf.ID(id)
	}
	if sets, ok := e.subjects[k]; ok {
		return sets
	}
	n, served := 0, f.time != nil && e.timed != nil
	if served {
		n, served = e.timed.CountTimeRange(f.p, k.w)
	}
	var sets []rdf.IDSet
	switch {
	case f.time == nil:
		sets = e.spatial.SubjectSets(k.p, k.o, []rdf.IDSet{})
	case served:
		ids := make([]rdf.ID, 0, n)
		e.timed.MatchTimeRangeIDs(k.p, k.w, func(t rdf.EncodedTriple) bool {
			ids = append(ids, t.S)
			return true
		})
		slices.Sort(ids)
		sets = []rdf.IDSet{rdf.SortedIDSet(slices.Compact(ids))}
	}
	if e.subjects == nil {
		e.subjects = make(map[subjectKey][]rdf.IDSet)
	}
	e.subjects[k] = sets
	return sets
}

// inSets reports whether x is in one of sets; nil sets hold everything.
func inSets(sets []rdf.IDSet, x rdf.ID) bool {
	if sets == nil {
		return true
	}
	for i := range sets {
		if sets[i].Has(x) {
			return true
		}
	}
	return false
}

// windowBind filters R-tree window candidates down to the pattern
// before binding (the window over-approximates): one integer compare
// per component, and a set lookup per subject filter.
func (sc *patScan) windowBind(t rdf.EncodedTriple) bool {
	if sc.pid != 0 && t.P != sc.pid {
		return true
	}
	if sc.sid != 0 && t.S != sc.sid {
		return true
	}
	for i := range sc.sets {
		if !inSets(sc.sets[i], t.S) {
			sc.dropped[sc.subjects[i].kind]++
			return true
		}
	}
	return sc.bind(t)
}

// bind stages one matched triple's bindings — three ID stores per row,
// no term in sight — and reports whether the scan should continue. The
// staged row is discarded (never committed) on a conflicting
// repeated-variable binding.
func (sc *patScan) bind(t rdf.EncodedTriple) bool {
	b := sc.out()
	r := b.beginRow(sc.probe)
	if !stageBinding(b, r, sc.outc[0], termID(t.S)) || !stageBinding(b, r, sc.outc[1], termID(t.P)) || !stageBinding(b, r, sc.outc[2], termID(t.O)) {
		return true
	}
	b.commitRow()
	return sc.onRow()
}

// resolve resolves component i of the pattern to a store ID under the
// current probe row: constants to the ID found at open, bound variables
// to their ID (read from their column), free variables to the wildcard.
// ok=false means the variable is bound to a term no indexed triple can
// carry (a dictionary miss or an evaluation-local overflow ID): the scan
// matches nothing.
func (sc *patScan) resolve(i int) (rdf.ID, bool) {
	if sc.consts[i] != 0 {
		return sc.consts[i], true
	}
	if id := sc.probe.id(sc.in[i]); id != 0 {
		if id >= overflowBase {
			return 0, false
		}
		return rdf.ID(id), true
	}
	return 0, true
}

// alwaysScan is the onRow of scans without early termination; a named
// function so passing it allocates no closure.
func alwaysScan() bool { return true }

// stageBinding binds one pattern component, in column c (-1: nothing
// to bind), into the staged row r of b, reporting false on a
// conflicting repeated-variable binding.
func stageBinding(b *Batch, r int, c int, id termID) bool {
	if c < 0 {
		return true
	}
	if ex := b.cols[c][r]; ex != 0 {
		return ex == id
	}
	b.cols[c][r] = id
	return true
}

// windowEnv returns the candidate envelope of a window scan: that of
// the first of the op's window geometries that evaluates to a geometry
// under the probe row.
func (sc *patScan) windowEnv(probe rowRef) (geom.Envelope, bool) {
	for _, x := range sc.window {
		if v := x.eval(sc.e, probe); v.Kind == VGeom {
			return v.Geom.Envelope(), true
		}
	}
	return geom.Envelope{}, false
}

var spatialJoinFns = map[string]bool{
	"strdf:anyinteract": true,
	"strdf:intersects":  true,
	"strdf:contains":    true,
	"strdf:within":      true,
	"strdf:overlap":     true,
	"strdf:overlaps":    true,
	"strdf:touches":     true,
	"strdf:touch":       true,
	"strdf:equals":      true,
	"strdf:coveredby":   true,
	"strdf:covers":      true,
}

// windowArgs appends to out, compiled, the geometries the spatial join
// calls of a filter condition test variable v against: for each
// spatialJoinFns call with v for an argument, the other argument,
// through && conjunctions, left to right. A window scan on v tries them
// in this order.
func windowArgs(x Expr, v string, c *compiler, out []cexpr) []cexpr {
	switch n := x.(type) {
	case *CallExpr:
		if spatialJoinFns[n.Name] && len(n.Args) == 2 {
			for i := 0; i < 2; i++ {
				if ve, ok := n.Args[i].(*VarExpr); ok && ve.Name == v {
					out = append(out, c.compile(n.Args[1-i]))
				}
			}
		}
	case *BinaryExpr:
		if n.Op == "&&" {
			out = windowArgs(n.R, v, c, windowArgs(n.L, v, c, out))
		}
	}
	return out
}
