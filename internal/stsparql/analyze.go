package stsparql

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// EXPLAIN ANALYZE support: an ExecTrace collects per-operator actuals
// (rows out, batches, cumulative wall time, open count) while a plan
// runs, and renders the plan tree annotated with them next to the
// optimizer's estimates.
//
// Plans are immutable and shared (plan cache, concurrent runs), so the
// trace never touches the operators themselves: it is keyed by operator
// identity and armed on one Evaluator. The wrap happens once per
// operator at open time — a single nil check on the disabled path, so
// an untraced evaluation pays nothing per row or batch. A traced
// iterator's time is inclusive: it covers the operator and everything
// upstream of it, like PostgreSQL's actual time.

// OpStats accumulates one operator's actuals: sub-plans re-opened per
// probe row (OPTIONAL, UNION) and shared sub-selects add into the same
// entry. Counters are atomic.
type OpStats struct {
	Rows    atomic.Int64 // live rows emitted
	Batches atomic.Int64 // batches emitted
	Opens   atomic.Int64 // times the operator was opened
	Nanos   atomic.Int64 // cumulative wall time in next(), inclusive of upstream
	// Dropped counts the candidates a window join's subject filters
	// dropped before staging, by the refusing filter's kind.
	Dropped [3]atomic.Int64
	// Searched and Members count the member R-trees a window scan
	// searched and the members its source holds (SpatialSource.WindowSkip).
	Searched, Members atomic.Int64
}

// ExecTrace maps a compiled plan's operators to their runtime actuals.
// Build it with NewExecTrace, arm it with Evaluator.SetTrace, run the
// plan, then Render the annotated tree. One trace may be armed on
// several evaluators at once; the counters are atomic.
type ExecTrace struct {
	stats map[operator]*OpStats
}

// NewExecTrace registers every operator of a compiled SELECT or ASK
// plan, walking it as Render (and EXPLAIN) does. The map is complete
// before any evaluation starts and is never mutated afterwards, so
// traced iterators read it without locks.
func NewExecTrace(c *Compiled) *ExecTrace {
	t := &ExecTrace{stats: make(map[operator]*OpStats)}
	c.explain(&planText{note: func(_ *strings.Builder, op operator) {
		if t.stats[op] == nil {
			t.stats[op] = &OpStats{}
		}
	}})
	return t
}

// wrap interposes a traced iterator over one operator's output. Called
// from the open paths only when a trace is armed.
func (t *ExecTrace) wrap(op operator, in batchIter) batchIter {
	st, ok := t.stats[op]
	if !ok {
		// An operator outside the registered plan (defensive; should not
		// happen — traces are built from the Compiled being run).
		return in
	}
	st.Opens.Add(1)
	return &tracedIter{st: st, in: in}
}

type tracedIter struct {
	st *OpStats
	in batchIter
}

func (it *tracedIter) next() (*Batch, error) {
	start := time.Now()
	b, err := it.in.next()
	it.st.Nanos.Add(int64(time.Since(start)))
	if b != nil {
		it.st.Batches.Add(1)
		it.st.Rows.Add(int64(b.live()))
	}
	return b, err
}

func (it *tracedIter) close() { it.in.close() }

// SetTrace arms t on this evaluator: plans opened through it wrap every
// operator with actuals collection. nil disarms. The evaluator's usual
// single-goroutine contract stands; one trace may be shared by several
// evaluators.
func (e *Evaluator) SetTrace(t *ExecTrace) { e.trace = t }

// Render is EXPLAIN's rendering of the compiled plan with each
// operator's line annotated with its actuals:
//
//	join[bind] {?h a noa:Hotspot} est=1000 (actual rows=9731 batches=12 time=1.2ms)
//
// rows/batches are the operator's output; time is inclusive of
// everything upstream; opens>1 marks per-probe-row re-opened sub-plans
// (OPTIONAL/UNION branches), where the figures are cumulative across
// re-openings. Operators the evaluation never opened are annotated
// "(never executed)".
func (t *ExecTrace) Render(c *Compiled) string {
	b := planText{note: t.annotate}
	c.explain(&b)
	return b.String()
}

func (t *ExecTrace) annotate(b *strings.Builder, op operator) {
	st, ok := t.stats[op]
	if !ok {
		return
	}
	if st.Opens.Load() == 0 {
		b.WriteString(" (never executed)")
		return
	}
	fmt.Fprintf(b, " (actual rows=%d batches=%d time=%v",
		st.Rows.Load(), st.Batches.Load(), time.Duration(st.Nanos.Load()).Round(time.Microsecond))
	if n := st.Opens.Load(); n > 1 {
		fmt.Fprintf(b, " opens=%d", n)
	}
	if j, ok := op.(*joinOp); ok {
		if n := st.Members.Load(); j.strategy == joinWindow && n > 0 {
			fmt.Fprintf(b, " searched=%d/%d", st.Searched.Load(), n)
		}
		for k, label := range [3]string{"class", "set", "time"} {
			if slices.ContainsFunc(j.subjects, func(f subjectFilter) bool { return f.kind == k }) {
				fmt.Fprintf(b, " %s-dropped=%d", label, st.Dropped[k].Load())
			}
		}
	}
	b.WriteString(")")
}
