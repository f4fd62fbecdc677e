package stsparql

import "fmt"

// Compiled is a parsed query together with its physical plan. Plan
// nodes are immutable (all per-execution state lives in iterators and
// in the evaluator's per-evaluation memos), so one Compiled may be run
// repeatedly and concurrently against the unchanged source it was
// compiled for. A sub-select's solutions are kept for one evaluation
// only; nothing is kept between runs.
type Compiled struct {
	Query *Query
	sel   *selectPlan
	ask   *groupPlan
}

// explain renders the compiled plan's operators, indented under the
// select/ask line EXPLAIN opens with.
func (c *Compiled) explain(b *planText) {
	switch {
	case c.sel != nil:
		c.sel.explain(b, "  ")
	case c.ask != nil:
		c.ask.explain(b, "  ")
	}
}

// IsSelect reports whether the compiled query is a SELECT.
func (c *Compiled) IsSelect() bool { return c.sel != nil }

// IsAsk reports whether the compiled query is an ASK.
func (c *Compiled) IsAsk() bool { return c.ask != nil }

// Compile plans a parsed query against this evaluator's source. Update
// requests carry no plan (their WHERE phase is planned at execution
// time, against the pre-update state).
func (e *Evaluator) Compile(q *Query) *Compiled {
	c := &Compiled{Query: q}
	switch {
	case q.Select != nil:
		c.sel = e.newPlanner().planSelect(q.Select, false)
	case q.Ask != nil:
		c.ask = e.newPlanner().planGroupRoot(q.Ask.Where, false)
	}
	return c
}

// RunCompiled opens a cursor over a compiled SELECT.
func (e *Evaluator) RunCompiled(c *Compiled) (Cursor, error) {
	if c.sel == nil {
		return nil, fmt.Errorf("stsparql: RunCompiled wants a SELECT")
	}
	e.begin(nil, unitSeed)
	it, vars := c.sel.open(e, nil, unitSeed)
	return &planCursor{it: it, vars: vars}, nil
}

// AskCompiled evaluates a compiled ASK, stopping at the first solution.
func (e *Evaluator) AskCompiled(c *Compiled) (bool, error) {
	if c.ask == nil {
		return false, fmt.Errorf("stsparql: AskCompiled wants an ASK")
	}
	e.begin(nil, unitSeed)
	it := c.ask.open(e, seedIter(e.dict, c.ask.schema, nil, unitSeed))
	defer it.close()
	b, err := nextLive(it)
	return b != nil, err
}

// PlanCacheStats is what (*strabon.Store).PlanStats reports: always the
// zero value, since no plan is kept between evaluations. Only the
// frozen benchmark harness still reads it; ROADMAP step 8(6) deletes
// it together with that caller.
type PlanCacheStats struct {
	Hits, Misses uint64
}
