package strabon

import (
	"context"
	"fmt"
	"time"

	"repro/internal/stsparql"
)

// ExplainAnalyze runs a SELECT or ASK through the query path with
// tracing on and renders the plan tree annotated with per-operator
// actuals (rows out, batches, cumulative wall time) next to the
// optimizer's estimates — EXPLAIN ANALYZE. The evaluation is the
// query's own: the same read lock, the same compiled plan (plan cache
// included) and the same cursor, drained under ctx.
func (s *Store) ExplainAnalyze(ctx context.Context, src string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	var tr *stsparql.ExecTrace
	var c *stsparql.Compiled
	start := time.Now()
	cur, err := s.queryStream(ctx, src, func(ev *stsparql.Evaluator, compiled *stsparql.Compiled) {
		c, tr = compiled, stsparql.NewExecTrace(compiled)
		ev.SetTrace(tr)
	})
	if err != nil {
		return "", err
	}
	rows, verdict, err := Drain(cur)
	if err != nil {
		return "", err
	}
	form := "select"
	if cur.IsAsk() {
		form = "ask"
	}
	return fmt.Sprintf("%s (analyze)\n%s%s", form, tr.Render(c), Total(rows, verdict, start)), nil
}

// Drain pulls a query cursor dry and closes it, returning the rows it
// yielded and, for an ASK, the verdict's lexical form ("true" or
// "false"). Both stores' ExplainAnalyze count their totals with it.
func Drain(cur QueryCursor) (rows int, verdict string, err error) {
	defer cur.Close()
	for row, ok := cur.Next(); ok; row, ok = cur.Next() {
		if rows++; cur.IsAsk() {
			verdict = row[0].Value
		}
	}
	return rows, verdict, cur.Close()
}

// Total renders the last line of an EXPLAIN ANALYZE from what Drain
// returned: the ASK verdict, or else the rows, and the time since start.
func Total(rows int, verdict string, start time.Time) string {
	elapsed := time.Since(start).Round(time.Microsecond)
	if verdict != "" {
		return fmt.Sprintf("total: ask=%s time=%v\n", verdict, elapsed)
	}
	return fmt.Sprintf("total: rows=%d time=%v\n", rows, elapsed)
}
