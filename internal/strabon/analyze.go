package strabon

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/stsparql"
)

// ExplainAnalyze runs a SELECT or ASK through the query path with
// tracing on — the same routing, locks, evaluator and cursor as
// QueryStreamCtx, its operators instrumented — and renders the routing
// header (Explain's, marked "(analyze)") followed by the plan annotated
// with actuals and the output count.
func (s *Store) ExplainAnalyze(ctx context.Context, src string) (string, error) {
	q, err := s.parseQuery(ctx, src)
	if err != nil {
		return "", err
	}
	start := time.Now()
	r := s.routeQuery(src, q)
	var c *stsparql.Compiled
	var tr *stsparql.ExecTrace
	cur, err := s.open(ctx, r, func(ev *stsparql.Evaluator, compiled *stsparql.Compiled) {
		c, tr = compiled, stsparql.NewExecTrace(compiled)
		ev.SetTrace(tr)
	})
	if err != nil {
		return "", err
	}
	// Drain closes the cursor, so the trace counters are final.
	rows, verdict, err := drain(cur)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	s.writeRoute(&b, r, " (analyze)")
	b.WriteString(tr.Render(c))
	b.WriteString(total(rows, verdict, start))
	return b.String(), nil
}

// drain pulls a query cursor dry and closes it, returning the rows it
// yielded and, for an ASK, the verdict's lexical form ("true" or
// "false").
func drain(cur *Cursor) (rows int, verdict string, err error) {
	defer cur.Close()
	for row, ok := cur.Next(); ok; row, ok = cur.Next() {
		if rows++; cur.IsAsk() {
			verdict = row[0].Value
		}
	}
	return rows, verdict, cur.Close()
}

// total renders the last line of an EXPLAIN ANALYZE from what drain
// returned: the ASK verdict, or else the rows, and the time since start.
func total(rows int, verdict string, start time.Time) string {
	elapsed := time.Since(start).Round(time.Microsecond)
	if verdict != "" {
		return fmt.Sprintf("total: ask=%s time=%v\n", verdict, elapsed)
	}
	return fmt.Sprintf("total: rows=%d time=%v\n", rows, elapsed)
}
