package strabon

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/stsparql"
)

// ExplainAnalyze runs a SELECT or ASK through the query path with
// tracing on — the same routing, locks, evaluators and cursor as
// QueryStreamCtx, each evaluator's operators instrumented — and renders
// the routing header (Explain's, marked "(analyze)") followed by each
// evaluation's plan annotated with actuals and the merged output count.
func (s *Store) ExplainAnalyze(ctx context.Context, src string) (string, error) {
	q, err := s.parseQuery(ctx, src)
	if err != nil {
		return "", err
	}
	start := time.Now()
	r := s.routeQuery(src, q)
	type traced struct {
		idx int
		c   *stsparql.Compiled
		tr  *stsparql.ExecTrace
	}
	var evals []traced
	cur, err := s.open(ctx, r, func(idx int, ev *stsparql.Evaluator, c *stsparql.Compiled) {
		tr := stsparql.NewExecTrace(c)
		ev.SetTrace(tr)
		evals = append(evals, traced{idx, c, tr})
	})
	if err != nil {
		return "", err
	}
	// Drain closes the cursor, and a fan-out's Close waits for its
	// workers, so the trace counters are final.
	rows, verdict, err := drain(cur)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	s.writeRoute(&b, r, " (analyze)")
	for i, e := range evals {
		switch {
		case e.idx < 0:
			b.WriteString(e.tr.Render(e.c))
			continue
		case cur.IsAsk():
			// Shards answer in order until one says yes: only the last
			// one evaluated can.
			fmt.Fprintf(&b, "  shard[%d]: ask=%v\n", e.idx, i == len(evals)-1 && verdict == "true")
		default:
			fmt.Fprintf(&b, "  shard[%d]:\n", e.idx)
		}
		b.WriteString(indentLines(e.tr.Render(e.c), "  "))
	}
	if r.fp != nil && len(evals) > 0 {
		fmt.Fprintf(&b, "merge[%s]: rows=%d\n", r.fp.mode, rows)
	}
	b.WriteString(total(rows, verdict, start))
	return b.String(), nil
}

// indentLines prefixes every non-empty line of s.
func indentLines(s, prefix string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if line == "" {
			continue
		}
		b.WriteString(prefix)
		b.WriteString(line)
	}
	return b.String()
}

// drain pulls a query cursor dry and closes it, returning the rows it
// yielded and, for an ASK, the verdict's lexical form ("true" or
// "false").
func drain(cur QueryCursor) (rows int, verdict string, err error) {
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
