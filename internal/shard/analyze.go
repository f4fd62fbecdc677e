package shard

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/strabon"
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
	rows, verdict, err := strabon.Drain(cur)
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
	b.WriteString(strabon.Total(rows, verdict, start))
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
