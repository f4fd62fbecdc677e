// Command stsparql is a command-line stSPARQL client over the synthetic
// linked-data datasets (and optional Turtle files): the interface NOA
// operators use to pose the thematic queries of Section 3.2.4.
//
//	stsparql -query 'SELECT ?m WHERE { ?m a gag:Municipality . }'
//	stsparql -load extra.ttl -query-file q.rq -format json
//	stsparql -repeat 5 -query '...'   # the geometry cache persists across runs
//	echo 'ASK { ?h a noa:Hotspot }' | stsparql
//
// Timing, result counts and geometry-cache occupancy go to stderr;
// results (table, json or tsv) go to
// stdout. All three formats render incrementally from the store's
// streaming cursor — rows are printed as the engine produces them and
// flushed every few rows, so a LIMITed query over a huge store prints
// without ever materialising the scan. -explain prints the chosen
// evaluation plan instead of executing.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/auxdata"
	"repro/internal/strabon"
)

// tableFlushRows is how often the incremental table rendering flushes
// its buffer to stdout.
const tableFlushRows = 64

func main() {
	var (
		seed      = flag.Int64("seed", 42, "synthetic world seed (0 disables world loading)")
		load      = flag.String("load", "", "optional Turtle file to load")
		query     = flag.String("query", "", "query text")
		queryFile = flag.String("query-file", "", "file holding the query")
		update    = flag.Bool("update", false, "treat the request as an update")
		explain   = flag.Bool("explain", false, "print the evaluation plan instead of executing")
		analyze   = flag.Bool("analyze", false, "execute the query and print the plan annotated with per-operator actuals (EXPLAIN ANALYZE)")
		format    = flag.String("format", "table", "result format: table, json or tsv")
		repeat    = flag.Int("repeat", 1, "evaluate the query N times (the geometry cache makes repeats cheaper)")
	)
	flag.Parse()
	if *repeat < 1 {
		*repeat = 1
	}

	// The store's geometry table serves every evaluation — across
	// -repeat runs — so a geometry literal is parsed once instead of
	// once per run. Every run parses and plans the query afresh.
	st := strabon.New()
	if *seed != 0 {
		world := auxdata.Generate(*seed)
		n := st.LoadTriples(world.AllTriples())
		fmt.Fprintf(os.Stderr, "loaded %d triples from synthetic world (seed %d)\n", n, *seed)
	}
	if *load != "" {
		src, err := os.ReadFile(*load)
		fail(err)
		n, err := st.LoadTurtle(string(src))
		fail(err)
		fmt.Fprintf(os.Stderr, "loaded %d triples from %s\n", n, *load)
	}

	q := *query
	if *queryFile != "" {
		src, err := os.ReadFile(*queryFile)
		fail(err)
		q = string(src)
	}
	if q == "" {
		src, err := io.ReadAll(os.Stdin)
		fail(err)
		q = string(src)
	}
	if q == "" {
		fmt.Fprintln(os.Stderr, "stsparql: no query given")
		os.Exit(2)
	}

	if *analyze {
		plan, err := st.ExplainAnalyze(context.Background(), q)
		fail(err)
		fmt.Print(plan)
		reportCache(st)
		return
	}
	if *explain {
		plan, err := st.Explain(q)
		fail(err)
		fmt.Print(plan)
		return
	}

	if *update {
		for i := 0; i < *repeat; i++ {
			start := time.Now()
			stats, err := st.Update(q)
			fail(err)
			fmt.Fprintf(os.Stderr, "update run %d: matched %d, deleted %d, inserted %d in %v\n",
				i+1, stats.Matched, stats.Deleted, stats.Inserted, time.Since(start).Round(time.Microsecond))
		}
		reportCache(st)
		return
	}

	// Warm-up runs stream to nowhere (a complete iteration, the paper's
	// timing protocol); the last run streams to the chosen renderer.
	for i := 0; i < *repeat; i++ {
		last := i == *repeat-1
		start := time.Now()
		cur, err := st.QueryStreamCtx(context.Background(), q)
		fail(err)
		if last {
			fail(render(cur, *format))
		} else {
			for _, ok := cur.Next(); ok; _, ok = cur.Next() {
			}
		}
		fail(cur.Close())
		fmt.Fprintf(os.Stderr, "run %d: %d rows in %v\n",
			i+1, cur.Rows(), time.Since(start).Round(time.Microsecond))
	}
	reportCache(st)
}

// render streams the cursor's rows to stdout in the requested format.
func render(cur *strabon.Cursor, format string) error {
	switch format {
	case "json":
		return renderRows(cur, strabon.NewJSONRowWriter(os.Stdout, cur.Vars()))
	case "tsv":
		return renderRows(cur, strabon.NewTSVRowWriter(os.Stdout, cur.Vars()))
	case "table":
		return renderTable(cur)
	default:
		fmt.Fprintf(os.Stderr, "stsparql: unknown format %q (want table, json or tsv)\n", format)
		os.Exit(2)
		return nil
	}
}

func renderRows(cur *strabon.Cursor, rw strabon.RowWriter) error {
	for row, ok := cur.Next(); ok; row, ok = cur.Next() {
		if err := rw.Row(row); err != nil {
			return err
		}
	}
	return rw.End()
}

// renderTable prints the fixed-width table incrementally: rows go to a
// buffered writer flushed every tableFlushRows rows, never holding more
// than one flush interval in memory.
func renderTable(cur *strabon.Cursor) error {
	w := bufio.NewWriter(os.Stdout)
	for _, v := range cur.Vars() {
		fmt.Fprintf(w, "%-40s", "?"+v)
	}
	fmt.Fprintln(w)
	n := 0
	for row, ok := cur.Next(); ok; row, ok = cur.Next() {
		for _, t := range row {
			fmt.Fprintf(w, "%-40s", truncate(t.String(), 38))
		}
		fmt.Fprintln(w)
		if n++; n%tableFlushRows == 0 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}

func reportCache(st *strabon.Store) {
	fmt.Fprintf(os.Stderr, "geometry cache: %d parsed geometries\n", st.Stats().Geometries)
}

func truncate(s string, n int) string {
	if len(s) > n {
		return s[:n-3] + "..."
	}
	return s
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "stsparql:", err)
		os.Exit(1)
	}
}
