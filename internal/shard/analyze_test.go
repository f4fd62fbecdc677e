package shard

import (
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

const analyzeWindowSelect = `
SELECT ?h ?g WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?g .
  FILTER( str(?at) >= "2007-08-25T10:00:00" )
  FILTER( str(?at) <= "2007-08-25T11:45:00" )
}`

// drainCount runs a query through the ordinary routed path and counts
// rows — the reference ExplainAnalyze's totals must agree with.
func drainCount(t *testing.T, sh *Store, q string) int {
	t.Helper()
	cur, err := sh.QueryStreamCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	n := 0
	for _, ok := cur.Next(); ok; _, ok = cur.Next() {
		n++
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestShardExplainAnalyzeFanout(t *testing.T) {
	sh := newSharded(4)
	loadFixture(sh)

	want := drainCount(t, sh, analyzeWindowSelect)
	if want == 0 {
		t.Fatal("fixture query returned no rows")
	}
	out, err := sh.ExplainAnalyze(context.Background(), analyzeWindowSelect)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{
		"shard fan-out:", "(analyze)", "shard[", "actual rows=", "merge[",
	} {
		if !strings.Contains(out, sub) {
			t.Errorf("analyze output lacks %q:\n%s", sub, out)
		}
	}
	// The window spans two hour-buckets: both shards report a section.
	if n := strings.Count(out, "  shard["); n != 2 {
		t.Errorf("got %d shard sections, want 2:\n%s", n, out)
	}
	if !strings.Contains(out, "merge[concat]: rows="+itoa(want)) {
		t.Errorf("merge count disagrees with QueryStream drain (%d rows):\n%s", want, out)
	}
	if !strings.Contains(out, "total: rows="+itoa(want)) {
		t.Errorf("total disagrees with QueryStream drain (%d rows):\n%s", want, out)
	}

	// The analyze run released every lock: a write must go through.
	if _, err := sh.Update(`INSERT DATA { noa:extra a noa:Hotspot . }`); err != nil {
		t.Fatal(err)
	}
}

// TestShardExplainAnalyzeMatchesStream holds EXPLAIN ANALYZE to the
// query path on every corpus text at 1, 2 and 4 slices: its total is
// what QueryStreamCtx yields, and its header is Explain's routing line
// marked "(analyze)".
func TestShardExplainAnalyzeMatchesStream(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		sh := newSharded(n)
		loadFixture(sh)
		check := func(name, text, total string) {
			plan, err := sh.Explain(text)
			if err != nil {
				t.Fatalf("%s on sharded%d: %v", name, n, err)
			}
			out, err := sh.ExplainAnalyze(context.Background(), text)
			if err != nil {
				t.Fatalf("%s on sharded%d: %v", name, n, err)
			}
			planHead, _, _ := strings.Cut(plan, "\n")
			outHead, _, _ := strings.Cut(out, "\n")
			if outHead != planHead+" (analyze)" {
				t.Errorf("%s on sharded%d: analyze header %q, Explain header %q", name, n, outHead, planHead)
			}
			if !strings.Contains(out, "\n"+total+" time=") {
				t.Errorf("%s on sharded%d: want %q, the query path's count:\n%s", name, n, total, out)
			}
		}
		for _, c := range corpus {
			check(c.name, c.query, "total: rows="+itoa(drainCount(t, sh, c.query)))
		}
		for _, c := range askCorpus {
			res, err := runQuery(sh, c.query)
			if err != nil {
				t.Fatal(err)
			}
			check(c.name, c.query, "total: ask="+res.Rows[0][0].Value)
		}
	}
}

func TestShardExplainAnalyzeUnionFallback(t *testing.T) {
	sh := newSharded(4)
	loadFixture(sh)

	// Static-only data carries no slice-classed pattern, so routing
	// falls back to the single traced evaluation over the union view.
	q := `SELECT ?m WHERE { ?m a gag:Municipality . }`
	want := drainCount(t, sh, q)
	out, err := sh.ExplainAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shard union: single evaluation over static+4 slices (analyze)") {
		t.Errorf("no union header:\n%s", out)
	}
	if !strings.Contains(out, "actual rows=") || !strings.Contains(out, "total: rows="+itoa(want)) {
		t.Errorf("union analyze totals wrong (want %d rows):\n%s", want, out)
	}
}

func TestShardExplainAnalyzeAsk(t *testing.T) {
	sh := newSharded(4)
	loadFixture(sh)

	out, err := sh.ExplainAnalyze(context.Background(), `
ASK {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  FILTER( str(?at) = "2007-08-25T10:00:00" )
}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"merge=ask (analyze)", "shard[", "ask=true", "total: ask=true"} {
		if !strings.Contains(out, sub) {
			t.Errorf("ask analyze output lacks %q:\n%s", sub, out)
		}
	}
}

func TestShardExplainAnalyzeEmptyWindow(t *testing.T) {
	sh := newSharded(4)
	loadFixture(sh)

	out, err := sh.ExplainAnalyze(context.Background(), `
SELECT ?h WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  FILTER( str(?at) >= "2007-08-26T00:00:00" )
  FILTER( str(?at) <= "2007-08-26T00:30:00" )
}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "total: rows=0") {
		t.Errorf("day-after window should yield no rows:\n%s", out)
	}
}

func TestShardExplainAnalyzeRejectsUpdate(t *testing.T) {
	sh := newSharded(2)
	if _, err := sh.ExplainAnalyze(context.Background(), `INSERT DATA { noa:x a noa:Hotspot . }`); err == nil {
		t.Fatal("update accepted by ExplainAnalyze")
	}
}

// spatialJoinFourSlices is the corpus' spatial join widened to every
// acquisition of the fixture day: with four hour-wide slices it fans out
// to all of them.
const spatialJoinFourSlices = `
SELECT ?h ?m WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?hg .
  ?m a gag:Municipality ; strdf:hasGeometry ?mg .
  FILTER( str(?at) >= "2007-08-25T10:00:00" )
  FILTER( str(?at) <= "2007-08-25T13:45:00" )
  FILTER( strdf:anyInteract(?hg, ?mg) )
}`

var (
	analyzedRows = regexp.MustCompile(`\(actual rows=(\d+) `)
	classDropped = regexp.MustCompile(` class-dropped=(\d+)\)`)
)

// TestSpatialJoinChecksTypeBeforeGeometry reads the planner's ordering
// rule off the executed plan: the window join checks its candidates'
// class against the `?m a gag:Municipality` pattern's subject sets, so
// every row it stages passes the type probe that still follows it, and
// the exact anyInteract test directly behind the probe sees only
// municipalities — the same rows whatever the topology, summed over a
// fan-out's sections (the window itself drops fewer candidates the
// fewer slices a section's view holds).
func TestSpatialJoinChecksTypeBeforeGeometry(t *testing.T) {
	stores := map[string]*Store{}
	for _, n := range []int{1, 2, 4} {
		sh := newSharded(n)
		loadFixture(sh)
		stores["sharded"+itoa(n)] = sh
	}
	for name, text := range map[string]string{"one-acquisition": corpusQuery("spatial-join-municipality"), "four-slices": spatialJoinFourSlices} {
		wantTyped := -1
		for _, topo := range []string{"sharded1", "sharded2", "sharded4"} {
			out, err := stores[topo].ExplainAnalyze(context.Background(), text)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, topo, err)
			}
			if name == "four-slices" && topo == "sharded4" && !strings.Contains(out, "shard fan-out: 4/4 slices") {
				t.Fatalf("the four-slice text does not fan out to four slices:\n%s", out)
			}
			var window, dropped, typed, tested int
			prev := ""
			for _, line := range strings.Split(out, "\n") {
				m := analyzedRows.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				n, _ := strconv.Atoi(m[1])
				switch {
				case strings.Contains(line, "join[window class=<http://teleios.di.uoa.gr/ontologies/gagOntology.owl#Municipality>]"):
					window += n
					if d := classDropped.FindStringSubmatch(line); d != nil {
						k, _ := strconv.Atoi(d[1])
						dropped += k
					}
					prev = "window"
				case strings.Contains(line, "gagOntology.owl#Municipality>}"):
					if prev != "window" {
						t.Errorf("%s on %s: the type probe does not follow the window join:\n%s", name, topo, out)
					}
					typed += n
					prev = "type"
				case strings.Contains(line, "strdf:anyinteract"):
					if prev != "type" {
						t.Errorf("%s on %s: the exact test does not follow the type probe:\n%s", name, topo, out)
					}
					tested += n
					prev = "filter"
				default:
					prev = ""
				}
			}
			if typed == 0 || typed != window || dropped == 0 {
				t.Errorf("%s on %s: the window staged %d rows and dropped %d, %d passed the type probe: want every staged row typed and some dropped\n%s", name, topo, window, dropped, typed, out)
			}
			if wantTyped < 0 {
				wantTyped = typed
			}
			if typed != wantTyped || tested > typed {
				t.Errorf("%s on %s: %d rows reach the exact test and %d pass, the one-slice store sends %d", name, topo, typed, tested, wantTyped)
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
