package shard

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/products"
	"repro/internal/rdf"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// TestWindowNarrowingKeepsCrossMemberSubjects holds a window scan that
// searches only the members its fixed filters leave (WindowSkip) to the
// capability-free engine, on 1, 2 and 4 slices, in the three cases where
// a member's own class set would mislead it: a subject typed in the
// static store whose geometry lies in a slice, a flush overlay that
// re-adds a geometry privately for a subject typed in the base, and an
// overlay that deletes the type of an in-window subject.
func TestWindowNarrowingKeepsCrossMemberSubjects(t *testing.T) {
	mun3 := "<http://example.org/mun3>"
	inWindow := "<" + products.HotspotURI(fixtureProducts()[4].Hotspots[0]) + ">"
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("sharded%d", n), func(t *testing.T) {
			split := newSharded(n)
			loadFixture(split)
			for _, g := range crossMemberSubject() {
				split.InsertAll(g)
			}
			flat := flatCopy(t, split)
			for name, text := range classWindowQueries {
				got, err := runQuery(split, text)
				if err != nil {
					t.Fatal(err)
				}
				compareWindowRows(t, "cross-member store: "+name, renderSorted(got), referenceRows(t, flat, text))
			}
			out, err := split.ExplainAnalyze(context.Background(), classWindowQueries["municipality-four-slices"])
			if err != nil {
				t.Fatal(err)
			}
			if c := windowCounts.FindStringSubmatch(out); c == nil || c[1] != "2" {
				t.Errorf("the municipality window should search the static member and the slice holding the cross-member geometry:\n%s", out)
			}

			checkNarrowedOverlay(t, n, "re-added geometry", `DELETE { <http://example.org/mun2> strdf:hasGeometry ?g }
INSERT { <http://example.org/mun2> strdf:hasGeometry "POLYGON ((10 0, 15 0, 15 7, 10 7, 10 0))"^^strdf:WKT }
WHERE { <http://example.org/mun2> strdf:hasGeometry ?g . }`, "m=<http://example.org/mun2>", "")
			checkNarrowedOverlay(t, n, "deleted types", `DELETE { `+mun3+` a gag:Municipality . `+inWindow+` a noa:Hotspot }
WHERE { `+mun3+` a gag:Municipality . `+inWindow+` a noa:Hotspot }`, "", "m="+mun3)
		})
	}
}

// applyUpdate plans q over the flat copy s and applies the plan to it,
// deletes before inserts.
func applyUpdate(s *rdf.Store, q *stsparql.UpdateQuery) (stsparql.UpdateStats, error) {
	plan, err := stsparql.NewEvaluator(s).PlanUpdate(q)
	if err != nil {
		return stsparql.UpdateStats{}, err
	}
	stats := stsparql.UpdateStats{Matched: plan.Matched}
	for _, t := range plan.DeleteIDs() {
		if s.RemoveEncoded(t) {
			stats.Deleted++
		}
	}
	for _, t := range plan.InsertIDs() {
		if s.AddEncoded(t) {
			stats.Inserted++
		}
	}
	return stats, nil
}

// checkNarrowedOverlay applies update inside a flush on a fresh n-slice
// store and its flat copy, then compares every class-window query over
// the overlay with the capability-free engine over the copy; some row
// must contain keep and none drop. The flush is discarded.
func checkNarrowedOverlay(t *testing.T, n int, name, update, keep, drop string) {
	t.Helper()
	sh := newSharded(n)
	loadFixture(sh)
	flat := flatCopy(t, sh)
	prepare := func(src string) *stsparql.Prepared {
		p, err := stsparql.Prepare(src, sh.Namespaces())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	q, err := stsparql.Parse(update, sh.Namespaces())
	if err != nil {
		t.Fatal(err)
	}
	res, err := applyUpdate(flat, q.Update)
	if err != nil || res.Deleted == 0 {
		t.Fatalf("%s: the reference copy took %+v (%v)", name, res, err)
	}
	noSeed := []stsparql.Row{{}}
	err = sh.ApplyFlush(strabon.Flush{At: []time.Time{day.Add(13 * time.Hour)}, Since: day}, func(tx *strabon.FlushTx) error {
		plan, err := tx.Plan(prepare(update), noSeed)
		if err != nil {
			return err
		}
		if st := tx.Apply(plan); st != res {
			t.Fatalf("%s: the overlay took %+v, the reference copy %+v", name, st, res)
		}
		var kept bool
		for qname, text := range classWindowQueries {
			got, err := tx.Select(prepare(text), noSeed)
			if err != nil {
				return err
			}
			rows := renderSorted(got)
			compareWindowRows(t, name+" overlay: "+qname, rows, referenceRows(t, flat, text))
			joined := strings.Join(rows, "\n")
			kept = kept || keep != "" && strings.Contains(joined, keep)
			if drop != "" && strings.Contains(joined, drop) {
				t.Errorf("%s overlay: %s still finds %s:\n%s", name, qname, drop, joined)
			}
		}
		if keep != "" && !kept {
			t.Errorf("%s overlay: no window query finds %s", name, keep)
		}
		return errDiscard
	})
	if err != errDiscard {
		t.Fatalf("%s: ApplyFlush = %v, want the discarding rules' error", name, err)
	}
}

// compareWindowRows fails unless got equals want, the reference's rows,
// and want shows something (optional-coast may find no coastline).
func compareWindowRows(t *testing.T, where string, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s: rows differ from the reference's:\n got  %v\n want %v", where, got, want)
	}
	if len(want) == 0 && !strings.HasSuffix(where, "optional-coast") {
		t.Errorf("%s: no rows; the comparison shows nothing", where)
	}
}
