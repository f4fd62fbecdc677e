package strabon

import (
	"slices"
	"testing"

	"repro/internal/rdf"
	"repro/internal/stsparql"
)

// TestUpdateEffectInStoreIDs holds the write path's encoded apply to its
// contract, through Store.Update and through a rule applied inside
// ApplyFlush: an insert's term that the WHERE clause computed and the
// dictionary never held is interned once, however many triples carry
// it, and reads back as one term; a delete naming a term the store
// never saw deletes nothing, interns nothing and moves no generation.
func TestUpdateEffectInStoreIDs(t *testing.T) {
	const (
		// Both hotspots get the one literal a sub-select computes: the
		// text of the coastline's IRI, which no triple carries.
		insert = `INSERT { ?h noa:hasTag ?tag }
WHERE { ?h a noa:Hotspot . { SELECT (str(?c) AS ?tag) WHERE { ?c a coast:Coastline } } }`
		deleteUnseen = `DELETE DATA { noa:Hotspot_1 noa:hasConfidence "never stored" }`
	)
	tag := rdf.NewLiteral("http://teleios.di.uoa.gr/ontologies/coastlineOntology.owl#Coastline_1")
	paths := map[string]func(t *testing.T, s *Store, text string) stsparql.UpdateStats{
		"Update": func(t *testing.T, s *Store, text string) stsparql.UpdateStats {
			st, err := s.Update(text)
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
		"ApplyFlush": func(t *testing.T, s *Store, text string) stsparql.UpdateStats {
			rule, err := stsparql.Prepare(text, s.Namespaces())
			if err != nil {
				t.Fatal(err)
			}
			var st stsparql.UpdateStats
			err = s.ApplyFlush(Flush{}, func(tx *FlushTx) error {
				plan, err := tx.Plan(rule, []stsparql.Row{{}})
				if err == nil {
					st = tx.Apply(plan)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
	}
	gens := func(s *Store) []uint64 {
		var out []uint64
		for _, sh := range s.ShardStats() {
			out = append(out, sh.Gen)
		}
		return out
	}
	for name, apply := range paths {
		t.Run(name, func(t *testing.T) {
			s := New()
			if _, err := s.LoadTurtle(fixtureTurtle); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.dict.Lookup(tag); ok {
				t.Fatal("the fixture already holds the computed literal: the test exercises nothing")
			}

			entries, _ := s.DictStats()
			if st := apply(t, s, insert); st.Matched != 2 || st.Inserted != 2 || st.Deleted != 0 {
				t.Fatalf("insert: %+v, want 2 matched, 2 inserted", st)
			}
			// The template's new predicate and the computed literal, each
			// interned once.
			if n, _ := s.DictStats(); n != entries+2 {
				t.Fatalf("insert: the dictionary grew by %d terms, want 2", n-entries)
			}
			res, err := runQuery(s, `SELECT DISTINCT ?tag WHERE { ?h noa:hasTag ?tag }`)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || !res.Rows[0][0].Equal(tag) {
				t.Fatalf("the inserted tags read back as %v, want the one term %s", res.Rows, tag)
			}

			entries, bytes := s.DictStats()
			before := gens(s)
			if st := apply(t, s, deleteUnseen); st.Deleted != 0 || st.Inserted != 0 {
				t.Fatalf("delete of an unseen term: %+v, want nothing deleted", st)
			}
			if n, b := s.DictStats(); n != entries || b != bytes {
				t.Fatalf("delete of an unseen term: the dictionary went from %d terms (%d B) to %d (%d B)", entries, bytes, n, b)
			}
			if after := gens(s); !slices.Equal(after, before) {
				t.Fatalf("delete of an unseen term: generations moved from %v to %v", before, after)
			}
		})
	}
}
