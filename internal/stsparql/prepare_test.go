package stsparql

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/rdf"
)

// persistenceStore holds 480 hotspots on 24 pixels, one sighting of
// every pixel each 5 minutes from 10:00 — the history Time
// Persistence's reinstatement query groups.
func persistenceStore() *rdf.Store {
	s := rdf.NewStore()
	t0 := time.Date(2007, 8, 24, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 480; i++ {
		h := iri(fmt.Sprintf("%sHotspot_%d", noaNS, i))
		x := i % 24
		s.Add(rdf.Triple{S: h, P: iri(rdf.RDFType), O: iri(noaNS + "Hotspot")})
		s.Add(rdf.Triple{S: h, P: iri(noaNS + "hasAcquisitionDateTime"),
			O: rdf.NewDateTime(t0.Add(time.Duration(i/24) * 5 * time.Minute).Format("2006-01-02T15:04:05"))})
		s.Add(rdf.Triple{S: h, P: iri(strdfNS + "hasGeometry"),
			O: rdf.NewGeometry(fmt.Sprintf("POLYGON ((%d 0, %d 0, %d 1, %d 1, %d 0))", x, x+1, x+1, x, x))})
	}
	return s
}

// BenchmarkPreparedGroupedSelect runs a prepared grouped SELECT over a
// seed row, shaped like refine's reinstatement query: an hour's window
// of 288 sightings grouped into 24 pixels, HAVING on a seeded
// threshold, DISTINCT over the groups. The aggregate operator, seed
// encoding and materialisation all show in its allocs/op, which CI
// gates (scripts/check_streamed_allocs.sh).
func BenchmarkPreparedGroupedSelect(b *testing.B) {
	p, err := Prepare(`
SELECT DISTINCT ?hGeo (COUNT(?h) AS ?n)
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?hAt ;
     strdf:hasGeometry ?hGeo .
  FILTER( str(?hAt) >= ?since )
  FILTER( str(?hAt) < ?now )
}
GROUP BY ?hGeo
HAVING (COUNT(?h) >= ?min)`, nil, "since", "now", "min")
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(persistenceStore())
	seed := []Row{{ // ?since ?now ?min
		rdf.NewLiteral("2007-08-24T10:30:00"),
		rdf.NewLiteral("2007-08-24T11:30:00"),
		rdf.NewInteger(3),
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ev.SelectPrepared(p, seed)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 24 {
			b.Fatalf("%d groups, want 24", len(res.Rows))
		}
	}
}
