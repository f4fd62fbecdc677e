package shard

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/products"
)

// BenchmarkShardedQueries compares the query cost of one slice and four
// on the paper's dominant workload shape — "hotspots in acquisition
// window X" joined against reference data — beside a writer appending
// acquisitions to the live slice. The write is issued from the loop,
// one before every query, so allocs/op repeats exactly (CI gates it).
// At four slices the historical window prunes to one slice that no
// write touches: the query reads, and read-locks, the static member and
// that slice only.
func BenchmarkShardedQueries(b *testing.B) {
	q := `SELECT ?h ?m WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?hg .
  ?m a gag:Municipality ; strdf:hasGeometry ?mg .
  FILTER( str(?at) >= "2007-08-25T00:00:00" )
  FILTER( str(?at) <= "2007-08-25T00:59:00" )
  FILTER( strdf:anyInteract(?hg, ?mg) )
}`
	for _, tc := range []struct {
		name string
		mk   func() *Store
	}{
		{"sharded1", func() *Store {
			return New(Config{Slices: 1, Width: time.Hour, Epoch: day})
		}},
		{"sharded4", func() *Store {
			return New(Config{Slices: 4, Width: time.Hour, Epoch: day})
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			st := tc.mk()
			loadBenchStore(st)
			rows := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := day.Add(13*time.Hour + time.Duration(i)*5*time.Minute)
				p := &products.Product{Sensor: "MSG1", Chain: "bench", AcquiredAt: at}
				p.Hotspots = append(p.Hotspots, products.Hotspot{
					ID: fmt.Sprintf("w%d", i), Geometry: geom.NewSquare(3, 5, 0.5),
					Confidence: 1.0, AcquiredAt: at, Sensor: "MSG1", Chain: "bench", Producer: "noa",
				})
				st.InsertAll(p.Triples())
				res, err := runQuery(st, q)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) == 0 {
					b.Fatal("windowed query returned no rows")
				}
				rows = len(res.Rows)
			}
			b.ReportMetric(float64(rows), "rows/req")
		})
	}
}

// BenchmarkOrderedWindowJoin is the heavy cold request of the serving
// benchmark: a four-hour window join against the municipalities, ordered,
// over all four slices — new text every time, so it pays parse, plan,
// scans and the order operator of one evaluation over the static member
// and the four slices. The cursor is drained row by row, as the
// endpoint's encoder drains it.
func BenchmarkOrderedWindowJoin(b *testing.B) {
	st := New(Config{Slices: 4, Width: time.Hour, Epoch: day})
	loadBenchStore(st)
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := day.Add(time.Duration(i%60) * time.Second)
		text := fmt.Sprintf(`SELECT ?h ?m WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?hg .
  ?m a gag:Municipality ; strdf:hasGeometry ?mg .
  FILTER( str(?at) >= "%s" )
  FILTER( str(?at) <= "%s" )
  FILTER( strdf:anyInteract(?hg, ?mg) )
}
ORDER BY ?h ?m`, lo.Format("2006-01-02T15:04:05"), lo.Add(4*time.Hour).Format("2006-01-02T15:04:05"))
		cur, err := st.QueryStreamCtx(context.Background(), text)
		if err != nil {
			b.Fatal(err)
		}
		rows = 0
		for _, ok := cur.Next(); ok; _, ok = cur.Next() {
			rows++
		}
		if err := cur.Close(); err != nil {
			b.Fatal(err)
		}
		if rows == 0 {
			b.Fatal("window join returned no rows")
		}
	}
	b.ReportMetric(float64(rows), "rows/req")
}

// loadBenchStore loads the reference data and twelve hours of
// quarter-hourly acquisitions, six hotspots each.
func loadBenchStore(st *Store) {
	st.LoadTriples(staticTriples())
	for i := 0; i < 12*4; i++ {
		at := day.Add(time.Duration(i) * 15 * time.Minute)
		p := &products.Product{Sensor: "MSG1", Chain: "bench", AcquiredAt: at}
		for j := 0; j < 6; j++ {
			p.Hotspots = append(p.Hotspots, products.Hotspot{
				ID:         fmt.Sprintf("b%d_%d", i, j),
				Geometry:   geom.NewSquare(float64((i+5*j)%19)+0.5, 5, 0.5),
				Confidence: 0.5 + 0.5*float64((i+j)%2),
				AcquiredAt: at, Sensor: "MSG1", Chain: "bench", Producer: "noa",
			})
		}
		st.InsertAll(p.Triples())
	}
}
