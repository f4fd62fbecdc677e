// Package repro holds the benchmark harness regenerating the paper's
// evaluation (Section 4): one benchmark per table and figure, plus the
// ablation benchmarks for the design choices called out in DESIGN.md.
// Run with:
//
//	go test -bench=. -benchmem
//
// The per-iteration workloads are scaled-down versions of the paper's
// full runs; cmd/benchtables runs the full-scale protocols and prints the
// paper-style tables.
package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/auxdata"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hrit"
	"repro/internal/rdf"
	"repro/internal/refine"
	"repro/internal/seviri"
	"repro/internal/strabon"
	"repro/internal/vault"
)

// --- Table 1: thematic accuracy protocol ---

// BenchmarkTable1Protocol times one full accuracy evaluation day:
// MSG servicing inside the MODIS merge windows plus the overlay protocol.
func BenchmarkTable1Protocol(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(42, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2: per-image chain processing times ---

func table2Setup(b *testing.B) (*core.Service, *vault.Vault, []time.Time) {
	b.Helper()
	cfg := seviri.DefaultScenarioConfig()
	cfg.Start = time.Date(2010, 8, 22, 0, 0, 0, 0, time.UTC)
	cfg.Days = 1
	svc, err := core.NewService(42, cfg)
	if err != nil {
		b.Fatal(err)
	}
	v := vault.New(64)
	times := seviri.AcquisitionTimes(seviri.MSG1, cfg.Start.Add(10*time.Hour), 15*time.Minute)
	for _, at := range times {
		acq, err := svc.Sim.Acquire(seviri.MSG1, at, 4, true)
		if err != nil {
			b.Fatal(err)
		}
		if err := core.IngestAcquisition(v, acq); err != nil {
			b.Fatal(err)
		}
	}
	return svc, v, times
}

// BenchmarkTable2LegacyChain times the imperative baseline per image.
func BenchmarkTable2LegacyChain(b *testing.B) {
	svc, v, times := table2Setup(b)
	chain := core.NewLegacyChain(v, svc.Sim.Transform())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chain.Process("MSG1", times[i%len(times)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2SciQLChain times the declarative SciQL chain per image.
func BenchmarkTable2SciQLChain(b *testing.B) {
	svc, v, times := table2Setup(b)
	chain := core.NewSciQLChain(v, svc.Sim.Transform())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chain.Process("MSG1", times[i%len(times)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 8: refinement operation response times ---

func figure8Setup(b *testing.B) (*core.Service, *refine.Runner, []*core.AcquisitionReport) {
	b.Helper()
	cfg := seviri.DefaultScenarioConfig()
	cfg.Days = 1
	svc, err := core.NewService(42, cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-load an archive so the store resembles the paper's multi-year
	// hotspot collection.
	from := cfg.Start.Add(11 * time.Hour)
	if err := svc.RunWindow(seviri.MSG1, from, 30*time.Minute); err != nil {
		b.Fatal(err)
	}
	return svc, svc.Refiner, nil
}

// benchRefineOp times one refinement operation against a stored product.
func benchRefineOp(b *testing.B, run func(*refine.Runner, *core.Service, time.Time) error) {
	svc, runner, _ := figure8Setup(b)
	at := svc.PlainProducts[len(svc.PlainProducts)-1].AcquiredAt
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(runner, svc, at); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8Municipalities times the paper's slowest operation.
func BenchmarkFigure8Municipalities(b *testing.B) {
	benchRefineOp(b, func(r *refine.Runner, svc *core.Service, at time.Time) error {
		_, err := r.Municipalities(svc.PlainProducts[len(svc.PlainProducts)-1])
		return err
	})
}

// BenchmarkFigure8DeleteInSea times the sea-hotspot deletion update.
func BenchmarkFigure8DeleteInSea(b *testing.B) {
	benchRefineOp(b, func(r *refine.Runner, svc *core.Service, at time.Time) error {
		_, err := r.DeleteInSea(svc.PlainProducts[len(svc.PlainProducts)-1])
		return err
	})
}

// BenchmarkFigure8InvalidForFires times the land-cover consistency update.
func BenchmarkFigure8InvalidForFires(b *testing.B) {
	benchRefineOp(b, func(r *refine.Runner, svc *core.Service, at time.Time) error {
		_, err := r.InvalidForFires(svc.PlainProducts[len(svc.PlainProducts)-1])
		return err
	})
}

// BenchmarkFigure8RefineInCoast times the coastline clipping update.
func BenchmarkFigure8RefineInCoast(b *testing.B) {
	benchRefineOp(b, func(r *refine.Runner, svc *core.Service, at time.Time) error {
		_, err := r.RefineInCoast(svc.PlainProducts[len(svc.PlainProducts)-1])
		return err
	})
}

// BenchmarkFigure8TimePersistence times the persistence heuristic.
func BenchmarkFigure8TimePersistence(b *testing.B) {
	benchRefineOp(b, func(r *refine.Runner, svc *core.Service, at time.Time) error {
		_, err := r.TimePersistence(svc.PlainProducts[len(svc.PlainProducts)-1])
		return err
	})
}

// BenchmarkFigure8Store times product RDF-ization + bulk load.
func BenchmarkFigure8Store(b *testing.B) {
	svc, runner, _ := figure8Setup(b)
	p := svc.PlainProducts[len(svc.PlainProducts)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.StoreProduct(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 2/6/7: map generation ---

// BenchmarkFigure6ThematicMap times the five-query overlay map build.
func BenchmarkFigure6ThematicMap(b *testing.B) {
	svc, _, err := experiments.CollectProducts(42, 10*time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	window := auxdata.Region
	from := time.Date(2007, 8, 24, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := experiments.Figure6(svc, window, from, from.Add(24*time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		if len(m.SVG(800)) == 0 {
			b.Fatal("empty SVG")
		}
	}
}

// --- Ablations (DESIGN.md section 4) ---

// BenchmarkAblationRTreeOn measures the spatial join with index pruning.
func BenchmarkAblationRTreeOn(b *testing.B) {
	benchSpatialJoin(b, strabon.New())
}

// BenchmarkAblationRTreeOff measures the same join with full scans.
func BenchmarkAblationRTreeOff(b *testing.B) {
	benchSpatialJoin(b, strabon.NewWithoutIndex())
}

func benchSpatialJoin(b *testing.B, st *strabon.Store) {
	b.Helper()
	world := auxdata.Generate(42)
	st.LoadTriples(world.AllTriples())
	// One hotspot joined against every municipality.
	st.LoadTriples([]rdf.Triple{
		{S: rdf.NewIRI("http://e/h1"), P: rdf.NewIRI(rdf.RDFType),
			O: rdf.NewIRI("http://teleios.di.uoa.gr/ontologies/noaOntology.owl#Hotspot")},
		{S: rdf.NewIRI("http://e/h1"),
			P: rdf.NewIRI("http://strdf.di.uoa.gr/ontology#hasGeometry"),
			O: rdf.NewGeometry("POLYGON ((22.3 38.3, 22.34 38.3, 22.34 38.34, 22.3 38.34, 22.3 38.3))")},
	})
	q := `
SELECT ?m WHERE {
  ?h a noa:Hotspot ; strdf:hasGeometry ?hg .
  ?m a gag:Municipality ; strdf:hasGeometry ?mg .
  FILTER( strdf:anyInteract(?hg, ?mg) )
}`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strabon.MaterialiseQuery(context.Background(), st, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWindowSAT measures the summed-area-table window mean.
func BenchmarkAblationWindowSAT(b *testing.B) {
	img := benchImage()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img.WindowMean(1)
	}
}

// BenchmarkAblationWindowNaive measures the per-pixel rescan variant.
func BenchmarkAblationWindowNaive(b *testing.B) {
	img := benchImage()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img.WindowMeanNaive(1)
	}
}

func benchImage() *array.Dense {
	img := array.New(150, 125)
	for i := range img.Values() {
		img.Values()[i] = float64(i % 317)
	}
	return img
}

// BenchmarkAblationVaultLazy measures attach-then-first-touch loading.
func BenchmarkAblationVaultLazy(b *testing.B) {
	files := benchHRITFiles(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vault.New(4)
		for j, raw := range files {
			if err := v.AttachBytes(fmt.Sprintf("s%d", j), raw); err != nil {
				b.Fatal(err)
			}
		}
		// Touch one of the four attached acquisitions: lazy loading pays
		// only for what queries touch.
		if _, err := v.Load(hrit.ChannelIR039, benchBase); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationVaultEager measures decode-everything-at-attach.
func BenchmarkAblationVaultEager(b *testing.B) {
	files := benchHRITFiles(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vault.New(8)
		for j, raw := range files {
			if err := v.AttachBytes(fmt.Sprintf("s%d", j), raw); err != nil {
				b.Fatal(err)
			}
		}
		for _, ts := range v.Acquisitions(hrit.ChannelIR039) {
			if _, err := v.Load(hrit.ChannelIR039, ts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

var benchBase = time.Date(2010, 8, 22, 12, 0, 0, 0, time.UTC)

func benchHRITFiles(b *testing.B, compressed bool) [][]byte {
	b.Helper()
	var out [][]byte
	counts := make([]uint16, 164*137)
	for i := range counts {
		counts[i] = uint16((i * 13) % 1024)
	}
	for a := 0; a < 4; a++ {
		segs, err := hrit.Split(counts, 164, 4, hrit.SegmentHeader{
			ProductName: "MSG1-SEVIRI",
			Channel:     hrit.ChannelIR039,
			Timestamp:   benchBase.Add(time.Duration(a) * 5 * time.Minute),
			Compressed:  compressed,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range segs {
			raw, err := hrit.Encode(s)
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, raw)
		}
	}
	return out
}

// BenchmarkAblationHRITCompressed measures decode cost with the wavelet
// stage on.
func BenchmarkAblationHRITCompressed(b *testing.B) {
	benchHRITDecode(b, true)
}

// BenchmarkAblationHRITPlain measures decode cost with plain 10-bit
// packing.
func BenchmarkAblationHRITPlain(b *testing.B) {
	benchHRITDecode(b, false)
}

func benchHRITDecode(b *testing.B, compressed bool) {
	b.Helper()
	files := benchHRITFiles(b, compressed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hrit.Decode(files[i%len(files)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDictionary measures dictionary-encoded pattern
// matching vs. the term-level API.
func BenchmarkAblationDictionary(b *testing.B) {
	s := rdf.NewStore()
	for i := 0; i < 20000; i++ {
		s.Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://e/s%d", i%500)),
			P: rdf.NewIRI(fmt.Sprintf("http://e/p%d", i%7)),
			O: rdf.NewIRI(fmt.Sprintf("http://e/o%d", i)),
		})
	}
	p3, _ := s.Dict().Lookup(rdf.NewIRI("http://e/p3"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.MatchIDs(0, p3, 0, func(rdf.EncodedTriple) bool { n++; return true })
		if n == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkEndToEndAcquisition measures one full serviced acquisition:
// downlink, vault, chain, refinement — the paper's 5-minute budget.
func BenchmarkEndToEndAcquisition(b *testing.B) {
	cfg := seviri.DefaultScenarioConfig()
	cfg.Days = 1
	svc, err := core.NewService(42, cfg)
	if err != nil {
		b.Fatal(err)
	}
	at := cfg.Start.Add(12 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Step(seviri.MSG1, at.Add(time.Duration(i)*seviri.MSG1.Cadence)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Concurrent acquisition pipeline (pipeline.go) ---

// benchmarkPipelineWorkers measures end-to-end acquisition throughput of
// RunWindow at a given worker count: every iteration services a fresh
// one-hour MSG1 window (12 acquisitions) and reports acquisitions/sec.
// Comparing the Workers variants tracks the pipeline speedup in the bench
// trajectory.
func benchmarkPipelineWorkers(b *testing.B, workers int) {
	cfg := seviri.DefaultScenarioConfig()
	cfg.Days = 1
	const acquisitions = 12
	span := time.Duration(acquisitions) * seviri.MSG1.Cadence
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc, err := core.NewService(42, cfg)
		if err != nil {
			b.Fatal(err)
		}
		svc.Workers = workers
		b.StartTimer()
		start := time.Now()
		if err := svc.RunWindow(seviri.MSG1, cfg.Start.Add(12*time.Hour), span); err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(start)
		b.StopTimer()
		if len(svc.Reports) != acquisitions {
			b.Fatalf("reports = %d, want %d", len(svc.Reports), acquisitions)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.N*acquisitions)/elapsed.Seconds(), "acq/s")
}

func BenchmarkPipelineWorkers1(b *testing.B) { benchmarkPipelineWorkers(b, 1) }
func BenchmarkPipelineWorkers4(b *testing.B) { benchmarkPipelineWorkers(b, 4) }
func BenchmarkPipelineWorkers8(b *testing.B) { benchmarkPipelineWorkers(b, 8) }
