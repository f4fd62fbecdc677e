// Package repro holds the benchmark harness regenerating the paper's
// evaluation (Section 4): one benchmark per table and figure, plus the
// end-to-end acquisition and the pipeline worker variants. Run with:
//
//	go test -bench=. -benchmem
//
// The per-iteration workloads are scaled-down versions of the paper's
// full runs; cmd/benchtables runs the full-scale protocols and prints the
// paper-style tables.
package repro

import (
	"testing"
	"time"

	"repro/internal/auxdata"
	"repro/internal/core"
	"repro/internal/experiments"
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
	svc, err := core.NewServiceWithStore(42, cfg, strabon.New())
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

func figure8Setup(b *testing.B) (*core.Service, *refine.Runner) {
	b.Helper()
	cfg := seviri.DefaultScenarioConfig()
	cfg.Days = 1
	svc, err := core.NewServiceWithStore(42, cfg, strabon.New())
	if err != nil {
		b.Fatal(err)
	}
	// Pre-load an archive so the store resembles the paper's multi-year
	// hotspot collection.
	from := cfg.Start.Add(11 * time.Hour)
	if err := svc.RunWindow(seviri.MSG1, from, 30*time.Minute); err != nil {
		b.Fatal(err)
	}
	return svc, svc.Refiner
}

// benchRefineOp times one refinement operation against a stored product.
func benchRefineOp(b *testing.B, run func(*refine.Runner, *core.Service, time.Time) error) {
	svc, runner := figure8Setup(b)
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

// BenchmarkEndToEndAcquisition measures one full serviced acquisition:
// downlink, vault, chain, refinement — the paper's 5-minute budget.
func BenchmarkEndToEndAcquisition(b *testing.B) {
	cfg := seviri.DefaultScenarioConfig()
	cfg.Days = 1
	svc, err := core.NewServiceWithStore(42, cfg, strabon.New())
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
		svc, err := core.NewServiceWithStore(42, cfg, strabon.New())
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
