package core

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/auxdata"
	"repro/internal/products"
	"repro/internal/refine"
	"repro/internal/seviri"
	"repro/internal/strabon"
	"repro/internal/vault"
)

// AcquisitionReport records one serviced acquisition: the Figure 3
// pipeline end to end, with the timings the evaluation section reports.
type AcquisitionReport struct {
	Sensor     string
	At         time.Time
	RawHotspot int // hotspots from the chain (plain product)
	Refined    int // hotspots surviving refinement
	ChainTime  time.Duration
	RefineOps  []refine.Timing
	// DeadlineMet reports whether chain + refinement finished within the
	// sensor cadence ("both ... need to finish in less than 5 minutes").
	DeadlineMet bool
}

// Service is the operational fire-monitoring service: simulator-fed
// ingestion, SciQL chain, Strabon refinement and product dissemination.
type Service struct {
	Sim     *seviri.Simulator
	Vault   *vault.Vault
	Chain   Chain
	Strabon *strabon.Store
	Refiner *refine.Runner

	// NewChain builds a processing chain private to one pipeline worker;
	// chains own a SciQL engine whose catalog must not be shared across
	// goroutines. When nil, RunWindow falls back to the shared Chain and
	// must then run with Workers=1.
	NewChain func() Chain

	// Workers bounds the acquisition pipeline's concurrency; 0 means
	// runtime.NumCPU(). See pipeline.go.
	Workers int
	// FlushBatch caps how many in-order products the pipeline writer
	// commits per batched store flush; 0 means the default.
	FlushBatch int

	// Segments is the per-acquisition HRIT segment count.
	Segments int
	// Compress enables the wavelet stage of the synthetic downlink.
	Compress bool

	// Metrics, when set (NewPipelineMetrics), exports per-stage timings
	// and flush batch sizes; nil disables instrumentation.
	Metrics *PipelineMetrics

	Reports []AcquisitionReport
	// PlainSink, when set, receives each serviced acquisition's
	// pre-refinement product, in acquisition order: Table 1 and the map
	// figures collect them. The service itself keeps none — the store
	// holds what refinement left of them.
	PlainSink func(*products.Product)
}

// NewServiceWithStore assembles the full stack over a world seed and a
// Strabon backend: synthetic geography, fire scenario, simulator, vault,
// SciQL chain, and st pre-loaded with every auxiliary dataset. Programs
// pass strabon.New(), or strabon.NewSharded when they partition by
// time.
func NewServiceWithStore(seed int64, cfg seviri.ScenarioConfig, st *strabon.Store) (*Service, error) {
	world := auxdata.Generate(seed)
	scenario := seviri.GenerateScenario(world, seed+1, cfg)
	sim := seviri.NewSimulator(scenario)

	// The vault cache must hold both channels of every in-flight
	// acquisition, so size it for the pipeline's worker fan-out.
	v := vault.New(max(8, 4*runtime.NumCPU()))
	chain := NewSciQLChain(v, sim.Transform())

	st.LoadTriples(world.AllTriples())

	return &Service{
		Sim:      sim,
		Vault:    v,
		Chain:    chain,
		NewChain: func() Chain { return NewSciQLChain(v, sim.Transform()) },
		Strabon:  st,
		Refiner:  refine.NewRunner(st),
		Segments: 4,
		Compress: true,
	}, nil
}

// Step services one acquisition: the front half on the calling
// goroutine, then a flush of one — the same back half the pipeline's
// writer runs for a batch.
func (s *Service) Step(sensor seviri.Sensor, at time.Time) (*AcquisitionReport, error) {
	product, chainTime, err := s.frontHalf(s.Chain, sensor, at)
	if err != nil {
		return nil, err
	}
	if err := s.flush(sensor, []chainResult{{at: at, product: product, chainTime: chainTime}}); err != nil {
		return nil, err
	}
	rep := s.Reports[len(s.Reports)-1]
	return &rep, nil
}

// RunWindow services every acquisition of a sensor over a time window.
// With Workers >= 2 it runs the concurrent pipeline (see pipeline.go):
// front halves stream through a bounded worker pool while an ordered
// writer batches store flushes and refinement. Workers == 1 requests the
// plain sequential loop, the pipeline-off baseline. Either way, reports
// and products accumulate in acquisition order and the refined output is
// identical.
func (s *Service) RunWindow(sensor seviri.Sensor, from time.Time, span time.Duration) error {
	// Without a chain factory the workers would share one SciQL engine,
	// whose catalog is not safe for concurrent mutation — fall back to
	// the sequential loop rather than race.
	if s.workers() <= 1 || s.NewChain == nil {
		return s.RunWindowSequential(sensor, from, span)
	}
	return s.runPipeline(sensor, seviri.AcquisitionTimes(sensor, from, span))
}

// RunWindowSequential services a window one acquisition at a time on the
// calling goroutine — the pre-pipeline behaviour, kept as the plainest
// possible reference implementation.
func (s *Service) RunWindowSequential(sensor seviri.Sensor, from time.Time, span time.Duration) error {
	for _, t := range seviri.AcquisitionTimes(sensor, from, span) {
		if _, err := s.Step(sensor, t); err != nil {
			return err
		}
	}
	return nil
}

// RefinedProducts extracts the post-refinement product of every serviced
// acquisition (Reports) from the Strabon store (the Table 1 "after
// refinement" variant).
func (s *Service) RefinedProducts() ([]*products.Product, error) {
	var out []*products.Product
	for _, rep := range s.Reports {
		res, err := s.Refiner.CurrentHotspots(rep.At)
		if err != nil {
			return nil, err
		}
		p := &products.Product{
			Sensor:     rep.Sensor,
			Chain:      s.Chain.Name() + "+refined",
			AcquiredAt: rep.At,
		}
		gc, cc := res.Col("g"), res.Col("conf")
		for i, row := range res.Rows {
			g, err := rowGeometry(row[gc].Value)
			if err != nil {
				continue
			}
			conf, _ := row[cc].Float()
			p.Hotspots = append(p.Hotspots, products.Hotspot{
				ID:         fmt.Sprintf("refined_%d_%s", i, rep.At.Format("150405")),
				Geometry:   g,
				Confidence: conf,
				AcquiredAt: rep.At,
				Sensor:     rep.Sensor,
				Chain:      p.Chain,
				Producer:   "noa",
			})
		}
		out = append(out, p)
	}
	return out, nil
}
