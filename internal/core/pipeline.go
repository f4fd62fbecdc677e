package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/products"
	"repro/internal/seviri"
)

// This file is the concurrent acquisition pipeline: the paper's real-time
// requirement ("both ... need to finish in less than 5 minutes") pursued
// with bounded parallelism instead of a strictly sequential loop.
//
// The pipeline has two halves joined by an ordered, batching writer:
//
//	workers (Workers goroutines)          writer (one goroutine)
//	┌────────────────────────────┐        ┌──────────────────────────────┐
//	│ acquire → ingest → chain   │ ─────▶ │ reorder by sequence          │
//	│ (per-acquisition, parallel)│        │ flush = refine.Runner.Apply: │
//	└────────────────────────────┘        │   RDF-ize the batch          │
//	                                      │   ┌ one strabon.ApplyFlush ─┐│
//	                                      │   │ insert into an overlay  ││
//	                                      │   │ 4 rules seeded with the ││
//	                                      │   │   batch's hotspots      ││
//	                                      │   │ time persistence, per   ││
//	                                      │   │   product, in order     ││
//	                                      │   │ commit: one write hold, ││
//	                                      │   │   one generation bump   ││
//	                                      │   └─────────────────────────┘│
//	                                      │ reports, in order            │
//	                                      └──────────────────────────────┘
//
// The front half of an acquisition — downlink simulation, vault attach,
// SciQL chain — touches only the simulator (read-only), the vault
// (internally locked) and a per-worker SciQL engine, so acquisitions
// stream through it concurrently. Completed products funnel into the
// writer, which restores acquisition order and hands every in-order
// batch to flush — the ONE implementation of an acquisition's back half,
// which Step calls with a batch of one.
//
// A flush is one atomic transition of the store (see the flush contract
// in package strabon): the batch's triples and every effect of the five
// refinement rules on them become visible together, or not at all. The
// four hotspot-by-hotspot rules run once over the whole batch, seeded
// with the hotspot subjects the batch wrote; Time Persistence reads the
// preceding hour of detections — the batch's own earlier products
// included — and so runs product by product, in acquisition order,
// inside the same flush. That keeps the refined output identical to the
// sequential run for every worker count and flush size — the invariant
// the stress test in pipeline_test.go pins.

// errAborted marks jobs skipped after an earlier acquisition failed.
var errAborted = errors.New("core: pipeline aborted")

// chainResult is one acquisition's front-half outcome, tagged with its
// position in the window so the writer can restore acquisition order.
type chainResult struct {
	seq       int
	at        time.Time
	product   *products.Product
	chainTime time.Duration
	err       error
}

// workers resolves the configured worker count; 0 defaults to
// runtime.NumCPU().
func (s *Service) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.NumCPU()
}

// EffectiveWorkers reports the worker count RunWindow will use.
func (s *Service) EffectiveWorkers() int { return s.workers() }

// flushBatch resolves the writer's maximum flush size.
func (s *Service) flushBatch() int {
	if s.FlushBatch > 0 {
		return s.FlushBatch
	}
	return defaultFlushBatch
}

const defaultFlushBatch = 4

// workerChain returns a processing chain private to one worker. Chains
// own a SciQL engine, whose array catalog is not safe for concurrent
// mutation; the factory gives every worker its own engine over the shared
// (internally locked) vault.
func (s *Service) workerChain() Chain {
	if s.NewChain != nil {
		return s.NewChain()
	}
	return s.Chain
}

// frontHalf runs the concurrent-safe half of one acquisition: downlink
// simulation, vault attach, and the processing chain.
func (s *Service) frontHalf(chain Chain, sensor seviri.Sensor, at time.Time) (*products.Product, time.Duration, error) {
	acqStart := time.Now()
	acq, err := s.Sim.Acquire(sensor, at, s.Segments, s.Compress)
	if err != nil {
		return nil, 0, fmt.Errorf("core: acquire: %w", err)
	}
	s.Metrics.observe("seviri.acquire", time.Since(acqStart))
	ingestStart := time.Now()
	if err := IngestAcquisition(s.Vault, acq); err != nil {
		return nil, 0, fmt.Errorf("core: ingest: %w", err)
	}
	s.Metrics.observe("vault.attach", time.Since(ingestStart))
	chainStart := time.Now()
	product, err := chain.Process(sensor.Name, at)
	if err != nil {
		return nil, 0, fmt.Errorf("core: chain: %w", err)
	}
	chainTime := time.Since(chainStart)
	s.Metrics.observe("sciql.chain", chainTime)
	return product, chainTime, nil
}

// runPipeline services the acquisitions of a window through the
// concurrent pipeline and appends their reports and products in
// acquisition order, exactly as the sequential loop would.
func (s *Service) runPipeline(sensor seviri.Sensor, times []time.Time) error {
	if len(times) == 0 {
		return nil
	}
	w := s.workers()
	if w > len(times) {
		w = len(times)
	}

	// errSeq is the sequence of the earliest known failure; acquisitions
	// before it still complete and commit, ones at or after it are
	// skipped. This matches the sequential loop's error behaviour: all
	// work before the failing acquisition lands, the failure's error is
	// surfaced, nothing after it runs. Workers and the feeder read the
	// watermark; only the writer goroutine (this function) lowers it.
	var errSeq atomic.Int64
	errSeq.Store(int64(len(times)))
	var firstErr error
	fail := func(seq int, err error) {
		if int64(seq) < errSeq.Load() {
			errSeq.Store(int64(seq))
			firstErr = err
		}
	}

	jobs := make(chan int)
	results := make(chan chainResult, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chain := s.workerChain()
			for seq := range jobs {
				if int64(seq) >= errSeq.Load() {
					results <- chainResult{seq: seq, err: errAborted}
					continue
				}
				product, chainTime, err := s.frontHalf(chain, sensor, times[seq])
				results <- chainResult{seq: seq, at: times[seq], product: product, chainTime: chainTime, err: err}
			}
		}()
	}
	go func() {
		for i := range times {
			if int64(i) >= errSeq.Load() {
				break
			}
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	pending := make(map[int]chainResult, 2*w)
	next := 0
	maxFlush := s.flushBatch()
	for res := range results {
		if res.err != nil {
			if !errors.Is(res.err, errAborted) {
				fail(res.seq, res.err)
			}
			continue
		}
		pending[res.seq] = res
		for {
			batch := drainReady(pending, &next, maxFlush, int(errSeq.Load()))
			if len(batch) == 0 {
				break
			}
			if err := s.flush(sensor, batch); err != nil {
				// A flush failure cannot be attributed to one acquisition
				// mid-batch; surface it at the batch start. Nothing of a
				// failed flush reaches the store.
				fail(batch[0].seq, err)
				break
			}
		}
	}
	return firstErr
}

// drainReady pops up to maxFlush consecutive in-order results from the
// reorder buffer, stopping at a gap or at the failure watermark.
func drainReady(pending map[int]chainResult, next *int, maxFlush, errSeq int) []chainResult {
	var batch []chainResult
	for len(batch) < maxFlush && *next < errSeq {
		res, ok := pending[*next]
		if !ok {
			break
		}
		delete(pending, *next)
		*next++
		batch = append(batch, res)
	}
	return batch
}

// flush is the back half of servicing acquisitions, for Step's batch of
// one and the pipeline writer's in-order batches alike: the products are
// stored and refined as one atomic store transition (refine.Runner.Apply)
// and their reports assembled in order. The per-report RefineOps are the
// runner's: Store and the four hotspot-by-hotspot rules report the
// product's share of the batch, Time Persistence its own run.
func (s *Service) flush(sensor seviri.Sensor, batch []chainResult) error {
	delta := make([]*products.Product, len(batch))
	for i, res := range batch {
		delta[i] = res.product
	}
	start := time.Now()
	outcomes, err := s.Refiner.Apply(delta)
	if err != nil {
		return err
	}
	var stored time.Duration
	for _, o := range outcomes {
		stored += o.Timings[0].Duration // refine.OpStore
	}
	s.Metrics.observe("strabon.insert", stored)
	s.Metrics.observe("refine", time.Since(start)-stored)
	s.Metrics.observeFlush(len(batch))

	for i, res := range batch {
		total := res.chainTime
		for _, t := range outcomes[i].Timings {
			total += t.Duration
		}
		s.PlainProducts = append(s.PlainProducts, res.product)
		s.Reports = append(s.Reports, AcquisitionReport{
			Sensor:      sensor.Name,
			At:          res.at,
			RawHotspot:  len(res.product.Hotspots),
			Refined:     outcomes[i].Refined,
			ChainTime:   res.chainTime,
			RefineOps:   outcomes[i].Timings,
			DeadlineMet: total < sensor.Cadence,
		})
	}
	return nil
}

// SortedHotspotKeys renders a deterministic fingerprint of a product set:
// every hotspot as "sensor|time|wkt|confidence", sorted. Two service runs
// produced the same refined output iff their fingerprints match; the
// pipeline stress test uses this to compare worker counts.
func SortedHotspotKeys(ps []*products.Product) []string {
	var keys []string
	for _, p := range ps {
		for _, h := range p.Hotspots {
			keys = append(keys, fmt.Sprintf("%s|%s|%v|%.3f",
				h.Sensor, h.AcquiredAt.UTC().Format(time.RFC3339), h.Geometry, h.Confidence))
		}
	}
	sort.Strings(keys)
	return keys
}
