package core

import (
	"time"

	"repro/internal/obs"
)

// PipelineMetrics instruments the acquisition pipeline for /metrics:
// per-stage wall-time histograms and the distribution of products per
// batched store flush. Stages carry the benchmark's layer names
// (seviri.acquire, vault.attach, sciql.chain, strabon.insert, refine).
// All instruments are atomics shared safely by the worker pool; a nil
// *PipelineMetrics disables everything at the cost of one nil check
// per stage.
type PipelineMetrics struct {
	stage      *obs.HistogramVec // core_pipeline_stage_seconds{stage}
	flushBatch *obs.Histogram    // core_pipeline_flush_products
}

// NewPipelineMetrics registers the pipeline's instrument families.
func NewPipelineMetrics(reg *obs.Registry) *PipelineMetrics {
	return &PipelineMetrics{
		stage: reg.NewHistogramVec("core_pipeline_stage_seconds",
			"Acquisition pipeline stage wall time (seviri.acquire, vault.attach, sciql.chain, strabon.insert, refine).",
			[]string{"stage"}, nil),
		flushBatch: reg.NewHistogram("core_pipeline_flush_products",
			"Products committed per batched store flush.",
			[]float64{1, 2, 4, 8, 16}),
	}
}

// observe records one stage execution.
func (m *PipelineMetrics) observe(stage string, d time.Duration) {
	if m == nil {
		return
	}
	m.stage.With(stage).Observe(d.Seconds())
}

// observeFlush records one flush's batch size.
func (m *PipelineMetrics) observeFlush(products int) {
	if m == nil {
		return
	}
	m.flushBatch.Observe(float64(products))
}
