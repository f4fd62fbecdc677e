package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/refine"
	"repro/internal/seviri"
	"repro/internal/strabon"
)

// newTestService builds a small service over a fixed seed.
func newTestService(t *testing.T) *Service {
	t.Helper()
	cfg := seviri.DefaultScenarioConfig()
	cfg.Days = 1
	cfg.FiresPerDay = 5
	cfg.ArtifactsPerDay = 3
	s, err := NewServiceWithStore(42, cfg, strabon.New())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestServiceStepEndToEnd(t *testing.T) {
	s := newTestService(t)
	// Midday of the scenario's first day: fires are burning.
	at := time.Date(2007, 8, 24, 12, 0, 0, 0, time.UTC)
	rep, err := s.Step(seviri.MSG1, at)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RawHotspot == 0 {
		t.Fatal("chain detected no hotspots at scenario midday")
	}
	if len(rep.RefineOps) != len(refine.AllOps) {
		t.Fatalf("refinement ran %d ops", len(rep.RefineOps))
	}
	if !rep.DeadlineMet {
		t.Fatalf("missed the %v deadline: chain %v", seviri.MSG1.Cadence, rep.ChainTime)
	}
	if rep.Refined > rep.RawHotspot {
		// Refinement can only add via time-persistence, which needs an
		// hour of history; the first acquisition cannot grow.
		t.Fatalf("first acquisition grew: %d -> %d", rep.RawHotspot, rep.Refined)
	}
}

func TestSciQLAndLegacyChainsAgree(t *testing.T) {
	s := newTestService(t)
	at := time.Date(2007, 8, 24, 12, 30, 0, 0, time.UTC)
	acq, err := s.Sim.Acquire(seviri.MSG1, at, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := IngestAcquisition(s.Vault, acq); err != nil {
		t.Fatal(err)
	}
	sciqlProd, err := s.Chain.Process("MSG1", at)
	if err != nil {
		t.Fatal(err)
	}
	legacy := NewLegacyChain(s.Vault, s.Sim.Transform())
	legacyProd, err := legacy.Process("MSG1", at)
	if err != nil {
		t.Fatal(err)
	}
	if len(sciqlProd.Hotspots) != len(legacyProd.Hotspots) {
		t.Fatalf("chains disagree: sciql %d vs legacy %d hotspots",
			len(sciqlProd.Hotspots), len(legacyProd.Hotspots))
	}
	for i := range sciqlProd.Hotspots {
		a := sciqlProd.Hotspots[i].Geometry.Centroid()
		b := legacyProd.Hotspots[i].Geometry.Centroid()
		if !a.Equals(b) {
			t.Fatalf("hotspot %d at %v vs %v", i, a, b)
		}
	}
}

func TestRefinementDeletesSeaHotspots(t *testing.T) {
	s := newTestService(t)
	// A glint-heavy midday acquisition.
	at := time.Date(2007, 8, 24, 11, 0, 0, 0, time.UTC)
	rep, err := s.Step(seviri.MSG1, at)
	if err != nil {
		t.Fatal(err)
	}
	// Count plain hotspots entirely in the sea.
	world := s.Sim.Scenario.World
	seaPlain := 0
	for _, h := range s.PlainProducts[0].Hotspots {
		if !world.LandAt(h.Geometry.Centroid()) {
			corners := 0
			for _, c := range h.Geometry.Shell[:4] {
				if world.LandAt(c) {
					corners++
				}
			}
			if corners == 0 {
				seaPlain++
			}
		}
	}
	// After refinement no surviving hotspot may be fully at sea.
	res, err := s.Refiner.CurrentHotspots(at)
	if err != nil {
		t.Fatal(err)
	}
	gc := res.Col("g")
	for _, row := range res.Rows {
		g, err := rowGeometry(row[gc].Value)
		if err != nil {
			t.Fatal(err)
		}
		c := g.Centroid()
		onLand := world.LandAt(c)
		if !onLand {
			for _, v := range g.Shell {
				if world.LandAt(v) {
					onLand = true
					break
				}
			}
		}
		if !onLand {
			t.Fatalf("sea hotspot survived refinement at %v (plain sea hotspots: %d)", c, seaPlain)
		}
	}
	_ = rep
}

func TestRunWindowAccumulatesReports(t *testing.T) {
	s := newTestService(t)
	from := time.Date(2007, 8, 24, 12, 0, 0, 0, time.UTC)
	if err := s.RunWindow(seviri.MSG2, from, 45*time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(s.Reports) != 3 {
		t.Fatalf("reports = %d, want 3 (15-min cadence over 45 min)", len(s.Reports))
	}
	ref, err := s.RefinedProducts()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 3 {
		t.Fatalf("refined products = %d", len(ref))
	}
}

func TestVaultLazinessInService(t *testing.T) {
	s := newTestService(t)
	at := time.Date(2007, 8, 24, 13, 0, 0, 0, time.UTC)
	acq, err := s.Sim.Acquire(seviri.MSG1, at, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := IngestAcquisition(s.Vault, acq); err != nil {
		t.Fatal(err)
	}
	if s.Vault.Stats().Loads != 0 {
		t.Fatal("attach must not materialise arrays")
	}
	if _, err := s.Chain.Process("MSG1", at); err != nil {
		t.Fatal(err)
	}
	if s.Vault.Stats().Loads == 0 {
		t.Fatal("processing should trigger lazy loads")
	}
}

// TestStepExportsRefineStages pins that Step is flush of one: a
// sequential (-workers 1) service exports the insert and refine stage
// histograms exactly like the pipeline does, every stage under the
// benchmark's layer name, and the runner's per-rule families carry one
// observation per rule per acquisition, under the benchmark's rule
// names.
func TestStepExportsRefineStages(t *testing.T) {
	s := newTestService(t)
	reg := obs.NewRegistry()
	s.Metrics = NewPipelineMetrics(reg)
	s.Refiner.Metrics = refine.NewMetrics(reg)
	rep, err := s.Step(seviri.MSG1, time.Date(2007, 8, 24, 12, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	text := b.String()
	want := []string{
		`core_pipeline_flush_products_count 1`,
	}
	for _, stage := range []string{"seviri.acquire", "vault.attach", "sciql.chain", "strabon.insert", "refine"} {
		want = append(want, fmt.Sprintf(`core_pipeline_stage_seconds_count{stage=%q} 1`, stage))
	}
	for _, rule := range []string{"municipalities", "delete_in_sea", "invalid_for_fires", "refine_in_coast", "time_persistence"} {
		want = append(want, fmt.Sprintf(`refine_rule_seconds_count{rule=%q} 1`, rule))
	}
	for _, line := range want {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("metrics lack %q", line)
		}
	}
	// The affected counters are the report's.
	for _, op := range rep.RefineOps[1:] {
		rule := strings.ReplaceAll(strings.ToLower(string(op.Op)), " ", "_")
		line := fmt.Sprintf(`refine_rule_affected_total{rule=%q} %d`, rule, op.Affected)
		if !strings.Contains(text, line+"\n") {
			t.Errorf("metrics lack %q", line)
		}
	}
	if t.Failed() {
		t.Log(text)
	}
}
