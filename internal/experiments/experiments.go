// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4). Each experiment is a pure function over a seed
// and scale parameters so the benchmark harness (bench_test.go) and the
// benchtables command share one implementation.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/accuracy"
	"repro/internal/core"
	"repro/internal/modis"
	"repro/internal/products"
	"repro/internal/refine"
	"repro/internal/seviri"
	"repro/internal/strabon"
	"repro/internal/vault"
)

// Table1Result is the paper's Table 1: thematic accuracy of the plain
// chain vs after refinement.
type Table1Result struct {
	Plain   accuracy.Row
	Refined accuracy.Row
}

// Table1 reproduces the validation protocol: MSG acquisitions are
// serviced inside the 30-minute merge window around every MODIS overpass
// of the evaluation days, then both product variants are overlaid with
// the MODIS reference.
func Table1(seed int64, days int) (*Table1Result, error) {
	cfg := seviri.DefaultScenarioConfig()
	cfg.Days = days
	svc, err := core.NewServiceWithStore(seed, cfg, strabon.New())
	if err != nil {
		return nil, err
	}
	start := cfg.Start
	// Service the MSG1 stream inside each overpass merge window.
	for _, op := range modis.OverpassesFor(start, days) {
		from := op.Time.Add(-accuracy.MergeWindow / 2)
		for _, t := range seviri.AcquisitionTimes(seviri.MSG1, from, accuracy.MergeWindow) {
			if _, err := svc.Step(seviri.MSG1, t); err != nil {
				return nil, err
			}
		}
	}
	reference := modis.DetectAll(svc.Sim.Scenario, start, days)
	refined, err := svc.RefinedProducts()
	if err != nil {
		return nil, err
	}
	return &Table1Result{
		Plain:   accuracy.Evaluate("Plain chain", svc.PlainProducts, reference),
		Refined: accuracy.Evaluate("After refinement", refined, reference),
	}, nil
}

// Render formats the result like the paper's Table 1.
func (r *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 1: Thematic accuracy for the original chain and after refinement\n")
	fmt.Fprintf(&b, "%-18s %12s %14s %10s %12s %14s %12s\n",
		"Chain", "MODIS total", "MODIS det.", "Omis. %", "MSG total", "MSG det.", "FalseAl. %")
	for _, row := range []accuracy.Row{r.Plain, r.Refined} {
		fmt.Fprintf(&b, "%-18s %12d %14d %10.2f %12d %14d %12.2f\n",
			row.Label, row.TotalMODIS, row.MODISDetectedByMSG, row.OmissionPct,
			row.TotalMSG, row.MSGDetectedByMODIS, row.FalseAlarmPct)
	}
	b.WriteString("Paper:             2542 / 2219 / 12.71 / 2710 / 2000 / 26.20 (plain)\n")
	b.WriteString("                   2542 / 2287 / 10.03 / 3262 / 2301 / 29.46 (refined)\n")
	return b.String()
}

// Table2Result is the paper's Table 2: per-image processing time of the
// legacy chain vs the SciQL chain.
type Table2Result struct {
	Images                          int
	LegacyAvg, LegacyMin, LegacyMax time.Duration
	SciQLAvg, SciQLMin, SciQLMax    time.Duration
}

// Table2 processes `images` consecutive MSG1 acquisitions of the paper's
// evaluation day through both chains, measuring wall time per image (the
// paper: 281 images of 22 Aug 2010).
func Table2(seed int64, images int) (*Table2Result, error) {
	cfg := seviri.DefaultScenarioConfig()
	cfg.Start = time.Date(2010, 8, 22, 0, 0, 0, 0, time.UTC)
	cfg.Days = 1
	cfg.FiresPerDay = 10
	svc, err := core.NewServiceWithStore(seed, cfg, strabon.New())
	if err != nil {
		return nil, err
	}
	v := vault.New(2 * images)
	sciqlChain := core.NewSciQLChain(v, svc.Sim.Transform())
	legacyChain := core.NewLegacyChain(v, svc.Sim.Transform())

	times := seviri.AcquisitionTimes(seviri.MSG1,
		cfg.Start.Add(8*time.Hour), time.Duration(images)*seviri.MSG1.Cadence)
	res := &Table2Result{Images: len(times), LegacyMin: 1 << 62, SciQLMin: 1 << 62}
	var legacyTotal, sciqlTotal time.Duration
	for _, at := range times {
		acq, err := svc.Sim.Acquire(seviri.MSG1, at, 4, true)
		if err != nil {
			return nil, err
		}
		if err := core.IngestAcquisition(v, acq); err != nil {
			return nil, err
		}
		start := time.Now()
		pl, err := legacyChain.Process("MSG1", at)
		if err != nil {
			return nil, err
		}
		d := time.Since(start)
		legacyTotal += d
		res.LegacyMin = minDur(res.LegacyMin, d)
		res.LegacyMax = maxDur(res.LegacyMax, d)

		start = time.Now()
		ps, err := sciqlChain.Process("MSG1", at)
		if err != nil {
			return nil, err
		}
		d = time.Since(start)
		sciqlTotal += d
		res.SciQLMin = minDur(res.SciQLMin, d)
		res.SciQLMax = maxDur(res.SciQLMax, d)

		if len(pl.Hotspots) != len(ps.Hotspots) {
			return nil, fmt.Errorf("experiments: chains disagree at %v: %d vs %d hotspots",
				at, len(pl.Hotspots), len(ps.Hotspots))
		}
	}
	n := time.Duration(len(times))
	if n > 0 {
		res.LegacyAvg = legacyTotal / n
		res.SciQLAvg = sciqlTotal / n
	}
	return res, nil
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// Render formats the result like the paper's Table 2.
func (r *Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Processing times per image acquisition (%d images)\n", r.Images)
	fmt.Fprintf(&b, "%-12s %12s %12s %12s\n", "Chain", "Avg", "Min", "Max")
	fmt.Fprintf(&b, "%-12s %12s %12s %12s\n", "Legacy", r.LegacyAvg, r.LegacyMin, r.LegacyMax)
	fmt.Fprintf(&b, "%-12s %12s %12s %12s\n", "SciQL", r.SciQLAvg, r.SciQLMin, r.SciQLMax)
	ratio := 0.0
	if r.LegacyAvg > 0 {
		ratio = float64(r.SciQLAvg) / float64(r.LegacyAvg)
	}
	fmt.Fprintf(&b, "SciQL/Legacy ratio: %.2fx (paper: 2.067/1.481 = 1.40x)\n", ratio)
	return b.String()
}

// Figure8Point is one measurement of Figure 8: the response time of one
// refinement operation at one acquisition.
type Figure8Point struct {
	Sensor   string
	At       time.Time
	Op       refine.Op
	Duration time.Duration
	Hotspots int
}

// Figure8Result holds both sensor series.
type Figure8Result struct {
	Points []Figure8Point
}

// Figure8 runs the refinement sequence over MSG1 and MSG2 acquisition
// streams and records per-operation response times.
func Figure8(seed int64, window time.Duration) (*Figure8Result, error) {
	out := &Figure8Result{}
	for _, sensor := range []seviri.Sensor{seviri.MSG1, seviri.MSG2} {
		cfg := seviri.DefaultScenarioConfig()
		cfg.Days = 1
		svc, err := core.NewServiceWithStore(seed, cfg, strabon.New())
		if err != nil {
			return nil, err
		}
		from := cfg.Start.Add(10 * time.Hour)
		for _, at := range seviri.AcquisitionTimes(sensor, from, window) {
			rep, err := svc.Step(sensor, at)
			if err != nil {
				return nil, err
			}
			for _, tm := range rep.RefineOps {
				out.Points = append(out.Points, Figure8Point{
					Sensor: sensor.Name, At: at, Op: tm.Op,
					Duration: tm.Duration, Hotspots: rep.RawHotspot,
				})
			}
		}
	}
	return out, nil
}

// Render prints the per-op series plus summary statistics, mirroring the
// Figure 8 log-scale plot as text.
func (r *Figure8Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 8: refinement response times per acquisition (ms)\n")
	type key struct {
		sensor string
		op     refine.Op
	}
	series := make(map[key][]float64)
	for _, p := range r.Points {
		k := key{p.Sensor, p.Op}
		series[k] = append(series[k], float64(p.Duration.Microseconds())/1000)
	}
	var keys []key
	for k := range series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].sensor != keys[j].sensor {
			return keys[i].sensor < keys[j].sensor
		}
		return opRank(keys[i].op) < opRank(keys[j].op)
	})
	fmt.Fprintf(&b, "%-6s %-18s %10s %10s %10s\n", "Sensor", "Operation", "median", "p95", "max")
	for _, k := range keys {
		vals := series[k]
		sort.Float64s(vals)
		med := vals[len(vals)/2]
		p95 := vals[min(len(vals)-1, len(vals)*95/100)]
		fmt.Fprintf(&b, "%-6s %-18s %9.2f %9.2f %9.2f\n",
			k.sensor, k.op, med, p95, vals[len(vals)-1])
	}
	b.WriteString("Paper shape: all ops sub-second, Municipalities the slowest (sec-level spikes),\n")
	b.WriteString("time grows with the number of hotspots in the acquisition.\n")
	return b.String()
}

func opRank(op refine.Op) int {
	for i, o := range refine.AllOps {
		if o == op {
			return i
		}
	}
	return len(refine.AllOps)
}

// MunicipalitiesSlowest verifies the paper's headline Figure 8
// observation on the measured data.
func (r *Figure8Result) MunicipalitiesSlowest() bool {
	totals := make(map[refine.Op]time.Duration)
	for _, p := range r.Points {
		if p.Op == refine.OpStore {
			continue // Store is bulk-load, not a spatial query
		}
		totals[p.Op] += p.Duration
	}
	mun := totals[refine.OpMunicipalities]
	for op, d := range totals {
		if op != refine.OpMunicipalities && op != refine.OpTimePersistence && d > mun {
			return false
		}
	}
	return mun > 0
}

// CollectProducts is a helper for the map figures: services a short MSG1
// window and returns the service (with products stored in Strabon).
func CollectProducts(seed int64, window time.Duration) (*core.Service, []*products.Product, error) {
	cfg := seviri.DefaultScenarioConfig()
	cfg.Days = 1
	svc, err := core.NewServiceWithStore(seed, cfg, strabon.New())
	if err != nil {
		return nil, nil, err
	}
	from := cfg.Start.Add(11 * time.Hour)
	if err := svc.RunWindow(seviri.MSG1, from, window); err != nil {
		return nil, nil, err
	}
	return svc, svc.PlainProducts, nil
}
