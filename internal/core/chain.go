// Package core is the paper's primary contribution as a library: the
// TELEIOS fire-monitoring service of Figure 3. It wires the data vault
// and the SciQL engine (the MonetDB side) to the processing chain —
// ingestion, cropping, georeferencing, classification, vectorisation —
// and feeds the resulting products through RDF-ization and the stSPARQL
// refinement step against Strabon, honouring the 5-/15-minute real-time
// deadlines of the MSG acquisition streams.
package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/array"
	"repro/internal/detect"
	"repro/internal/georef"
	"repro/internal/hrit"
	"repro/internal/products"
	"repro/internal/sciql"
	"repro/internal/seviri"
	"repro/internal/solar"
	"repro/internal/vault"
)

// Chain is a processing chain turning one raw acquisition into a hotspot
// product.
type Chain interface {
	// Name labels the chain in products and benchmarks.
	Name() string
	// Process runs the full chain for one (sensor, timestamp) acquisition
	// whose segments are already attached to the vault.
	Process(sensor string, at time.Time) (*products.Product, error)
}

// cropWindow computes the raw-grid rectangle covering the destination
// region (plus margin) — the chain's range query ("cropping the image to
// keep only the area of interest").
func cropWindow(tr georef.Transform) (x0, x1, y0, y1 int) {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, c := range [][2]float64{
		{0, 0},
		{float64(tr.DstWidth - 1), 0},
		{0, float64(tr.DstHeight - 1)},
		{float64(tr.DstWidth - 1), float64(tr.DstHeight - 1)},
	} {
		u := tr.SrcX.Eval(c[0], c[1])
		v := tr.SrcY.Eval(c[0], c[1])
		minX, maxX = math.Min(minX, u), math.Max(maxX, u)
		minY, maxY = math.Min(minY, v), math.Max(maxY, v)
	}
	const margin = 2
	return int(minX) - margin, int(maxX) + margin + 1, int(minY) - margin, int(maxY) + margin + 1
}

// regionThresholds picks the acquisition's threshold set from the solar
// zenith angle at the region centre (both chains share this policy so
// Table 1/2 compare like with like) and binds it to the Figure 4 query's
// parameters — the paper's "common small changes, such as changing
// threshold values, are as easy as changing a few tuples".
func regionThresholds(tr georef.Transform, at time.Time) map[string]float64 {
	lon, lat := tr.PixelToGeo(tr.DstWidth/2, tr.DstHeight/2)
	th := detect.ForZenith(solar.ZenithAngle(at, lon, lat))
	return map[string]float64{
		"t039": th.T039, "diff_fire": th.DiffFire, "diff_potential": th.DiffPotential,
		"std039_fire": th.Std039Fire, "std039_pot": th.Std039Pot, "std108_max": th.Std108Max,
	}
}

// SciQLChain is the TELEIOS chain: vault ingestion plus the Figure 4
// classification query on the SciQL engine. Georeferencing runs as an
// array kernel between the two SciQL stages: it is a bilinear resample
// through the precalculated polynomial, a per-cell gather from computed
// source coordinates that the SciQL subset has no operator for, so the
// chain applies it to the cropped arrays and registers the results as
// the classification query's input arrays.
type SciQLChain struct {
	Vault     *vault.Vault
	Engine    *sciql.Engine
	Transform georef.Transform
	ChainName string

	classify sciql.Stmt // Figure 4, parsed once
}

// NewSciQLChain wires a chain over a vault and scan geometry.
func NewSciQLChain(v *vault.Vault, tr georef.Transform) *SciQLChain {
	e := sciql.NewEngine()
	v.Register(e)
	classify, err := sciql.ParseStmt(classificationQuery)
	if err != nil {
		panic(fmt.Sprintf("core: Figure 4 does not parse: %v", err))
	}
	return &SciQLChain{Vault: v, Engine: e, Transform: tr, ChainName: "sciql", classify: classify}
}

// Name implements Chain.
func (c *SciQLChain) Name() string { return c.ChainName }

// classificationQuery is the Figure 4 query, its thresholds parameters.
const classificationQuery = `
SELECT [x], [y],
CASE
 WHEN v039 > :t039 AND v039 - v108 > :diff_fire AND v039_std_dev > :std039_fire AND
      v108_std_dev < :std108_max
 THEN 2
 WHEN v039 > :t039 AND v039 - v108 > :diff_potential AND v039_std_dev > :std039_pot AND
      v108_std_dev < :std108_max
 THEN 1
 ELSE 0
END AS confidence
FROM (
 SELECT [x], [y], v039, v108,
  SQRT( v039_sqr_mean - v039_mean * v039_mean ) AS v039_std_dev,
  SQRT( v108_sqr_mean - v108_mean * v108_mean ) AS v108_std_dev
 FROM (
  SELECT [x], [y], v039, v108,
   AVG( v039 ) AS v039_mean, AVG( v039 * v039 ) AS v039_sqr_mean,
   AVG( v108 ) AS v108_mean, AVG( v108 * v108 ) AS v108_sqr_mean
  FROM (
   SELECT [T039.x], [T039.y], T039.v AS v039, T108.v AS v108
   FROM hrit_T039_image_array AS T039
   JOIN hrit_T108_image_array AS T108
   ON T039.x = T108.x AND T039.y = T108.y
  ) AS image_array
  GROUP BY image_array[x-1:x+2][y-1:y+2]
 ) AS tmp1
) AS tmp2`

// Process implements Chain.
func (c *SciQLChain) Process(sensor string, at time.Time) (*products.Product, error) {
	x0, x1, y0, y1 := cropWindow(c.Transform)

	// Stage 1 (SciQL): lazy vault load + crop by range query. The two
	// channels decode concurrently: these are the independent per-
	// acquisition stages of the real-time budget. The concurrent Execs
	// only read the engine catalog (their FROM is a table function), so
	// they are safe against each other; catalog mutation resumes after
	// the join.
	channels := []string{hrit.ChannelIR039, hrit.ChannelIR108}
	cropped := make([]*array.Dense, len(channels))
	errs := make([]error, len(channels))
	var wg sync.WaitGroup
	for i, ch := range channels {
		wg.Add(1)
		go func(i int, ch string) {
			defer wg.Done()
			frame, err := c.Engine.Exec(fmt.Sprintf(
				`SELECT [x], [y], v FROM hrit_load_image('%s') AS img WHERE x >= %d AND x < %d AND y >= %d AND y < %d`,
				vault.URI(ch, at), x0, x1, y0, y1))
			if err != nil {
				errs[i] = fmt.Errorf("core: sciql crop %s: %w", ch, err)
				return
			}
			d, err := frame.Dense("v")
			if err != nil {
				errs[i] = err
				return
			}
			cropped[i] = d
		}(i, ch)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Stage 2 (array kernel): georeference with the precalculated
	// polynomial, both channels at once, two goroutines splitting the
	// destination rows.
	geo := c.Transform.ApplyAll(2, cropped...)
	c.Engine.RegisterArray("hrit_T039_image_array", geo[0], "v")
	c.Engine.RegisterArray("hrit_T108_image_array", geo[1], "v")

	// Stage 3 (SciQL): the Figure 4 classification query.
	frame, err := c.Engine.ExecParams(c.classify, regionThresholds(c.Transform, at))
	if err != nil {
		return nil, fmt.Errorf("core: sciql classify: %w", err)
	}
	conf, err := frame.Dense("confidence")
	if err != nil {
		return nil, err
	}

	// Stage 4: output generation (pixel squares as WKT polygons).
	return products.Vectorize(conf, c.Transform, sensor, c.ChainName, at), nil
}

// LegacyChain is the imperative baseline: the same steps hand-coded in
// the style of the pre-TELEIOS C implementation.
type LegacyChain struct {
	Vault     *vault.Vault
	Transform georef.Transform
}

// NewLegacyChain wires the baseline over the same vault.
func NewLegacyChain(v *vault.Vault, tr georef.Transform) *LegacyChain {
	return &LegacyChain{Vault: v, Transform: tr}
}

// Name implements Chain.
func (c *LegacyChain) Name() string { return "legacy" }

// Process implements Chain.
func (c *LegacyChain) Process(sensor string, at time.Time) (*products.Product, error) {
	x0, x1, y0, y1 := cropWindow(c.Transform)
	t039, err := c.Vault.LoadTemperature(hrit.ChannelIR039, at)
	if err != nil {
		return nil, err
	}
	t108, err := c.Vault.LoadTemperature(hrit.ChannelIR108, at)
	if err != nil {
		return nil, err
	}
	crop039 := t039.Slice(x0, x1, y0, y1)
	crop108 := t108.Slice(x0, x1, y0, y1)
	geo039 := c.Transform.Apply(crop039)
	geo108 := c.Transform.Apply(crop108)
	// Uniform regime per acquisition, like the SciQL chain: both chains
	// evaluate the zenith once at the region centre.
	lon, lat := c.Transform.PixelToGeo(c.Transform.DstWidth/2, c.Transform.DstHeight/2)
	zen := solar.ZenithAngle(at, lon, lat)
	conf := detect.LegacyClassify(geo039, geo108, func(x, y int) float64 { return zen })
	return products.Vectorize(conf, c.Transform, sensor, "legacy", at), nil
}

// IngestAcquisition attaches a raw acquisition's segment files to the
// vault (the ground-station dispatch step).
func IngestAcquisition(v *vault.Vault, acq *seviri.RawAcquisition) error {
	for ch, files := range acq.Segments {
		for i, raw := range files {
			name := fmt.Sprintf("%s_%s_%s_seg%d.hrit", acq.Sensor.Name, ch,
				acq.Timestamp.UTC().Format("20060102T150405"), i)
			if err := v.AttachBytes(name, raw); err != nil {
				return err
			}
		}
	}
	return nil
}
