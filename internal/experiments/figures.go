package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/accuracy"
	"repro/internal/auxdata"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mapgen"
	"repro/internal/modis"
	"repro/internal/ontology"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// geomsOf parses the geometry bindings of a query result column.
func geomsOf(res *stsparql.Result, geomVar, labelVar string) ([]geom.Geometry, []string) {
	var gs []geom.Geometry
	var labels []string
	gc, lc := res.Col(geomVar), res.Col(labelVar)
	if gc < 0 {
		return nil, nil
	}
	for _, row := range res.Rows {
		t := row[gc]
		if t.IsZero() {
			continue
		}
		g, err := geom.ParseWKT(t.Value)
		if err != nil {
			continue
		}
		gs = append(gs, g)
		label := ""
		if lc >= 0 {
			label = row[lc].Value
		}
		labels = append(labels, label)
	}
	return gs, labels
}

// Figure2 regenerates the paper's Figure 2: a detailed vector
// representation of detected fires over the coastline and road network.
func Figure2(seed int64, window time.Duration) (*mapgen.Map, error) {
	svc, prods, err := CollectProducts(seed, window)
	if err != nil {
		return nil, err
	}
	world := svc.Sim.Scenario.World
	m := mapgen.New(auxdata.Region, "Figure 2: vector representation of detected fires")
	var land []geom.Geometry
	for _, p := range world.Land {
		land = append(land, p)
	}
	m.AddLayer(mapgen.Layer{Name: "Coastline", Stroke: "#7a6a4f", Fill: "#f3ecd9", Geoms: land})
	var roads []geom.Geometry
	for _, r := range world.Roads {
		roads = append(roads, r.Path)
	}
	m.AddLayer(mapgen.Layer{Name: "Primary roads", Stroke: "#c04000", Width: 1.2, Geoms: roads})
	var fires []geom.Geometry
	for _, p := range prods {
		for _, h := range p.Hotspots {
			fires = append(fires, h.Geometry)
		}
	}
	m.AddLayer(mapgen.Layer{Name: "MSG/SEVIRI hotspots", Stroke: "#990000", Fill: "#ff2200", Opacity: 0.6, Geoms: fires})
	return m, nil
}

// Figure6Queries are the five stSPARQL queries of Section 3.2.4, adapted
// only in the dataset prefixes (the paper mixes noa:hasGeometry and
// strdf:hasGeometry; the synthetic datasets use strdf: throughout). The
// window polygon is the paper's south-eastern-Peloponnese analogue in the
// synthetic region.
func Figure6Queries(window geom.Envelope, from, to time.Time) map[string]string {
	wkt := geom.WKT(window.ToPolygon())
	q := make(map[string]string)
	q["hotspots"] = fmt.Sprintf(`
SELECT ?hotspot ?hGeo ?hAcqTime ?hConfidence ?hSensor
WHERE {
  ?hotspot a noa:Hotspot ;
    strdf:hasGeometry ?hGeo ;
    noa:hasAcquisitionDateTime ?hAcqTime ;
    noa:hasConfidence ?hConfidence ;
    noa:isDerivedFromSensor ?hSensor ;
  FILTER( "%s" <= str(?hAcqTime) ) .
  FILTER( str(?hAcqTime) <= "%s" ) .
  FILTER( strdf:contains("%s"^^strdf:WKT, ?hGeo)).
}`, from.UTC().Format("2006-01-02T15:04:05"), to.UTC().Format("2006-01-02T15:04:05"), wkt)
	q["landcover"] = fmt.Sprintf(`
SELECT ?area ?aGeo ?aLandUse
WHERE {
  ?area a clc:Area ;
    clc:hasLandUse ?aLandUse ;
    strdf:hasGeometry ?aGeo .
  FILTER( strdf:anyInteract("%s"^^strdf:WKT, ?aGeo) ) . }`, wkt)
	q["roads"] = fmt.Sprintf(`
SELECT ?road ?rGeo
WHERE {
  ?road a lgdo:Primary ;
    strdf:hasGeometry ?rGeo .
  FILTER( strdf:anyInteract("%s"^^strdf:WKT, ?rGeo) ) .}`, wkt)
	q["capitals"] = fmt.Sprintf(`
SELECT ?n ?nName ?nGeo
WHERE {
  ?n a gn:Feature ;
    strdf:hasGeometry ?nGeo ;
    gn:name ?nName ;
    gn:featureCode <%s> .
  FILTER( strdf:contains("%s"^^strdf:WKT, ?nGeo))}`, ontology.CodePPLA, wkt)
	q["municipalities"] = fmt.Sprintf(`
SELECT ?municipality ?mYpesCode ?mContainer ?mLabel
  ( strdf:boundary(?mGeo) as ?mBoundary )
WHERE {
  ?municipality a gag:Municipality ;
    gag:hasYpesCode ?mYpesCode ;
    gag:isPartOf ?mContainer ;
    rdfs:label ?mLabel ;
    strdf:hasGeometry ?mGeo .
  FILTER( strdf:anyInteract("%s"^^strdf:WKT, ?mGeo) ) . }`, wkt)
	return q
}

// Figure6 regenerates the paper's Figure 6: the overlay map built from
// Queries 1–5.
func Figure6(svc *core.Service, window geom.Envelope, from, to time.Time) (*mapgen.Map, error) {
	queries := Figure6Queries(window, from, to)
	run := func(name string) (*stsparql.Result, error) {
		res, err := strabon.MaterialiseQuery(context.Background(), svc.Strabon, queries[name])
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 6 query %q: %w", name, err)
		}
		return res, nil
	}
	m := mapgen.New(window, "Figure 6: thematic map from stSPARQL queries")

	lc, err := run("landcover")
	if err != nil {
		return nil, err
	}
	lcG, _ := geomsOf(lc, "aGeo", "")
	m.AddLayer(mapgen.Layer{Name: "Corine land cover", Stroke: "#8aa86d", Fill: "#d9e8c4", Opacity: 0.8, Geoms: lcG})

	mun, err := run("municipalities")
	if err != nil {
		return nil, err
	}
	munG, munL := geomsOf(mun, "mBoundary", "mLabel")
	m.AddLayer(mapgen.Layer{Name: "Municipality boundaries", Stroke: "#555588", Width: 1, Geoms: munG, Labels: munL})

	roads, err := run("roads")
	if err != nil {
		return nil, err
	}
	roadG, _ := geomsOf(roads, "rGeo", "")
	m.AddLayer(mapgen.Layer{Name: "Primary roads", Stroke: "#c04000", Width: 1.4, Geoms: roadG})

	hs, err := run("hotspots")
	if err != nil {
		return nil, err
	}
	hsG, _ := geomsOf(hs, "hGeo", "")
	m.AddLayer(mapgen.Layer{Name: "Hotspots", Stroke: "#990000", Fill: "#ff2200", Opacity: 0.65, Geoms: hsG})

	caps, err := run("capitals")
	if err != nil {
		return nil, err
	}
	capG, capL := geomsOf(caps, "nGeo", "nName")
	m.AddLayer(mapgen.Layer{Name: "Prefecture capitals", Stroke: "#000000", Fill: "#222266", Geoms: capG, Labels: capL})

	m.SortLayersBottomUp()
	return m, nil
}

// Figure7 regenerates the paper's Figure 7: the MODIS-vs-MSG overlay
// exposing false alarms and omissions, over the coastline.
func Figure7(seed int64, window time.Duration) (*mapgen.Map, error) {
	svc, prods, err := CollectProducts(seed, window)
	if err != nil {
		return nil, err
	}
	world := svc.Sim.Scenario.World
	start := prods[0].AcquiredAt
	var modisPts []geom.Geometry
	for _, op := range modis.OverpassesFor(start.Truncate(24*time.Hour), 1) {
		for _, h := range modis.Detect(svc.Sim.Scenario, op) {
			if d := op.Time.Sub(start); d >= -accuracy.MergeWindow && d <= window+accuracy.MergeWindow {
				modisPts = append(modisPts, h.Location)
			}
		}
	}
	m := mapgen.New(auxdata.Region, "Figure 7: false alarms and omissions (MSG vs MODIS)")
	var land []geom.Geometry
	for _, p := range world.Land {
		land = append(land, p)
	}
	m.AddLayer(mapgen.Layer{Name: "Greek coastline", Stroke: "#7a6a4f", Fill: "#f3ecd9", Geoms: land})
	var fires []geom.Geometry
	for _, p := range prods {
		for _, h := range p.Hotspots {
			fires = append(fires, h.Geometry)
		}
	}
	m.AddLayer(mapgen.Layer{Name: "MSG/SEVIRI hotspots", Stroke: "#990000", Fill: "#ff9955", Opacity: 0.7, Geoms: fires})
	m.AddLayer(mapgen.Layer{Name: "MODIS hotspots", Stroke: "#003399", Fill: "#2255ff", Geoms: modisPts})
	return m, nil
}
