// Thematicmap: runs the five stSPARQL queries of Section 3.2.4 against a
// serviced store and renders the Figure 6 overlay map as SVG plus a
// GeoJSON export for GIS tools (the paper's QGIS / GoogleEarth workflow).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/strabon"
)

func main() {
	svc, prods, err := experiments.CollectProducts(42, 15*time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, p := range prods {
		total += len(p.Hotspots)
	}
	fmt.Printf("serviced %d acquisitions, %d hotspots stored\n", len(prods), total)

	window := geom.Envelope{MinX: 20.5, MinY: 36.0, MaxX: 24.5, MaxY: 39.5}
	from := time.Date(2007, 8, 24, 0, 0, 0, 0, time.UTC)

	// Show the five queries and their result sizes.
	for name, q := range experiments.Figure6Queries(window, from, from.Add(24*time.Hour)) {
		start := time.Now()
		res, err := strabon.MaterialiseQuery(context.Background(), svc.Strabon, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %-15s -> %4d rows in %v\n", name, len(res.Rows), time.Since(start).Round(time.Millisecond))
	}

	m, err := experiments.Figure6(svc, window, from, from.Add(24*time.Hour))
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("thematicmap.svg", []byte(m.SVG(900)), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("thematicmap.geojson", []byte(m.GeoJSON()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote thematicmap.svg and thematicmap.geojson")
}
