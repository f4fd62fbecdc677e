package products

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/georef"
	"repro/internal/ontology"
	"repro/internal/rdf"
)

func testTransform() georef.Transform {
	return georef.Transform{
		DstWidth: 10, DstHeight: 10,
		LonMin: 20, LatMax: 40, LonStep: 0.04, LatStep: 0.04,
	}
}

func TestVectorize(t *testing.T) {
	conf := array.New(10, 10)
	conf.Set(2, 3, 2) // fire
	conf.Set(5, 5, 1) // potential
	at := time.Date(2007, 8, 24, 18, 15, 0, 0, time.UTC)
	p := Vectorize(conf, testTransform(), "MSG2", "sciql", at)
	if len(p.Hotspots) != 2 {
		t.Fatalf("hotspots = %d", len(p.Hotspots))
	}
	fire := p.Hotspots[0]
	if fire.Confidence != 1.0 || !fire.Confirmation {
		t.Fatalf("fire hotspot = %+v", fire)
	}
	// The pixel square must be centred on the pixel's geographic centre.
	lon, lat := testTransform().PixelToGeo(2, 3)
	c := fire.Geometry.Centroid()
	if math.Abs(c.X-lon) > 1e-9 || math.Abs(c.Y-lat) > 1e-9 {
		t.Fatalf("centroid %v vs pixel centre (%g,%g)", c, lon, lat)
	}
	if a := fire.Geometry.Area(); math.Abs(a-0.04*0.04) > 1e-12 {
		t.Fatalf("pixel area = %g", a)
	}
	pot := p.Hotspots[1]
	if pot.Confidence != 0.5 || pot.Confirmation {
		t.Fatalf("potential hotspot = %+v", pot)
	}
}

func TestHotspotTriples(t *testing.T) {
	h := Hotspot{
		ID:         "MSG2_20070824T181500_1",
		Geometry:   geom.NewSquare(21.54, 37.89, 0.04),
		Confidence: 1.0, Confirmation: true,
		AcquiredAt: time.Date(2007, 8, 24, 18, 15, 0, 0, time.UTC),
		Sensor:     "MSG2", Chain: "sciql", Producer: "noa",
	}
	triples := h.Triples()
	if len(triples) != 8 {
		t.Fatalf("triples = %d, want 8 (the paper's example shape)", len(triples))
	}
	s := rdf.NewStore()
	for _, tp := range triples {
		s.Add(tp)
	}
	// Spot-check the example's predicates.
	for _, pred := range []string{
		ontology.PropAcquisitionDateTime, ontology.PropConfidence,
		ontology.PropConfirmation, ontology.HasGeometry,
		ontology.PropSensor, ontology.PropProducedBy, ontology.PropProcessingChain,
	} {
		pid, ok := s.Dict().Lookup(rdf.NewIRI(pred))
		if !ok || s.CountIDs(0, pid, 0) != 1 {
			t.Fatalf("predicate %s missing", pred)
		}
	}
	// The geometry literal parses.
	var wkt string
	hasGeom, _ := s.Dict().Lookup(rdf.NewIRI(ontology.HasGeometry))
	s.MatchIDs(rdf.Wildcard, hasGeom, rdf.Wildcard, func(tp rdf.EncodedTriple) bool {
		wkt = s.Dict().Decode(tp.O).Value
		return false
	})
	if _, err := geom.ParseWKT(wkt); err != nil {
		t.Fatal(err)
	}
}

func TestProductTriplesLinkage(t *testing.T) {
	conf := array.New(4, 4)
	conf.Set(1, 1, 2)
	p := Vectorize(conf, testTransform(), "MSG1", "sciql",
		time.Date(2010, 8, 22, 12, 0, 0, 0, time.UTC))
	triples := p.Triples()
	s := rdf.NewStore()
	for _, tp := range triples {
		s.Add(tp)
	}
	tid, _ := s.Dict().Lookup(rdf.NewIRI(rdf.RDFType))
	shpID, ok := s.Dict().Lookup(rdf.NewIRI(ontology.ClassShapefile))
	if !ok || s.CountIDs(rdf.Wildcard, tid, shpID) != 1 {
		t.Fatal("shapefile individual missing")
	}
	exID, ok := s.Dict().Lookup(rdf.NewIRI(ontology.PropExtractedFrom))
	if !ok || s.CountIDs(0, exID, 0) != 1 {
		t.Fatal("hotspot not linked to its shapefile")
	}
	if p.Filename() == "" {
		t.Fatal("empty dissemination filename")
	}
}

func TestSHPRoundTrip(t *testing.T) {
	conf := array.New(6, 6)
	conf.Set(1, 1, 2)
	conf.Set(4, 2, 1)
	conf.Set(3, 5, 2)
	p := Vectorize(conf, testTransform(), "MSG1", "legacy",
		time.Date(2010, 8, 22, 12, 5, 0, 0, time.UTC))
	var buf bytes.Buffer
	if err := p.WriteSHP(&buf); err != nil {
		t.Fatal(err)
	}
	polys, err := ReadSHP(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(polys) != 3 {
		t.Fatalf("read %d polygons", len(polys))
	}
	for i, poly := range polys {
		want := p.Hotspots[i].Geometry
		if math.Abs(poly.Area()-want.Area()) > 1e-12 {
			t.Fatalf("polygon %d area %g vs %g", i, poly.Area(), want.Area())
		}
		if !geom.Equals(poly, want) {
			t.Fatalf("polygon %d geometry drifted", i)
		}
	}
}

func TestSHPEmptyProduct(t *testing.T) {
	p := &Product{Sensor: "MSG1", Chain: "sciql", AcquiredAt: time.Now()}
	var buf bytes.Buffer
	if err := p.WriteSHP(&buf); err != nil {
		t.Fatal(err)
	}
	polys, err := ReadSHP(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(polys) != 0 {
		t.Fatalf("empty product produced %d polygons", len(polys))
	}
}

func TestReadSHPRejectsGarbage(t *testing.T) {
	if _, err := ReadSHP(bytes.NewReader([]byte("not a shapefile"))); err == nil {
		t.Fatal("garbage accepted")
	}
}
