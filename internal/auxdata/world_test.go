package auxdata

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/ontology"
	"repro/internal/rdf"
)

func TestGenerateDeterministic(t *testing.T) {
	w1 := Generate(42)
	w2 := Generate(42)
	if len(w1.Municipalities) != len(w2.Municipalities) || len(w1.Towns) != len(w2.Towns) {
		t.Fatal("same seed produced different worlds")
	}
	if len(w1.Towns) > 0 && !w1.Towns[0].Location.Equals(w2.Towns[0].Location) {
		t.Fatal("town positions differ across runs")
	}
	w3 := Generate(7)
	if len(w3.Towns) > 0 && len(w1.Towns) > 0 && w3.Towns[0].Location.Equals(w1.Towns[0].Location) {
		t.Fatal("different seeds produced identical towns")
	}
}

func TestWorldHasSubstance(t *testing.T) {
	w := Generate(42)
	if len(w.Land) < 2 {
		t.Fatalf("land polygons = %d", len(w.Land))
	}
	if len(w.Municipalities) < 5 {
		t.Fatalf("municipalities = %d", len(w.Municipalities))
	}
	if len(w.Towns) < 5 {
		t.Fatalf("towns = %d", len(w.Towns))
	}
	if len(w.Cover) < 20 {
		t.Fatalf("cover cells = %d", len(w.Cover))
	}
	if len(w.FireStations) == 0 || len(w.Roads) == 0 {
		t.Fatal("no infrastructure")
	}
}

func TestTownsAreOnLand(t *testing.T) {
	w := Generate(42)
	for _, town := range w.Towns {
		if !w.LandAt(town.Location) {
			t.Fatalf("town %s is in the sea at %v", town.Name, town.Location)
		}
	}
}

func TestMunicipalitiesLieOnLand(t *testing.T) {
	w := Generate(42)
	for _, m := range w.Municipalities {
		c := geom.Centroid(m.Geometry)
		// The centroid of a clipped coastal municipality can fall in a
		// bay; accept either on-land or within a small distance of land.
		if !w.LandAt(c) {
			onLand := false
			for _, land := range w.Land {
				if geom.Intersects(m.Geometry, land) {
					onLand = true
					break
				}
			}
			if !onLand {
				t.Fatalf("municipality %s does not touch land", m.ID)
			}
		}
	}
}

func TestCoverConsistency(t *testing.T) {
	w := Generate(42)
	// Points sampled from generator helpers must classify consistently.
	r := newRand(w.Seed)
	for i := 0; i < 20; i++ {
		if p, ok := w.RandomForestPoint(r); ok {
			if c := w.CoverAt(p); c != CoverForest && c != CoverScrub {
				t.Fatalf("forest point classifies as %v", c)
			}
			if !w.LandAt(p) {
				t.Fatal("forest point in the sea")
			}
		}
		if p, ok := w.RandomAgriculturalPoint(r); ok {
			if w.CoverAt(p) != CoverAgricultural {
				t.Fatal("agricultural point misclassified")
			}
		}
		if p, ok := w.CoastPoint(r); ok {
			if w.LandAt(p) {
				t.Fatal("coast (sea) point on land")
			}
		}
	}
	// Deep sea is sea.
	if w.CoverAt(geom.Point{X: 25.9, Y: 35.05}) != CoverSea {
		// This corner may rarely be land; only check when it is sea.
		if !w.LandAt(geom.Point{X: 25.9, Y: 35.05}) {
			t.Fatal("sea point not classified as sea")
		}
	}
}

func TestRDFExports(t *testing.T) {
	w := Generate(42)
	all := w.AllTriples()
	if len(all) < 500 {
		t.Fatalf("only %d triples", len(all))
	}
	s := rdf.NewStore()
	for _, tp := range all {
		s.Add(tp)
	}
	// Every exported geometry literal must be parseable WKT.
	bad := 0
	hasGeom, _ := s.Dict().Lookup(rdf.NewIRI(ontology.HasGeometry))
	s.MatchIDs(rdf.Wildcard, hasGeom, rdf.Wildcard, func(tp rdf.EncodedTriple) bool {
		if _, err := geom.ParseWKT(s.Dict().Decode(tp.O).Value); err != nil {
			bad++
		}
		return true
	})
	if bad > 0 {
		t.Fatalf("%d unparseable geometry literals", bad)
	}
	// Dataset classes present.
	for _, class := range []string{
		ontology.ClassCoastline, ontology.ClassCLCArea, ontology.ClassMunicipality,
		ontology.ClassLGDFireStation, ontology.ClassGNFeature, ontology.ClassPrefecture,
	} {
		cid, ok := s.Dict().Lookup(rdf.NewIRI(class))
		if !ok {
			t.Fatalf("class %s missing", class)
		}
		tid, _ := s.Dict().Lookup(rdf.NewIRI(rdf.RDFType))
		if s.CountIDs(rdf.Wildcard, tid, cid) == 0 {
			t.Fatalf("no instances of %s", class)
		}
	}
}

func TestPrefectureCapitals(t *testing.T) {
	w := Generate(42)
	caps := 0
	for _, town := range w.Towns {
		if town.Capital {
			caps++
			if town.Prefecture == "" {
				t.Fatalf("capital %s has no prefecture", town.Name)
			}
		}
	}
	if caps == 0 {
		t.Fatal("no prefecture capitals")
	}
}
