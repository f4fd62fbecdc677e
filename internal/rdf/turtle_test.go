package rdf_test

import (
	"testing"

	"repro/internal/rdf"
	"repro/internal/stsparql"
)

// The Turtle documents below load through stsparql.ParseTurtle, the
// reader every Turtle load goes through; they pin the triples rdf's
// terms come out as.

func TestParseTurtlePaperExample(t *testing.T) {
	// The hotspot example from Section 3.2.2 of the paper, verbatim
	// modulo whitespace.
	src := `
noa:Hotspot_1 a noa:Hotspot ;
  noa:hasAcquisitionDateTime "2007-08-24T18:15:00"^^xsd:dateTime;
  noa:hasConfidence 1.0 ;
  noa:hasConfirmation noa:confirmed ;
  strdf:hasGeometry "POLYGON ((21.52 37.91,21.57 37.91,21.56 37.88,21.56 37.88,21.52 37.87,21.52 37.91))"^^strdf:geometry ;
  noa:isDerivedFromSensor "MSG2"^^xsd:string ;
  noa:isProducedBy noa:noa ;
  noa:isFromProcessingChain "cloud-masked"^^xsd:string .
`
	triples, err := stsparql.ParseTurtle(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 8 {
		t.Fatalf("parsed %d triples, want 8", len(triples))
	}
	var geomFound, dtFound, confFound bool
	for _, tp := range triples {
		if tp.O.IsGeometry() {
			geomFound = true
		}
		if tp.O.Datatype == rdf.XSDDateTime {
			dtFound = true
		}
		if v, ok := tp.O.Float(); ok && v == 1.0 && tp.O.Datatype == rdf.XSDDouble {
			confFound = true
		}
	}
	if !geomFound || !dtFound || !confFound {
		t.Fatalf("missing literal kinds: geom=%v dt=%v conf=%v", geomFound, dtFound, confFound)
	}
}

func TestParseTurtleGeoNamesExample(t *testing.T) {
	src := `
<http://sws.geonames.org/255683/> a gn:Feature ;
  gn:alternateName "Patrae" ;
  gn:alternateName "Patras"@en ;
  gn:name "Patras" ;
  gn:countryCode "GR" ;
  gn:featureClass gn:P ;
  gn:parentCountry <http://sws.geonames.org/390903/> ;
  strdf:hasGeometry "POINT(21.73 38.24)"^^strdf:geometry .
`
	triples, err := stsparql.ParseTurtle(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 8 {
		t.Fatalf("parsed %d triples, want 8", len(triples))
	}
	var langLit bool
	for _, tp := range triples {
		if tp.O.Lang == "en" && tp.O.Value == "Patras" {
			langLit = true
		}
	}
	if !langLit {
		t.Fatal("language-tagged literal not parsed")
	}
}

func TestParseTurtleDirectivesAndLists(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
ex:s ex:p ex:o1, ex:o2, ex:o3 .
ex:s2 ex:q 42 ; ex:r 3.14 ; ex:t true .
_:b1 ex:p ex:o1 .
# a comment line
ex:s3 ex:u "multi\nline" .
`
	triples, err := stsparql.ParseTurtle(src, rdf.NewNamespaces())
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 8 {
		t.Fatalf("parsed %d triples, want 8", len(triples))
	}
	if triples[0].O.Value != "http://example.org/o1" {
		t.Fatalf("object list first = %v", triples[0].O)
	}
	if triples[6].S.Kind != rdf.TermBlank {
		t.Fatalf("blank subject = %v", triples[6].S)
	}
}

func TestParseTurtleErrors(t *testing.T) {
	for _, src := range []string{
		`ex:s ex:p ex:o .`,                // unknown prefix
		`@prefix ex <http://e/> .`,        // missing colon
		`<http://e/s> <http://e/p>`,       // missing object and dot
		`"lit" <http://e/p> "x" .`,        // literal subject
		`<http://e/s> "p" <http://e/o> .`, // literal predicate
		`<http://e/s> <http://e/p> "unterminated .`,
	} {
		if _, err := stsparql.ParseTurtle(src, nil); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestTurtleRoundTrip(t *testing.T) {
	// The four term kinds a product's RDF-ization writes: IRIs, a typed
	// number, a WKT geometry and a language-tagged label.
	src := `@prefix ex: <http://example.org/> .
@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

ex:h1 a ex:Hotspot ;
    ex:conf "0.5"^^xsd:float ;
    ex:geo "POINT (1 2)"^^strdf:geometry .
ex:h2 ex:label "Αθήνα"@el .
`
	want := []rdf.Triple{
		{S: rdf.NewIRI("http://example.org/h1"), P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI("http://example.org/Hotspot")},
		{S: rdf.NewIRI("http://example.org/h1"), P: rdf.NewIRI("http://example.org/conf"), O: rdf.NewFloat(0.5)},
		{S: rdf.NewIRI("http://example.org/h1"), P: rdf.NewIRI("http://example.org/geo"), O: rdf.NewGeometry("POINT (1 2)")},
		{S: rdf.NewIRI("http://example.org/h2"), P: rdf.NewIRI("http://example.org/label"), O: rdf.NewLangLiteral("Αθήνα", "el")},
	}
	got, err := stsparql.ParseTurtle(src, rdf.NewNamespaces())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d triples, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if !got[i].S.Equal(want[i].S) || !got[i].P.Equal(want[i].P) || !got[i].O.Equal(want[i].O) {
			t.Fatalf("triple %d = %v, want %v", i, got[i], want[i])
		}
	}
}
