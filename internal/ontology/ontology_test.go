package ontology

import (
	"testing"

	"repro/internal/rdf"
)

// TestIRIsMatchNamespaces pins every exported IRI to its namespace
// prefix and local name, and every namespace base to the prefix the
// query parser binds it under (rdf.NewNamespaces), so a typo in either
// place breaks here instead of silently matching nothing in a rule or a
// query.
func TestIRIsMatchNamespaces(t *testing.T) {
	ns := rdf.NewNamespaces()
	for base, prefix := range map[string]string{
		NOA: "noa", CLC: "clc", Coast: "coast", GAG: "gag", LGD: "lgd", LGDO: "lgdo",
		GN: "gn", SWEET: "sweet", StRDF: "strdf", RDFS: "rdfs", OWL: "owl",
	} {
		if got, err := ns.Expand(prefix + ":"); err != nil || got != base {
			t.Errorf("prefix %s: expands to %q (%v), want %q", prefix, got, err, base)
		}
	}
	if GNRes != "http://sws.geonames.org/" {
		t.Errorf("GNRes = %q", GNRes)
	}

	for _, c := range []struct{ iri, qname string }{
		{ClassRawData, "noa:RawData"},
		{ClassShapefile, "noa:Shapefile"},
		{ClassHotspot, "noa:Hotspot"},
		{PropAcquisitionDateTime, "noa:hasAcquisitionDateTime"},
		{PropConfidence, "noa:hasConfidence"},
		{PropConfirmation, "noa:hasConfirmation"},
		{PropSensor, "noa:isDerivedFromSensor"},
		{PropSatellite, "noa:isDerivedFromSatellite"},
		{PropProducedBy, "noa:isProducedBy"},
		{PropProcessingChain, "noa:isFromProcessingChain"},
		{PropFilename, "noa:hasFilename"},
		{PropIsInMunicipality, "noa:isInMunicipality"},
		{PropExtractedFrom, "noa:isExtractedFrom"},
		{HasGeometry, "strdf:hasGeometry"},
		{ConfirmedFire, "noa:confirmed"},
		{UnconfirmedFire, "noa:unconfirmed"},
		{ClassCLCArea, "clc:Area"},
		{PropLandUse, "clc:hasLandUse"},
		{PropCLCCode, "clc:hasCode"},
		{ClassArtifial, "clc:ArtificialSurface"},
		{ClassAgri, "clc:AgriculturalArea"},
		{ClassForestSN, "clc:ForestAndSemiNaturalArea"},
		{ClassWater, "clc:WaterBody"},
		{ClassUrbanFabric, "clc:ContinuousUrbanFabric"},
		{ClassArable, "clc:NonIrrigatedArableLand"},
		{ClassConiferous, "clc:ConiferousForest"},
		{ClassSclerophyll, "clc:SclerophyllousVegetation"},
		{ClassSea, "clc:SeaAndOcean"},
		{ClassCoastline, "coast:Coastline"},
		{ClassMunicipality, "gag:Municipality"},
		{ClassPrefecture, "gag:Prefecture"},
		{PropPopulation, "gag:hasPopulation"},
		{PropIsPartOf, "gag:isPartOf"},
		{PropYpesCode, "gag:hasYpesCode"},
		{ClassLGDNode, "lgdo:Node"},
		{ClassLGDWay, "lgdo:Way"},
		{ClassLGDAmenity, "lgdo:Amenity"},
		{ClassLGDFireStation, "lgdo:FireStation"},
		{ClassLGDHospital, "lgdo:Hospital"},
		{ClassLGDPrimary, "lgdo:Primary"},
		{PropLGDDirectType, "lgdo:directType"},
		{ClassGNFeature, "gn:Feature"},
		{PropGNName, "gn:name"},
		{PropGNAltName, "gn:alternateName"},
		{PropGNCountryCode, "gn:countryCode"},
		{PropGNFeatureClass, "gn:featureClass"},
		{PropGNFeatureCode, "gn:featureCode"},
		{PropGNParentADM1, "gn:parentADM1"},
		{CodePPLA, "gn:P.PPLA"},
		{CodePPL, "gn:P.PPL"},
		{PropLabel, "rdfs:label"},
		{PropSubClassOf, "rdfs:subClassOf"},
	} {
		if got, err := ns.Expand(c.qname); err != nil || got != c.iri {
			t.Errorf("%s expands to %q (%v), constant is %q", c.qname, got, err, c.iri)
		}
	}

	for cover := range FireInconsistentCovers {
		if got, _ := ns.Expand("clc:" + cover[len(CLC):]); got != cover {
			t.Errorf("fire-inconsistent cover %q is not a clc: term", cover)
		}
	}
}
