package shard

import (
	"testing"

	"repro/internal/rdf"
	"repro/internal/stsparql"
)

// benchmarkShapes are the query shapes the repository benchmark sends:
// a window join against the municipalities, ordered or not, its
// per-municipality count, a top-k listing and the live counter.
var benchmarkShapes = []string{
	`SELECT ?h ?m WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?hg .
  ?m a gag:Municipality ; strdf:hasGeometry ?mg .
  FILTER( str(?at) >= "2007-08-25T10:05:17" )
  FILTER( str(?at) <= "2007-08-25T14:05:17" )
  FILTER( strdf:anyInteract(?hg, ?mg) )
}
ORDER BY ?h ?m`,
	`SELECT ?m (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?hg .
  ?m a gag:Municipality ; strdf:hasGeometry ?mg .
  FILTER( str(?at) >= "2007-08-25T11:00:00" )
  FILTER( str(?at) <= "2007-08-25T11:59:00" )
  FILTER( strdf:anyInteract(?hg, ?mg) )
} GROUP BY ?m`,
	`SELECT ?h ?at ?c WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; noa:hasConfidence ?c .
  FILTER( str(?at) >= "2007-08-25T12:00:00" )
  FILTER( str(?at) <= "2007-08-25T12:59:00" )
}
ORDER BY DESC(str(?at)) ?h LIMIT 10`,
	`SELECT (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  FILTER( str(?at) >= "2007-08-25T13:00:00" )
}`,
}

// FuzzParse: the parser an HTTP client reaches must not panic on any
// text, and whatever it accepts must plan — over an empty store and
// through an empty sharded store's routing — without panicking either.
func FuzzParse(f *testing.F) {
	for _, tc := range corpus {
		f.Add(tc.query)
	}
	for _, tc := range askCorpus {
		f.Add(tc.query)
	}
	for _, text := range benchmarkShapes {
		f.Add(text)
	}
	sh := newSharded(2)
	ev := stsparql.NewEvaluator(rdf.NewStore())
	f.Fuzz(func(t *testing.T, text string) {
		q, err := stsparql.Parse(text, sh.Namespaces())
		if err != nil {
			return
		}
		ev.Compile(q)
		if _, err := ev.Explain(q); err != nil {
			t.Fatalf("parsed but does not plan: %v\n%s", err, text)
		}
		if _, err := sh.Explain(text); err != nil {
			t.Fatalf("parsed but does not route: %v\n%s", err, text)
		}
	})
}
