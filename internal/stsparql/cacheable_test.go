package stsparql

import "testing"

// TestCacheableShapes enumerates the plan shapes the result cache must
// refuse — every position a SAMPLE aggregate can hide in, plus updates
// — against the deterministic shapes that stay cacheable. The verdict
// is made on the parsed query; a wrong true here would let the serving
// tier pin one arbitrary SAMPLE representative forever.
func TestCacheableShapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		want bool
	}{
		{"plain select", `SELECT ?h WHERE { ?h a noa:Hotspot . }`, true},
		{"ask", `ASK { ?h a noa:Hotspot . }`, true},
		{"deterministic aggregate", `SELECT (COUNT(?h) AS ?n) WHERE { ?h a noa:Hotspot . }`, true},
		{"order limit offset", `SELECT ?h ?c WHERE { ?h noa:hasConfidence ?c . } ORDER BY DESC(?c) LIMIT 5 OFFSET 2`, true},
		{"optional union filter", `SELECT ?h WHERE {
  { ?h a noa:Hotspot . } UNION { ?h a gag:Municipality . }
  OPTIONAL { ?h noa:hasConfidence ?c . }
  FILTER( !BOUND(?c) || ?c > 0.5 )
}`, true},
		{"subselect", `SELECT ?h WHERE { { SELECT ?h WHERE { ?h a noa:Hotspot . } LIMIT 3 } }`, true},

		{"sample in projection", `SELECT (SAMPLE(?c) AS ?s) WHERE { ?h noa:hasConfidence ?c . }`, false},
		{"sample nested in projection expr", `SELECT (SAMPLE(?c) + 1 AS ?s) WHERE { ?h noa:hasConfidence ?c . }`, false},
		{"sample in having", `SELECT ?s (COUNT(?h) AS ?n) WHERE { ?h noa:isProducedBy ?s ; noa:hasConfidence ?c . } GROUP BY ?s HAVING ( SAMPLE(?c) > 0.5 )`, false},
		{"sample in order by", `SELECT ?s WHERE { ?h noa:isProducedBy ?s ; noa:hasConfidence ?c . } GROUP BY ?s ORDER BY DESC(SAMPLE(?c))`, false},
		{"sample in subselect", `SELECT ?s WHERE { { SELECT ?s (SAMPLE(?c) AS ?x) WHERE { ?h noa:isProducedBy ?s ; noa:hasConfidence ?c . } GROUP BY ?s } }`, false},
		{"sample in union branch subselect", `SELECT ?s WHERE {
  { ?s a gag:Municipality . }
  UNION
  { { SELECT ?s (SAMPLE(?c) AS ?x) WHERE { ?h noa:isProducedBy ?s ; noa:hasConfidence ?c . } GROUP BY ?s } }
}`, false},
		{"sample in optional subselect", `SELECT ?s WHERE {
  ?s a gag:Municipality .
  OPTIONAL { { SELECT ?s (SAMPLE(?c) AS ?x) WHERE { ?h noa:isProducedBy ?s ; noa:hasConfidence ?c . } GROUP BY ?s } }
}`, false},
		{"update", `INSERT DATA { <http://example.org/h1> a noa:Hotspot . }`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := mustParse(t, tc.src)
			if got := Cacheable(q); got != tc.want {
				t.Fatalf("Cacheable = %v, want %v for:\n%s", got, tc.want, tc.src)
			}
		})
	}
	if Cacheable(nil) {
		t.Fatal("nil query reported cacheable")
	}
}
