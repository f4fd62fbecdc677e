package strabon

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/resultcache"
)

// TestQueryConstantsMatchLoadedLiterals: a query constant decodes like
// the Turtle literal a load stored, so a query can name it. The lexer
// reads both.
func TestQueryConstantsMatchLoadedLiterals(t *testing.T) {
	s := New()
	if _, err := s.LoadTurtle(`@prefix ex: <http://example.org/> .
ex:cr ex:v "a\rb" .
ex:gb ex:v "x"@en-GB .
ex:up ex:v "x"@EN .
ex:esc ex:v "tab\tquote\"ué\U0001F525" .
`); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ constant, subject string }{
		{`"a\rb"`, "cr"},
		{`"x"@en-GB`, "gb"},
		{`"x"@EN`, "up"},
		{`"tab\tquote\"ué\U0001F525"`, "esc"},
		{`"tab\tquote\"ué🔥"`, "esc"},
	} {
		res, err := runQuery(s, `PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:v `+tc.constant+` }`)
		if err != nil {
			t.Fatalf("%s: %v", tc.constant, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Value != "http://example.org/"+tc.subject {
			t.Errorf("%s matched %v, want ex:%s", tc.constant, res.Rows, tc.subject)
		}
	}
}

// TestPrefixBindsPerRequest: a request's PREFIX declaration binds for
// that request only. Rebinding noa: to another namespace must leave
// every later request — and the result cache's answers — on the store's
// own noa:.
func TestPrefixBindsPerRequest(t *testing.T) {
	const (
		hotspots = `SELECT ?h WHERE { ?h a noa:Hotspot }`
		rebound  = `PREFIX noa: <http://example.org/other#> SELECT ?h WHERE { ?h a noa:Hotspot }`
	)
	t.Run("QueryStreamCtx", func(t *testing.T) {
		s, _ := endpointFixture(t)
		for round := 0; round < 2; round++ {
			for _, tc := range []struct {
				text string
				rows int
			}{{hotspots, 2}, {rebound, 0}, {hotspots, 2}} {
				res, err := MaterialiseQuery(context.Background(), s, tc.text)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != tc.rows {
					t.Fatalf("round %d: %q gave %d rows, want %d", round, tc.text, len(res.Rows), tc.rows)
				}
			}
		}
	})
	t.Run("endpoint", func(t *testing.T) {
		_, ep := endpointFixture(t)
		ep.Results = resultcache.New(16, 1<<20)
		for round := 0; round < 2; round++ {
			for _, tc := range []struct {
				text string
				rows string
			}{{hotspots, "2"}, {rebound, "0"}, {hotspots, "2"}} {
				w := get(t, ep, "/sparql?query="+url.QueryEscape(tc.text))
				if w.Code != http.StatusOK || w.Header().Get("X-Rows") != tc.rows {
					t.Fatalf("round %d: %q: %d, X-Rows %q, want %s", round, tc.text, w.Code, w.Header().Get("X-Rows"), tc.rows)
				}
			}
		}
	})
}

// TestUpdateDataRefusesNonGround: INSERT DATA and DELETE DATA hold
// ground triples only, so a variable or a literal subject is a bad
// request, not a silent no-op.
func TestUpdateDataRefusesNonGround(t *testing.T) {
	s, ep := endpointFixture(t)
	for _, u := range []string{
		`INSERT DATA { ?s <http://e/p> <http://e/o> }`,
		`DELETE DATA { ?s <http://e/p> <http://e/o> }`,
		`INSERT DATA { "lit" <http://e/p> <http://e/o> }`,
	} {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(u))
		req.Header.Set("Content-Type", "application/sparql-update")
		ep.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", u, w.Code, w.Body)
		}
	}
	if s.Len() != 8 {
		t.Fatalf("store len %d after refused updates, want 8", s.Len())
	}
}
