package stsparql

import (
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/auxdata"
	"repro/internal/geom"
	"repro/internal/products"
	"repro/internal/rdf"
)

// constOf parses a query whose FILTER compares ?v against constant and
// returns the constant's term.
func constOf(t *testing.T, constant string) rdf.Term {
	t.Helper()
	q := mustParse(t, `SELECT ?v WHERE { ?s ?p ?v FILTER(?v = `+constant+`) }`)
	f := q.Select.Where.Elements[1].(*FilterElement)
	return f.Cond.(*BinaryExpr).R.(*ConstExpr).Term
}

func TestLexerStringEscapes(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`"a\rb"`, "a\rb"},
		{`"\t\b\n\r\f\"\'\\"`, "\t\b\n\r\f\"'\\"},
		{`'it\'s'`, "it's"},
		{`"é\u0000"`, "é\x00"},
		{`"\U0001F525"`, "🔥"},
		{`"plain"`, "plain"},
		{`"pre\\post"`, `pre\post`},
	} {
		if got := constOf(t, tc.src); got.Value != tc.want || got.Kind != rdf.TermLiteral {
			t.Errorf("%s decoded to %q, want %q", tc.src, got.Value, tc.want)
		}
	}
	for _, src := range []string{`"\x41"`, `"\u00"`, `"\uD800"`, `"\U00110000"`, `"\q"`, `"\`} {
		if _, err := Parse(`SELECT ?v WHERE { ?s ?p `+src+` }`, nil); err == nil {
			t.Errorf("%s: expected a bad-escape error", src)
		}
	}
}

func TestLexerLangTagsAndDatatypes(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want rdf.Term
	}{
		{`"x"@en-GB`, rdf.NewLangLiteral("x", "en-GB")},
		{`"x"@EN`, rdf.NewLangLiteral("x", "EN")},
		{`"x"@zh-Hant-TW`, rdf.NewLangLiteral("x", "zh-Hant-TW")},
		{`"x"@de-1996`, rdf.NewLangLiteral("x", "de-1996")},
		{`"1"^^xsd:integer`, rdf.NewTypedLiteral("1", rdf.XSDInteger)},
		{`"1"^^<urn:x:t>`, rdf.NewTypedLiteral("1", "urn:x:t")},
	} {
		if got := constOf(t, tc.src); !got.Equal(tc.want) {
			t.Errorf("%s = %#v, want %#v", tc.src, got, tc.want)
		}
	}
	if _, err := Parse(`SELECT ?v WHERE { ?s ?p "x"@ }`, nil); err == nil {
		t.Error(`"x"@: expected a language-tag error`)
	}
	// A statement's final '.' does not stick to a ^^ prefixed name.
	q := mustParse(t, `INSERT DATA { <http://e/s> <http://e/p> "1"^^xsd:integer. }`)
	if got := q.Update.Insert[0].O.Term; !got.Equal(rdf.NewTypedLiteral("1", rdf.XSDInteger)) {
		t.Fatalf("datatype before '.' = %#v", got)
	}
}

// TestParseSignedNumbers: a signed number directly after an operand is
// the operator and the number's magnitude (SPARQL 1.1 rule [116]); as a
// term it is one literal.
func TestParseSignedNumbers(t *testing.T) {
	for _, tc := range []struct{ src, op string }{
		{`?v -1`, "-"},
		{`?v +1`, "+"},
		{`?v - 1`, "-"},
	} {
		q := mustParse(t, `SELECT ?v WHERE { ?s ?p ?v FILTER(`+tc.src+` > 0) }`)
		gt := q.Select.Where.Elements[1].(*FilterElement).Cond.(*BinaryExpr)
		sum, ok := gt.L.(*BinaryExpr)
		if !ok || sum.Op != tc.op {
			t.Fatalf("%s: left of > is %#v, want %q", tc.src, gt.L, tc.op)
		}
		if c := sum.R.(*ConstExpr).Term; c.Value != "1" || c.Datatype != rdf.XSDInteger {
			t.Fatalf("%s: right operand %#v, want 1", tc.src, c)
		}
	}
	// [116]: the multiplicative tail binds to the signed number.
	q := mustParse(t, `SELECT ?v WHERE { ?s ?p ?v FILTER(?v -2 * 3 > 0) }`)
	sum := q.Select.Where.Elements[1].(*FilterElement).Cond.(*BinaryExpr).L.(*BinaryExpr)
	if prod, ok := sum.R.(*BinaryExpr); sum.Op != "-" || !ok || prod.Op != "*" {
		t.Fatalf("?v -2 * 3 parsed as %#v", sum)
	}
	q = mustParse(t, `SELECT ?s WHERE { ?s <http://e/p> -1 , +2 }`)
	pats := q.Select.Where.Elements[0].(*BGPElement).Patterns
	if o := pats[0].O.Term; !o.Equal(rdf.NewTypedLiteral("-1", rdf.XSDInteger)) {
		t.Fatalf("object -1 = %#v", o)
	}
	if o := pats[1].O.Term; !o.Equal(rdf.NewTypedLiteral("+2", rdf.XSDInteger)) {
		t.Fatalf("object +2 = %#v", o)
	}
	res := runSelect(t, fixtureStore(), `
SELECT ?m WHERE { ?m a gag:Municipality ; gag:hasPopulation ?p . FILTER(?p -1000 > 0) }`)
	if len(res.Rows) != 1 {
		t.Fatalf("FILTER(?p -1000 > 0) rows = %d, want 1", len(res.Rows))
	}
}

// TestVariableNamesAndUnaryPlus: VARNAME (SPARQL 1.1 rule [166]) has no
// '-', so a '-' right after a variable is subtraction; unary '+' (rule
// [119]) applies to a number and leaves it as it is.
func TestVariableNamesAndUnaryPlus(t *testing.T) {
	for _, tc := range []struct{ filter, want string }{
		{`?v-1 > 0`, `((?v - "1"^^<http://www.w3.org/2001/XMLSchema#integer>) > "0"^^<http://www.w3.org/2001/XMLSchema#integer>)`},
		{`?a-?b > 0`, `((?a - ?b) > "0"^^<http://www.w3.org/2001/XMLSchema#integer>)`},
		{`?v_1-?w > 0`, `((?v_1 - ?w) > "0"^^<http://www.w3.org/2001/XMLSchema#integer>)`},
		{`+?v > 2`, `(+?v > "2"^^<http://www.w3.org/2001/XMLSchema#integer>)`},
		{`-+?v < 0`, `(-+?v < "0"^^<http://www.w3.org/2001/XMLSchema#integer>)`},
		{`?v * +?w > 0`, `((?v * +?w) > "0"^^<http://www.w3.org/2001/XMLSchema#integer>)`},
		{`!bound(?v)`, `!bound(?v)`},
	} {
		q := mustParse(t, `SELECT ?v WHERE { ?s ?p ?v FILTER(`+tc.filter+`) }`)
		if got := exprString(q.Select.Where.Elements[1].(*FilterElement).Cond); got != tc.want {
			t.Errorf("FILTER(%s) parsed as %s, want %s", tc.filter, got, tc.want)
		}
	}
	for _, src := range []string{
		`SELECT ?a-b WHERE { ?s ?p ?a }`,
		`SELECT ?v WHERE { ?s ?p ?v- }`,
		`SELECT ?v WHERE { ?s ?p ?v FILTER(+) }`,
	} {
		if _, err := Parse(src, nil); err == nil {
			t.Errorf("%s: expected a parse error", src)
		}
	}
	st := fixtureStore()
	for _, tc := range []struct {
		filter string
		rows   int
	}{
		{`?p-1000 > 0`, 1},
		{`?p-1000 >= 0`, 2},
		{`+?p > 1000`, 1},
		{`+?p = ?p`, 2},
		{`+?l = ?l`, 0}, // unary plus of a string is an error
	} {
		res := runSelect(t, st, `
SELECT ?m WHERE { ?m a gag:Municipality ; gag:hasPopulation ?p ; rdfs:label ?l . FILTER(`+tc.filter+`) }`)
		if len(res.Rows) != tc.rows {
			t.Errorf("FILTER(%s) rows = %d, want %d", tc.filter, len(res.Rows), tc.rows)
		}
	}
}

// TestDataFormsRefuseNonGround: SPARQL 1.1 Update §3.1.1–3.1.2 — the
// DATA forms hold ground triples only.
func TestDataFormsRefuseNonGround(t *testing.T) {
	for _, tc := range []struct {
		src string
		ok  bool
	}{
		{`INSERT DATA { <http://e/s> <http://e/p> <http://e/o> }`, true},
		{`DELETE DATA { _:b <http://e/p> "o" }`, true},
		{`INSERT DATA { ?s <http://e/p> <http://e/o> }`, false},
		{`DELETE DATA { ?s <http://e/p> <http://e/o> }`, false},
		{`INSERT DATA { <http://e/s> ?p <http://e/o> }`, false},
		{`INSERT DATA { <http://e/s> <http://e/p> ?o }`, false},
		{`INSERT DATA { "lit" <http://e/p> <http://e/o> }`, false},
		{`DELETE DATA { <http://e/s> _:p <http://e/o> }`, false},
		{`INSERT { ?s <http://e/p> <http://e/o> } WHERE { ?s ?p ?o }`, true},
	} {
		if _, err := Parse(tc.src, nil); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.src, err, tc.ok)
		}
	}
}

func TestParseTurtleForms(t *testing.T) {
	got, err := ParseTurtle(`PREFIX ex: <http://example.org/>
ex:s ex:n +5 , -2 , 1.5e-3 , 2E+2 ;
  ex:dt "1"^^xsd:integer.
@prefix : <http://example.org/d#> .
:a :b :c.
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []rdf.Triple{
		{S: rdf.NewIRI("http://example.org/s"), P: rdf.NewIRI("http://example.org/n"), O: rdf.NewTypedLiteral("+5", rdf.XSDInteger)},
		{S: rdf.NewIRI("http://example.org/s"), P: rdf.NewIRI("http://example.org/n"), O: rdf.NewTypedLiteral("-2", rdf.XSDInteger)},
		{S: rdf.NewIRI("http://example.org/s"), P: rdf.NewIRI("http://example.org/n"), O: rdf.NewTypedLiteral("1.5e-3", rdf.XSDDouble)},
		{S: rdf.NewIRI("http://example.org/s"), P: rdf.NewIRI("http://example.org/n"), O: rdf.NewTypedLiteral("2E+2", rdf.XSDDouble)},
		{S: rdf.NewIRI("http://example.org/s"), P: rdf.NewIRI("http://example.org/dt"), O: rdf.NewTypedLiteral("1", rdf.XSDInteger)},
		{S: rdf.NewIRI("http://example.org/d#a"), P: rdf.NewIRI("http://example.org/d#b"), O: rdf.NewIRI("http://example.org/d#c")},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("triple %d = %v, want %v", i, got[i], want[i])
		}
	}
	for _, src := range []string{
		`<http://e/s> <http://e/p> <http://e/o>`,        // no final '.'
		`<http://e/s> <http://e/p> <http://e/o> ; }`,    // no final '.'
		`<http://e/s> <http://e/p> ?o .`,                // variable
		`<foo> <http://e/p> <http://e/o> .`,             // relative IRI
		`@prefix ex: <http://e/>`,                       // directive without '.'
		`@base <http://e/> .`,                           // unsupported directive
		`<http://e/s> <http://e/p> "a\qb" .`,            // unknown escape
		`<http://e/s> <http://e/p> <http://e/o> . .`,    // empty statement
		`<http://e/s> <http://e/p> "x"^^"y" .`,          // datatype not an IRI
		`<http://e/s> <http://e/p> <http://e/o> , .`,    // dangling ','
		`<http://e/s> <http://e/p> <http://e/o> . }`,    // stray '}'
		`_:b <http://e/p> <http://e/o> . "l" a <x:C> .`, // literal subject
		`<http://e/s> <http://e/p> 1.2.3 .`,             // bad number
		`<http://e/s> <http://e/p> 2e .`,                // bad number
	} {
		if _, err := ParseTurtle(src, nil); err == nil {
			t.Errorf("expected a parse error for %q", src)
		}
	}
}

// FuzzTermRoundTrip: every IRI, blank node and literal Triple.String
// renders, ParseTurtle reads back as the same triple — except that an
// xsd:string literal comes back simple, since String writes it bare.
func FuzzTermRoundTrip(f *testing.F) {
	add := func(tr rdf.Triple) {
		f.Add(uint8(tr.S.Kind), tr.S.Value, tr.P.Value, uint8(tr.O.Kind), tr.O.Value, tr.O.Datatype, tr.O.Lang)
	}
	for _, tr := range auxdata.Generate(42).AllTriples() {
		add(tr)
	}
	at := time.Date(2007, 8, 24, 12, 15, 0, 0, time.UTC)
	p := &products.Product{Sensor: "MSG2", Chain: "cloud-masked", AcquiredAt: at, Hotspots: []products.Hotspot{{
		ID: "h1", Confidence: 0.5, AcquiredAt: at, Sensor: "MSG2", Chain: "cloud-masked", Producer: "noa",
		Geometry: geom.Polygon{Shell: geom.Ring{{X: 21.5, Y: 37.9}, {X: 21.6, Y: 37.9}, {X: 21.6, Y: 38}, {X: 21.5, Y: 37.9}}},
	}}}
	for _, tr := range p.TriplesInto(nil) {
		add(tr)
	}
	add(rdf.Triple{S: rdf.NewBlank("b.0"), P: rdf.NewIRI("urn:p"), O: rdf.NewLangLiteral("a\x00\a­\U000e0001\"\\", "en-GB")})
	f.Fuzz(func(t *testing.T, sKind uint8, s, p string, oKind uint8, o, dt, lang string) {
		in := rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p)}
		if sKind%2 == 1 {
			in.S = rdf.NewBlank(s)
		}
		switch oKind % 3 {
		case 0:
			in.O = rdf.NewIRI(o)
		case 1:
			in.O = rdf.NewBlank(o)
		default:
			in.O = rdf.NewTypedLiteral(o, dt)
			if lang != "" {
				in.O = rdf.NewLangLiteral(o, lang)
			}
		}
		if !writable(in.S) || !writable(in.P) || !writable(in.O) {
			return
		}
		got, err := ParseTurtle(in.String(), nil)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		want := in
		if want.O.Datatype == rdf.XSDString {
			want.O.Datatype = ""
		}
		if len(got) != 1 || got[0] != want {
			t.Fatalf("%s read back as %#v, want %#v", in, got, want)
		}
	})
}

// writable reports whether t is a term Turtle can write: an absolute
// IRI without the characters IRIREF excludes, a blank node label of
// name characters that does not end in '.', or a valid-UTF-8 literal
// whose language tag is [a-zA-Z]+(-[a-zA-Z0-9]+)* and whose datatype is
// a writable IRI.
func writable(t rdf.Term) bool {
	switch t.Kind {
	case rdf.TermIRI:
		return utf8.ValidString(t.Value) && strings.Contains(t.Value, ":") &&
			!strings.ContainsFunc(t.Value, func(r rune) bool { return r <= ' ' || strings.ContainsRune("<>\"{}|^`\\", r) })
	case rdf.TermBlank:
		for i := 0; i < len(t.Value); i++ {
			if !isWordByte(t.Value[i]) {
				return false
			}
		}
		return t.Value != "" && !strings.HasSuffix(t.Value, ".")
	}
	if !utf8.ValidString(t.Value) {
		return false
	}
	if t.Lang != "" {
		parts := strings.Split(t.Lang, "-")
		for i, part := range parts {
			for j := 0; j < len(part); j++ {
				if !isAlnum(part[j]) || i == 0 && !isAlpha(part[j]) {
					return false
				}
			}
			if part == "" {
				return false
			}
		}
		return true
	}
	return t.Datatype == "" || writable(rdf.NewIRI(t.Datatype))
}
