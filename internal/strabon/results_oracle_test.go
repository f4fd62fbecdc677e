package strabon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/rdf"
	"repro/internal/stsparql"
)

// The reference the SPARQL-JSON row encoder is held to: the encoder the
// endpoint used before, one json.Marshal of a map[string]jsonTerm per
// row, kept here verbatim apart from its row type: it reads map rows,
// which the engine no longer has, and the encoder reads the same rows
// positionally. TestJSONRowWriterMatchesOracle and FuzzJSONRowWriter
// require byte-identical documents, head and End included.

// oracleRow is a row as the oracle reads it: variable name to term,
// unbound variables absent.
type oracleRow map[string]rdf.Term

type oracleJSONTerm struct {
	Type     string `json:"type"` // "uri" | "literal" | "bnode"
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"xml:lang,omitempty"`
}

func oracleTermToJSON(t rdf.Term) oracleJSONTerm {
	switch {
	case t.IsIRI():
		return oracleJSONTerm{Type: "uri", Value: t.Value}
	case t.IsBlank():
		return oracleJSONTerm{Type: "bnode", Value: t.Value}
	default:
		return oracleJSONTerm{Type: "literal", Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
	}
}

type oracleJSONRowWriter struct {
	w       io.Writer
	vars    []string
	started bool
	first   bool
}

func newOracleJSONRowWriter(w io.Writer, vars []string) *oracleJSONRowWriter {
	return &oracleJSONRowWriter{w: w, vars: vars, first: true}
}

func (jw *oracleJSONRowWriter) begin() error {
	if jw.started {
		return nil
	}
	jw.started = true
	head, err := json.Marshal(jw.vars)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(jw.w, `{"head":{"vars":%s},"results":{"bindings":[`, head)
	return err
}

func (jw *oracleJSONRowWriter) Row(row oracleRow) error {
	if err := jw.begin(); err != nil {
		return err
	}
	b := make(map[string]oracleJSONTerm, len(jw.vars))
	for _, v := range jw.vars {
		if t, ok := row[v]; ok && !t.IsZero() {
			b[v] = oracleTermToJSON(t)
		}
	}
	doc, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if !jw.first {
		if _, err := io.WriteString(jw.w, ","); err != nil {
			return err
		}
	}
	jw.first = false
	_, err = jw.w.Write(doc)
	return err
}

func (jw *oracleJSONRowWriter) End() error {
	if err := jw.begin(); err != nil {
		return err
	}
	_, err := io.WriteString(jw.w, "]}}\n")
	return err
}

// jsonPieces are the strings the generator builds values from: every
// escape class encoding/json distinguishes — HTML-unsafe <>&, quote and
// backslash, the short control escapes and the \u00XX ones, DEL, the
// JavaScript line terminators, invalid UTF-8 at every position — beside
// plain text and valid multi-byte runes.
var jsonPieces = []string{
	"", "a", "hotspot_17", "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#Hotspot",
	"<", ">", "&", `"`, `\`, "/", "'", "\b", "\f", "\n", "\r", "\t", "\x00", "\x01", "\x1f", "\x7f",
	"\u2028", "\u2029", "\u2027", "\u202a", "é", "Ελλάδα", "🔥", "\ufffd",
	"\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\x80abc",
	"POLYGON ((22.4 38.4, 22.44 38.4, 22.44 38.44, 22.4 38.44, 22.4 38.4))",
}

func genJSONString(r *rand.Rand) string {
	var b []byte
	for n := r.Intn(5); n > 0; n-- {
		b = append(b, jsonPieces[r.Intn(len(jsonPieces))]...)
	}
	return string(b)
}

func genJSONTerm(r *rand.Rand) rdf.Term {
	switch r.Intn(8) {
	case 0:
		return rdf.Term{} // unbound
	case 1, 2:
		return rdf.NewIRI(genJSONString(r))
	case 3:
		return rdf.NewBlank(genJSONString(r))
	case 4:
		return rdf.NewLiteral(genJSONString(r))
	case 5:
		return rdf.NewTypedLiteral(genJSONString(r), []string{rdf.XSDDateTime, rdf.StRDFGeometry, rdf.XSDString, genJSONString(r)}[r.Intn(4)])
	case 6:
		return rdf.NewLangLiteral(genJSONString(r), []string{"el", "en-GB", genJSONString(r)}[r.Intn(3)])
	default:
		return rdf.Term{Kind: rdf.TermLiteral, Value: genJSONString(r), Datatype: genJSONString(r), Lang: genJSONString(r)}
	}
}

// genJSONVars draws a header: nil, empty, in order or not, with repeats,
// and with names needing escapes.
func genJSONVars(r *rand.Rand) []string {
	switch r.Intn(10) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	names := []string{"h", "m", "at", "g", "n", "avgc", "b", "a", "h2", "x<y", "q\"", "\u2028", "\xff", "é"}
	vars := make([]string, 1+r.Intn(6))
	for i := range vars {
		vars[i] = names[r.Intn(len(names))]
	}
	return vars
}

func genJSONRow(r *rand.Rand, vars []string) oracleRow {
	row := oracleRow{}
	for _, v := range vars {
		if r.Intn(5) > 0 {
			row[v] = genJSONTerm(r)
		}
	}
	if r.Intn(4) == 0 {
		row["not_in_header"] = genJSONTerm(r)
	}
	return row
}

// encodeBoth renders the same rows through the encoder, which reads
// each row's terms in header order, and the oracle.
func encodeBoth(t testing.TB, vars []string, rows []oracleRow) (got, want []byte) {
	t.Helper()
	var g, w bytes.Buffer
	enc, oracle := NewJSONRowWriter(&g, vars), newOracleJSONRowWriter(&w, vars)
	for _, row := range rows {
		pos := make(stsparql.Row, len(vars))
		for j, v := range vars {
			pos[j] = row[v]
		}
		if err := enc.Row(pos); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Row(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.End(); err != nil {
		t.Fatal(err)
	}
	if err := oracle.End(); err != nil {
		t.Fatal(err)
	}
	return g.Bytes(), w.Bytes()
}

func TestJSONRowWriterMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	total := 0
	for doc := 0; total < 20000; doc++ {
		vars := genJSONVars(r)
		rows := make([]oracleRow, r.Intn(80))
		for i := range rows {
			rows[i] = genJSONRow(r, vars)
		}
		total += len(rows)
		got, want := encodeBoth(t, vars, rows)
		if !bytes.Equal(got, want) {
			t.Fatalf("document %d (vars %q) differs:\n got  %q\n want %q", doc, vars, got, want)
		}
		if !json.Valid(got) {
			t.Fatalf("document %d is not valid JSON: %q", doc, got)
		}
	}
}

// FuzzJSONRowWriter decodes a header and rows from the input — fields
// split at 0x00, the first byte of each term field choosing its kind —
// and requires the encoder and the oracle to write the same bytes.
func FuzzJSONRowWriter(f *testing.F) {
	f.Add([]byte("h\x00m\x00\x01\x00uhttp://x/<a>\x00lvalue\"\\\n\x00dtyped\x00http://dt\x00"))
	f.Add([]byte("\xff\x00\u2028\x00\x00b_:b1\x00gtext\x00el\x00"))
	f.Add([]byte("\x02\x00a\x00a\x00l\x7f\x1f\x08\x0c\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fields := bytes.Split(data, []byte{0})
		next := func() string {
			if len(fields) == 0 {
				return ""
			}
			s := string(fields[0])
			fields = fields[1:]
			return s
		}
		var vars []string
		if len(data) > 0 && data[0] != 0x02 {
			for n := int(len(data) % 4); n > 0; n-- {
				vars = append(vars, next())
			}
		}
		var rows []oracleRow
		for len(fields) > 0 && len(rows) < 64 {
			row := oracleRow{}
			for _, v := range vars {
				field := next()
				if field == "" {
					continue
				}
				value := field[1:]
				switch field[0] % 5 {
				case 0:
					row[v] = rdf.NewIRI(value)
				case 1:
					row[v] = rdf.NewBlank(value)
				case 2:
					row[v] = rdf.NewLiteral(value)
				case 3:
					row[v] = rdf.NewTypedLiteral(value, next())
				default:
					row[v] = rdf.NewLangLiteral(value, next())
				}
			}
			rows = append(rows, row)
			if len(vars) == 0 {
				next()
			}
		}
		got, want := encodeBoth(t, vars, rows)
		if !bytes.Equal(got, want) {
			t.Fatalf("vars %q: documents differ:\n got  %q\n want %q", vars, got, want)
		}
	})
}
