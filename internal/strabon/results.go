package strabon

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode/utf8"

	"repro/internal/rdf"
	"repro/internal/stsparql"
)

// Result serialisation in the two formats the endpoint speaks: SPARQL
// 1.1 Query Results JSON and W3C TSV. Both are written row by row
// through RowWriter, so the endpoint (and cmd/stsparql) can encode a
// cursor's rows as they are pulled instead of materialising the result
// — a cache hit's replay included; WriteResultJSON remains as the
// materialised-result wrapper.

// RowWriter encodes one result set incrementally: any prologue (JSON
// head, TSV header line) is written with the first row — or by End for
// an empty result — and End closes the document.
type RowWriter interface {
	// Row encodes one row: one term per header variable, in header
	// order.
	Row(stsparql.Row) error
	End() error
}

// jsonRowWriter appends each row into one reused buffer and writes it
// with a single Write, without reflection. Its output is byte for byte
// what encoding/json made of the row as a map[string]{type, value,
// datatype, xml:lang} (omitempty): keys in sorted order, a repeated
// header variable once, strings escaped HTML-safe, U+2028/U+2029 escaped
// and invalid UTF-8 replaced by \ufffd (results_oracle_test.go holds it
// to that encoder).
type jsonRowWriter struct {
	w    io.Writer
	keys []jsonKey // distinct header variables, sorted
	buf  []byte    // reused; holds the document head until the first write
	rows int
}

// jsonKey is one header variable: the row column it reads (its first in
// the header) and its encoded `"name":` prefix.
type jsonKey struct {
	col    int
	prefix []byte
}

// NewJSONRowWriter returns a RowWriter emitting the SPARQL 1.1 Query
// Results JSON format.
func NewJSONRowWriter(w io.Writer, vars []string) RowWriter {
	head, _ := json.Marshal(vars) // a []string always marshals
	jw := &jsonRowWriter{w: w, buf: fmt.Appendf(nil, `{"head":{"vars":%s},"results":{"bindings":[`, head)}
	sorted := slices.Clone(vars)
	slices.Sort(sorted)
	for _, v := range slices.Compact(sorted) {
		jw.keys = append(jw.keys, jsonKey{col: slices.Index(vars, v), prefix: append(appendJSONString(nil, v), ':')})
	}
	return jw
}

func (jw *jsonRowWriter) Row(row stsparql.Row) error {
	buf := jw.buf
	if jw.rows > 0 {
		buf = append(buf, ',')
	}
	jw.rows++
	buf = append(buf, '{')
	sep := false
	for _, k := range jw.keys {
		t := row[k.col]
		if t.IsZero() {
			continue
		}
		if sep {
			buf = append(buf, ',')
		}
		sep = true
		buf = append(buf, k.prefix...)
		buf = appendJSONTerm(buf, t)
	}
	buf = append(buf, '}')
	_, err := jw.w.Write(buf)
	jw.buf = buf[:0]
	return err
}

func (jw *jsonRowWriter) End() error {
	_, err := jw.w.Write(append(jw.buf, "]}}\n"...))
	return err
}

func appendJSONTerm(buf []byte, t rdf.Term) []byte {
	switch {
	case t.IsIRI():
		buf = append(buf, `{"type":"uri","value":`...)
		return append(appendJSONString(buf, t.Value), '}')
	case t.IsBlank():
		buf = append(buf, `{"type":"bnode","value":`...)
		return append(appendJSONString(buf, t.Value), '}')
	}
	buf = append(buf, `{"type":"literal","value":`...)
	buf = appendJSONString(buf, t.Value)
	if t.Datatype != "" {
		buf = append(buf, `,"datatype":`...)
		buf = appendJSONString(buf, t.Datatype)
	}
	if t.Lang != "" {
		buf = append(buf, `,"xml:lang":`...)
		buf = appendJSONString(buf, t.Lang)
	}
	return append(buf, '}')
}

// appendJSONString appends s as a JSON string, escaped the way
// encoding/json escapes with HTML escaping on.
func appendJSONString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '"', '\\':
				buf = append(buf, '\\', b)
			case '\b', '\t', '\n', '\f', '\r':
				buf = append(buf, '\\', "btn_fr"[b-'\b'])
			default:
				buf = append(buf, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

type tsvRowWriter struct {
	w       io.Writer
	vars    []string
	started bool
	cols    []string
}

// NewTSVRowWriter returns a RowWriter emitting the W3C SPARQL TSV
// format: a header of ?var names, then one N-Triples-encoded term per
// column.
func NewTSVRowWriter(w io.Writer, vars []string) RowWriter {
	return &tsvRowWriter{w: w, vars: vars, cols: make([]string, len(vars))}
}

func (tw *tsvRowWriter) begin() error {
	if tw.started {
		return nil
	}
	tw.started = true
	for i, v := range tw.vars {
		tw.cols[i] = "?" + v
	}
	_, err := fmt.Fprintln(tw.w, strings.Join(tw.cols, "\t"))
	return err
}

func (tw *tsvRowWriter) Row(row stsparql.Row) error {
	if err := tw.begin(); err != nil {
		return err
	}
	for i, t := range row {
		tw.cols[i] = ""
		if !t.IsZero() {
			tw.cols[i] = t.String()
		}
	}
	_, err := fmt.Fprintln(tw.w, strings.Join(tw.cols, "\t"))
	return err
}

func (tw *tsvRowWriter) End() error { return tw.begin() }

// WriteResultJSON writes a materialised result set in the SPARQL 1.1
// Query Results JSON format.
func WriteResultJSON(w io.Writer, res *stsparql.Result) error {
	rw := NewJSONRowWriter(w, res.Vars)
	for _, row := range res.Rows {
		if err := rw.Row(row); err != nil {
			return err
		}
	}
	return rw.End()
}
