package stsparql

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF    tokenKind = iota
	tokWord             // keyword, prefixed name, or "a"
	tokVar              // ?name
	tokIRI              // <...>
	tokString           // "..." (Datatype/Lang captured separately)
	tokNumber           // 123 or 1.5
	tokPunct            // ( ) { } . ; ,
	tokOp               // = != < <= > >= && || ! + - * /
)

type token struct {
	kind     tokenKind
	text     string
	datatype string // for tokString: the ^^ target, an <IRI> or a prefixed name
	lang     string
	line     int
}

type lexer struct {
	src  string
	pos  int
	line int
}

// lex tokenises src. The token slice is sized up front from the text —
// about one token per four bytes, at most 128 — so a typical query
// lexes into one allocation.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	return l.tokens(make([]token, 0, min(len(src)/4+1, 128)), false)
}

// tokens appends to toks the tokens through EOF or, when dotEnds, through
// the next '.' and an EOF token after it.
func (l *lexer) tokens(toks []token, dotEnds bool) ([]token, error) {
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.kind == tokEOF {
			return toks, nil
		}
		if dotEnds && tok.kind == tokPunct && tok.text == "." {
			return append(toks, token{kind: tokEOF, line: l.line}), nil
		}
	}
}

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("stsparql: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) skipWS() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

func isWordByte(c byte) bool {
	return isAlnum(c) || c == '_' || c == '-' || c == ':' || c == '.' || c == '%'
}

func isAlpha(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }

func isAlnum(c byte) bool { return isAlpha(c) || c >= '0' && c <= '9' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *lexer) next() (token, error) {
	l.skipWS()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line}, nil
	}
	c := l.src[l.pos]
	switch {
	case c == '?' || c == '$':
		// VARNAME (SPARQL 1.1 rule [166]) has no '-': "?v-1" is ?v minus 1.
		l.pos++
		start := l.pos
		for l.pos < len(l.src) && (isAlnum(l.src[l.pos]) || l.src[l.pos] == '_') {
			l.pos++
		}
		if l.pos == start {
			return token{}, l.errf("empty variable name")
		}
		return token{kind: tokVar, text: l.src[start:l.pos], line: l.line}, nil
	case c == '<':
		if iri, ok := l.iri(); ok {
			return token{kind: tokIRI, text: iri, line: l.line}, nil
		}
		return l.op()
	case c == '"' || c == '\'':
		return l.stringToken(c)
	case isDigit(c) || (c == '-' || c == '+') && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		// A sign before digits belongs to the number; the parser reads a
		// signed number after an operand as the operator (see
		// parseAdditive).
		start := l.pos
		l.pos++
		for l.pos < len(l.src) {
			c, prev := l.src[l.pos], l.src[l.pos-1]
			if isDigit(c) || c == '.' || c == 'e' || c == 'E' || (c == '-' || c == '+') && (prev == 'e' || prev == 'E') {
				l.pos++
			} else {
				break
			}
		}
		// A trailing dot is punctuation, not part of the number.
		if l.src[l.pos-1] == '.' {
			l.pos--
		}
		text := l.src[start:l.pos]
		if _, err := strconv.ParseFloat(text, 64); err != nil && !errors.Is(err, strconv.ErrRange) {
			return token{}, l.errf("bad number %q", text)
		}
		return token{kind: tokNumber, text: text, line: l.line}, nil
	case strings.IndexByte("(){}.;,", c) >= 0:
		l.pos++
		return token{kind: tokPunct, text: l.src[l.pos-1 : l.pos], line: l.line}, nil
	case strings.IndexByte("=!>&|+-*/", c) >= 0:
		return l.op()
	default:
		start := l.pos
		if c == '@' {
			l.pos++ // a Turtle directive: @prefix is one word
		}
		if l.word() == "" {
			return token{}, l.errf("unexpected character %q", string(c))
		}
		return token{kind: tokWord, text: l.src[start:l.pos], line: l.line}, nil
	}
}

// iri scans the IRI at l.pos, or reports false when that '<' is an
// operator: an IRI holds a ':' (or is empty) and no whitespace or '<'
// before its '>'.
func (l *lexer) iri() (string, bool) {
	j := strings.IndexByte(l.src[l.pos:], '>')
	if j < 0 {
		return "", false
	}
	iri := l.src[l.pos+1 : l.pos+j]
	if strings.ContainsAny(iri, " \t\n<") || iri != "" && !strings.Contains(iri, ":") {
		return "", false
	}
	l.pos += j + 1
	return iri, true
}

// op lexes an operator, longest match first.
func (l *lexer) op() (token, error) {
	for _, op := range [...]string{"<=", ">=", "!=", "&&", "||"} {
		if strings.HasPrefix(l.src[l.pos:], op) {
			l.pos += 2
			return token{kind: tokOp, text: op, line: l.line}, nil
		}
	}
	if c := l.src[l.pos]; c == '&' || c == '|' {
		return token{}, l.errf("stray %q", string(c))
	}
	l.pos++
	return token{kind: tokOp, text: l.src[l.pos-1 : l.pos], line: l.line}, nil
}

// word scans a keyword or a prefixed name. Final dots end the triple,
// not the name (as in Turtle, a name may hold dots but not end in one).
func (l *lexer) word() string {
	start := l.pos
	for l.pos < len(l.src) && isWordByte(l.src[l.pos]) {
		l.pos++
	}
	for l.pos > start && l.src[l.pos-1] == '.' {
		l.pos--
	}
	return l.src[start:l.pos]
}

// stringToken decodes a quoted literal with its ^^datatype or @language
// tag. A literal without escapes is a slice of the source; the first
// escape starts a decoded copy.
func (l *lexer) stringToken(quote byte) (token, error) {
	l.pos++ // opening quote
	seg := l.pos
	var buf []byte // the decoded text so far, once an escape appeared
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\\':
			buf = append(buf, l.src[seg:l.pos]...)
			var err error
			if buf, err = l.escape(buf); err != nil {
				return token{}, err
			}
			seg = l.pos
			continue
		case c == quote:
			tok := token{kind: tokString, text: l.src[seg:l.pos], line: l.line}
			if buf != nil {
				tok.text = string(append(buf, tok.text...))
			}
			l.pos++
			return l.literalSuffix(tok)
		case c == '\n':
			l.line++
		}
		l.pos++
	}
	return token{}, l.errf("unterminated string literal")
}

// escape decodes the string escape at l.pos onto buf: SPARQL 1.1 §19.7
// and Turtle's ECHAR and UCHAR.
func (l *lexer) escape(buf []byte) ([]byte, error) {
	if l.pos+1 >= len(l.src) {
		return nil, l.errf("unterminated string literal")
	}
	c := l.src[l.pos+1]
	l.pos += 2
	if i := strings.IndexByte(`tbnrf"'\`, c); i >= 0 {
		return append(buf, "\t\b\n\r\f\"'\\"[i]), nil
	}
	if c != 'u' && c != 'U' {
		return nil, l.errf("unknown string escape \\%c", c)
	}
	n := 4
	if c == 'U' {
		n = 8
	}
	if l.pos+n <= len(l.src) {
		v, err := strconv.ParseUint(l.src[l.pos:l.pos+n], 16, 32)
		if r := rune(v); err == nil && utf8.ValidRune(r) {
			l.pos += n
			return utf8.AppendRune(buf, r), nil
		}
	}
	return nil, l.errf("bad \\%c escape", c)
}

// literalSuffix reads a literal's ^^datatype — an IRI, kept with its
// angle brackets, or a prefixed name — or its language tag,
// [a-zA-Z]+(-[a-zA-Z0-9]+)*.
func (l *lexer) literalSuffix(tok token) (token, error) {
	switch {
	case strings.HasPrefix(l.src[l.pos:], "^^"):
		l.pos += 2
		start := l.pos
		if l.pos < len(l.src) && l.src[l.pos] == '<' {
			if _, ok := l.iri(); ok {
				tok.datatype = l.src[start:l.pos]
			}
		} else {
			tok.datatype = l.word()
		}
		if tok.datatype == "" {
			return token{}, l.errf("datatype wants an IRI")
		}
	case strings.HasPrefix(l.src[l.pos:], "@"):
		l.pos++
		start := l.pos
		for l.pos < len(l.src) && isAlpha(l.src[l.pos]) {
			l.pos++
		}
		if l.pos == start {
			return token{}, l.errf("bad language tag")
		}
		for l.pos+1 < len(l.src) && l.src[l.pos] == '-' && isAlnum(l.src[l.pos+1]) {
			for l.pos++; l.pos < len(l.src) && isAlnum(l.src[l.pos]); l.pos++ {
			}
		}
		tok.lang = l.src[start:l.pos]
	}
	return tok, nil
}
