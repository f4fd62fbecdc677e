package stsparql

import (
	"fmt"
	"strings"
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
	datatype string // for tokString: the raw ^^ target (IRI or qname)
	lang     string
	line     int
}

type lexer struct {
	src  string
	pos  int
	line int
	toks []token
}

// lex tokenises src. The token slice is sized up front from the text —
// about one token per four bytes, at most 128 — so a typical query
// lexes into one allocation.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1, toks: make([]token, 0, min(len(src)/4+1, 128))}
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, tok)
		if tok.kind == tokEOF {
			return l.toks, nil
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
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_' || c == '-' || c == ':' || c == '.'
}

func (l *lexer) next() (token, error) {
	l.skipWS()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line}, nil
	}
	c := l.src[l.pos]
	switch {
	case c == '?' || c == '$':
		l.pos++
		start := l.pos
		for l.pos < len(l.src) && isWordByte(l.src[l.pos]) && l.src[l.pos] != ':' && l.src[l.pos] != '.' {
			l.pos++
		}
		if l.pos == start {
			return token{}, l.errf("empty variable name")
		}
		return token{kind: tokVar, text: l.src[start:l.pos], line: l.line}, nil
	case c == '<':
		// Could be IRI or operator "<", "<=". IRI if followed by non-space
		// non-'=' characters ending in '>': scan ahead.
		if j := strings.IndexByte(l.src[l.pos:], '>'); j > 0 {
			candidate := l.src[l.pos+1 : l.pos+j]
			if !strings.ContainsAny(candidate, " \t\n<") && (strings.Contains(candidate, ":") || candidate == "") {
				l.pos += j + 1
				return token{kind: tokIRI, text: candidate, line: l.line}, nil
			}
		}
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{kind: tokOp, text: "<=", line: l.line}, nil
		}
		return token{kind: tokOp, text: "<", line: l.line}, nil
	case c == '"' || c == '\'':
		return l.stringToken(c)
	case c >= '0' && c <= '9':
		start := l.pos
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			if c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' {
				l.pos++
			} else {
				break
			}
		}
		text := l.src[start:l.pos]
		// A trailing dot is punctuation, not part of the number.
		if strings.HasSuffix(text, ".") {
			text = text[:len(text)-1]
			l.pos--
		}
		return token{kind: tokNumber, text: text, line: l.line}, nil
	case c == '(' || c == ')' || c == '{' || c == '}' || c == '.' || c == ';' || c == ',':
		l.pos++
		return token{kind: tokPunct, text: string(c), line: l.line}, nil
	case c == '=':
		l.pos++
		return token{kind: tokOp, text: "=", line: l.line}, nil
	case c == '!':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{kind: tokOp, text: "!=", line: l.line}, nil
		}
		return token{kind: tokOp, text: "!", line: l.line}, nil
	case c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{kind: tokOp, text: ">=", line: l.line}, nil
		}
		return token{kind: tokOp, text: ">", line: l.line}, nil
	case c == '&':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '&' {
			l.pos += 2
			return token{kind: tokOp, text: "&&", line: l.line}, nil
		}
		return token{}, l.errf("stray '&'")
	case c == '|':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '|' {
			l.pos += 2
			return token{kind: tokOp, text: "||", line: l.line}, nil
		}
		return token{}, l.errf("stray '|'")
	case c == '+' || c == '*' || c == '/':
		l.pos++
		return token{kind: tokOp, text: string(c), line: l.line}, nil
	case c == '-':
		// Negative number literal or minus operator.
		if l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			l.pos++
			t, err := l.next()
			if err != nil {
				return token{}, err
			}
			t.text = "-" + t.text
			return t, nil
		}
		l.pos++
		return token{kind: tokOp, text: "-", line: l.line}, nil
	default:
		start := l.pos
		for l.pos < len(l.src) && isWordByte(l.src[l.pos]) {
			l.pos++
		}
		if l.pos == start {
			return token{}, l.errf("unexpected character %q", string(c))
		}
		text := l.src[start:l.pos]
		// Trailing dots belong to the triple terminator, not the name —
		// except inside decimal-looking names, which don't occur here.
		for strings.HasSuffix(text, ".") && !strings.HasSuffix(text, "..") {
			// "gn:P.PPLA"-style names keep interior dots; only strip if the
			// dot is final and the remaining char is not part of the name.
			text = text[:len(text)-1]
			l.pos--
		}
		return token{kind: tokWord, text: text, line: l.line}, nil
	}
}

func (l *lexer) stringToken(quote byte) (token, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos++
			switch l.src[l.pos] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				b.WriteByte(l.src[l.pos])
			}
			l.pos++
			continue
		}
		if c == quote {
			l.pos++
			tok := token{kind: tokString, text: b.String(), line: l.line}
			// ^^datatype
			if l.pos+1 < len(l.src) && l.src[l.pos] == '^' && l.src[l.pos+1] == '^' {
				l.pos += 2
				if l.pos < len(l.src) && l.src[l.pos] == '<' {
					j := strings.IndexByte(l.src[l.pos:], '>')
					if j < 0 {
						return token{}, l.errf("unterminated datatype IRI")
					}
					tok.datatype = l.src[l.pos+1 : l.pos+j]
					l.pos += j + 1
				} else {
					start := l.pos
					for l.pos < len(l.src) && isWordByte(l.src[l.pos]) {
						l.pos++
					}
					tok.datatype = l.src[start:l.pos]
				}
			} else if l.pos < len(l.src) && l.src[l.pos] == '@' {
				l.pos++
				start := l.pos
				for l.pos < len(l.src) && (l.src[l.pos] >= 'a' && l.src[l.pos] <= 'z' || l.src[l.pos] == '-') {
					l.pos++
				}
				tok.lang = l.src[start:l.pos]
			}
			return tok, nil
		}
		if c == '\n' {
			l.line++
		}
		b.WriteByte(c)
		l.pos++
	}
	return token{}, l.errf("unterminated string literal")
}
