// Package sciql implements the SciQL subset used by the paper's
// processing chain (Zhang, Kersten, Ivanova, Nes — IDEAS 2011): SQL with
// arrays as first-class citizens, dimension projections "[x]", range
// slicing "a[x0:x1][y0:y1]", dimension joins, and the structural grouping
// "GROUP BY a[x-1:x+2][y-1:y+2]" that generalises window queries. The
// classification query of the paper's Figure 4 runs verbatim.
//
// An expression is evaluated at a selection, the cells still in play:
// AND evaluates its right side only where its left side holds, CASE each
// WHEN only at the cells no earlier WHEN decided and each THEN only where
// its WHEN holds. A subquery's computed columns are deferred (an item's
// expression over the source frame; a window aggregate's summed-area
// table, built over every cell on first read) and a crop's columns are
// cuts of its source's, each read only at the cells a consumer selects;
// the statement's result computes its columns at every cell. A cell
// expression cannot fail or act per cell, so each cell runs the
// operations, in the order, of a full-column evaluation. Nothing an
// evaluation builds outlives Exec; input arrays are adopted read-only,
// and ":name" parameters are bound per run (Engine.ExecParams).
// oracle_test.go holds this to the allocating evaluator, bit for bit.
package sciql

import (
	"fmt"
	"strings"
)

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tNumber
	tString
	tPunct // ( ) [ ] , ; . :
	tOp    // = <> != <= >= < > + - * /
)

type tok struct {
	kind tokKind
	text string
	line int
}

type lexer struct {
	src  string
	pos  int
	line int
}

func lexAll(src string) ([]tok, error) {
	l := &lexer{src: src, line: 1}
	var out []tok
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tEOF {
			return out, nil
		}
	}
}

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("sciql: line %d: %s", l.line, fmt.Sprintf(format, args...))
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
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

func isIdentByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_'
}

func (l *lexer) next() (tok, error) {
	l.skipWS()
	if l.pos >= len(l.src) {
		return tok{kind: tEOF, line: l.line}, nil
	}
	c := l.src[l.pos]
	switch {
	case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
		start := l.pos
		for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
			l.pos++
		}
		return tok{kind: tIdent, text: l.src[start:l.pos], line: l.line}, nil
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
		if strings.HasSuffix(text, ".") {
			text = text[:len(text)-1]
			l.pos--
		}
		return tok{kind: tNumber, text: text, line: l.line}, nil
	case c == '\'':
		l.pos++
		var b strings.Builder
		for l.pos < len(l.src) {
			if l.src[l.pos] == '\'' {
				// Doubled quote escapes a quote.
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					b.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return tok{kind: tString, text: b.String(), line: l.line}, nil
			}
			if l.src[l.pos] == '\n' {
				l.line++
			}
			b.WriteByte(l.src[l.pos])
			l.pos++
		}
		return tok{}, l.errf("unterminated string literal")
	case c == '(' || c == ')' || c == '[' || c == ']' || c == ',' || c == ';' || c == '.' || c == ':':
		l.pos++
		return tok{kind: tPunct, text: string(c), line: l.line}, nil
	case c == '=':
		l.pos++
		return tok{kind: tOp, text: "=", line: l.line}, nil
	case c == '<':
		l.pos++
		if l.pos < len(l.src) {
			switch l.src[l.pos] {
			case '=':
				l.pos++
				return tok{kind: tOp, text: "<=", line: l.line}, nil
			case '>':
				l.pos++
				return tok{kind: tOp, text: "<>", line: l.line}, nil
			}
		}
		return tok{kind: tOp, text: "<", line: l.line}, nil
	case c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return tok{kind: tOp, text: ">=", line: l.line}, nil
		}
		return tok{kind: tOp, text: ">", line: l.line}, nil
	case c == '!':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return tok{kind: tOp, text: "<>", line: l.line}, nil
		}
		return tok{}, l.errf("stray '!'")
	case c == '+' || c == '*' || c == '/' || c == '-':
		l.pos++
		return tok{kind: tOp, text: string(c), line: l.line}, nil
	default:
		return tok{}, l.errf("unexpected character %q", string(c))
	}
}
