// Package raparser parses the textual relational algebra syntax used by
// RATest-style tools (the paper's Section 6 uses a similar RA interpreter):
//
//	project[name, major](select[dept = 'CS'](Student join Registration))
//	(q1 diff q2)
//	groupby[name; avg(grade) -> avg_grade](...)
//	select[cnt >= @numCS](groupby[name; count(*) -> cnt](...))
//
// Operators: select[pred], project[cols], rename[alias], groupby[cols; aggs],
// and the infix join / join[pred] / union / diff with standard precedence
// (join binds tightest, then union, then diff; all left-associative).
package raparser

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokParam  // @name
	tokSymbol // punctuation / operators
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case c == '\'':
			s, err := l.lexString()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{kind: tokString, text: s, pos: start})
		case c == '@':
			l.pos++
			id := l.lexIdent()
			if id == "" {
				return nil, fmt.Errorf("raparser: empty parameter name at %d", start)
			}
			l.toks = append(l.toks, token{kind: tokParam, text: id, pos: start})
		case unicode.IsDigit(rune(c)) || (c == '-' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1])) && l.numericContext()):
			l.toks = append(l.toks, token{kind: tokNumber, text: l.lexNumber(), pos: start})
		case isIdentStart(c):
			l.toks = append(l.toks, token{kind: tokIdent, text: l.lexIdent(), pos: start})
		default:
			sym := l.lexSymbol()
			if sym == "" {
				return nil, fmt.Errorf("raparser: unexpected character %q at %d", c, start)
			}
			l.toks = append(l.toks, token{kind: tokSymbol, text: sym, pos: start})
		}
	}
}

// numericContext reports whether a '-' should start a negative number
// (i.e. the previous token is not an operand).
func (l *lexer) numericContext() bool {
	if len(l.toks) == 0 {
		return true
	}
	last := l.toks[len(l.toks)-1]
	switch last.kind {
	case tokIdent, tokNumber, tokString, tokParam:
		return false
	case tokSymbol:
		return last.text != ")" && last.text != "]"
	}
	return true
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '#' { // comment to end of line
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if !unicode.IsSpace(rune(c)) {
			return
		}
		l.pos++
	}
}

func (l *lexer) lexString() (string, error) {
	// assumes src[pos] == '\''
	l.pos++
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return b.String(), nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return "", fmt.Errorf("raparser: unterminated string literal")
}

func (l *lexer) lexNumber() string {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if unicode.IsDigit(rune(c)) {
			l.pos++
			continue
		}
		if c == '.' && !seenDot && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1])) {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	// An exponent, as relation.Value prints floats: e or E, an optional
	// sign, and at least one digit.
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		i := l.pos + 1
		if i < len(l.src) && (l.src[i] == '+' || l.src[i] == '-') {
			i++
		}
		if i < len(l.src) && unicode.IsDigit(rune(l.src[i])) {
			l.pos = i
			for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
				l.pos++
			}
		}
	}
	return l.src[start:l.pos]
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func (l *lexer) lexIdent() string {
	start := l.pos
	for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
		l.pos++
	}
	// Allow qualified names a.b (but not a trailing dot).
	if l.pos < len(l.src) && l.src[l.pos] == '.' && l.pos+1 < len(l.src) && isIdentStart(l.src[l.pos+1]) {
		l.pos++
		for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
			l.pos++
		}
	}
	return l.src[start:l.pos]
}

var symbols = []string{"->", "<=", ">=", "<>", "!=", "(", ")", "[", "]", ",", ";", "=", "<", ">", "+", "-", "*", "/"}

func (l *lexer) lexSymbol() string {
	rest := l.src[l.pos:]
	for _, s := range symbols {
		if strings.HasPrefix(rest, s) {
			l.pos += len(s)
			return s
		}
	}
	return ""
}
