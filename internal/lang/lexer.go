package lang

import (
	"strings"
	"unicode"
)

// lexer turns source text into tokens.  Comments run from "--" to end
// of line (the paper's listings use "- -"-style dashes).
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (lx *lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) peek2() byte {
	if lx.pos+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+1]
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '-' && lx.peek2() == '-':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next returns the next token or a positioned error.
func (lx *lexer) next() (Token, error) {
	lx.skipSpaceAndComments()
	line, col := lx.line, lx.col
	if lx.pos >= len(lx.src) {
		return Token{Kind: EOF, Line: line, Col: col}, nil
	}
	c := lx.peek()

	switch {
	case isIdentStart(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentPart(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		if k, ok := keywords[strings.ToLower(text)]; ok {
			return Token{Kind: k, Text: text, Line: line, Col: col}, nil
		}
		return Token{Kind: IDENT, Text: text, Line: line, Col: col}, nil

	case isDigit(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		kind := INTLIT
		// A '.' starts a real literal only when not "..".
		if lx.peek() == '.' && isDigit(lx.peek2()) {
			kind = REALLIT
			lx.advance()
			for lx.pos < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
		if lx.peek() == 'e' || lx.peek() == 'E' {
			save := lx.pos
			lx.advance()
			if lx.peek() == '+' || lx.peek() == '-' {
				lx.advance()
			}
			if isDigit(lx.peek()) {
				kind = REALLIT
				for lx.pos < len(lx.src) && isDigit(lx.peek()) {
					lx.advance()
				}
			} else {
				lx.pos = save // not an exponent; restore
			}
		}
		return Token{Kind: kind, Text: lx.src[start:lx.pos], Line: line, Col: col}, nil
	}

	lx.advance()
	two := func(k Kind, text string) (Token, error) {
		lx.advance()
		return Token{Kind: k, Text: text, Line: line, Col: col}, nil
	}
	switch c {
	case ':':
		if lx.peek() == '=' {
			return two(ASSIGN, ":=")
		}
		return Token{Kind: COLON, Text: ":", Line: line, Col: col}, nil
	case ';':
		return Token{Kind: SEMI, Text: ";", Line: line, Col: col}, nil
	case ',':
		return Token{Kind: COMMA, Text: ",", Line: line, Col: col}, nil
	case '.':
		if lx.peek() == '.' {
			return two(DOTDOT, "..")
		}
		return Token{Kind: DOT, Text: ".", Line: line, Col: col}, nil
	case '[':
		return Token{Kind: LBRACK, Text: "[", Line: line, Col: col}, nil
	case ']':
		return Token{Kind: RBRACK, Text: "]", Line: line, Col: col}, nil
	case '(':
		return Token{Kind: LPAREN, Text: "(", Line: line, Col: col}, nil
	case ')':
		return Token{Kind: RPAREN, Text: ")", Line: line, Col: col}, nil
	case '+':
		return Token{Kind: PLUS, Text: "+", Line: line, Col: col}, nil
	case '-':
		return Token{Kind: MINUS, Text: "-", Line: line, Col: col}, nil
	case '*':
		return Token{Kind: STAR, Text: "*", Line: line, Col: col}, nil
	case '/':
		return Token{Kind: SLASH, Text: "/", Line: line, Col: col}, nil
	case '<':
		if lx.peek() == '=' {
			return two(LE, "<=")
		}
		if lx.peek() == '>' {
			return two(NE, "<>")
		}
		return Token{Kind: LT, Text: "<", Line: line, Col: col}, nil
	case '>':
		if lx.peek() == '=' {
			return two(GE, ">=")
		}
		return Token{Kind: GT, Text: ">", Line: line, Col: col}, nil
	case '=':
		return Token{Kind: EQ, Text: "=", Line: line, Col: col}, nil
	}
	return Token{}, errf(line, col, "unexpected character %q", string(rune(c)))
}

// lexAll tokenizes the whole source.  Kali programs run 2.7–5.9 source
// bytes a token, so a capacity of len(src)/2 takes them with no regrowth.
func lexAll(src string) ([]Token, error) {
	lx := newLexer(src)
	out := make([]Token, 0, len(src)/2+1)
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}
