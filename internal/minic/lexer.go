package minic

import (
	"fmt"
	"strings"
)

// Error is a frontend diagnostic carrying a source position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList collects diagnostics; it implements error.
type ErrorList []*Error

func (l ErrorList) Error() string {
	if len(l) == 0 {
		return "no errors"
	}
	var b strings.Builder
	for i, e := range l {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.Error())
	}
	return b.String()
}

// Err returns the list as an error, or nil when empty.
func (l ErrorList) Err() error {
	if len(l) == 0 {
		return nil
	}
	return l
}

// Lexer turns MiniC source text into tokens.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	errs ErrorList
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes the entire input, returning the token stream (always
// terminated by an EOF token) and any lexical errors.
func Lex(src string) ([]Token, ErrorList) {
	lx := NewLexer(src)
	// The workloads run 3.8-4.5 source bytes per token; one token per
	// three bytes sizes the slice once instead of doubling it ~10 times.
	toks := make([]Token, 0, len(src)/3+1)
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, lx.errs
		}
	}
}

func (lx *Lexer) errorf(pos Pos, format string, args ...any) {
	lx.errs = append(lx.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func (lx *Lexer) skipSpaceAndComments() {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				lx.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next returns the next token.
func (lx *Lexer) Next() Token {
	lx.skipSpaceAndComments()
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: EOF, Pos: pos}
	}
	c := lx.advance()
	switch {
	case isDigit(c):
		start := lx.off - 1
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		return Token{Kind: INT, Lit: lx.src[start:lx.off], Pos: pos}
	case isAlpha(c):
		start := lx.off - 1
		for lx.off < len(lx.src) && (isAlpha(lx.peek()) || isDigit(lx.peek())) {
			lx.advance()
		}
		lit := lx.src[start:lx.off]
		if kw, ok := keywords[lit]; ok {
			return Token{Kind: kw, Pos: pos}
		}
		return Token{Kind: IDENT, Lit: lit, Pos: pos}
	case c == '"':
		return lx.lexString(pos)
	case c == '\'':
		return lx.lexChar(pos)
	}

	two := func(next byte, k2, k1 TokKind) Token {
		if lx.peek() == next {
			lx.advance()
			return Token{Kind: k2, Pos: pos}
		}
		return Token{Kind: k1, Pos: pos}
	}

	switch c {
	case '(':
		return Token{Kind: LParen, Pos: pos}
	case ')':
		return Token{Kind: RParen, Pos: pos}
	case '{':
		return Token{Kind: LBrace, Pos: pos}
	case '}':
		return Token{Kind: RBrace, Pos: pos}
	case '[':
		return Token{Kind: LBracket, Pos: pos}
	case ']':
		return Token{Kind: RBracket, Pos: pos}
	case ',':
		return Token{Kind: Comma, Pos: pos}
	case ';':
		return Token{Kind: Semi, Pos: pos}
	case ':':
		return Token{Kind: Colon, Pos: pos}
	case '~':
		return Token{Kind: Tilde, Pos: pos}
	case '^':
		return Token{Kind: Caret, Pos: pos}
	case '/':
		return Token{Kind: Slash, Pos: pos}
	case '%':
		return Token{Kind: Percent, Pos: pos}
	case '=':
		return two('=', EqEq, Assign)
	case '!':
		return two('=', NotEq, Bang)
	case '+':
		if lx.peek() == '+' {
			lx.advance()
			return Token{Kind: PlusPlus, Pos: pos}
		}
		return two('=', PlusEq, Plus)
	case '-':
		if lx.peek() == '-' {
			lx.advance()
			return Token{Kind: MinusMinus, Pos: pos}
		}
		if lx.peek() == '>' {
			lx.advance()
			return Token{Kind: Arrow, Pos: pos}
		}
		return two('=', MinusEq, Minus)
	case '.':
		return Token{Kind: Dot, Pos: pos}
	case '*':
		return Token{Kind: Star, Pos: pos}
	case '&':
		return two('&', AndAnd, Amp)
	case '|':
		return two('|', OrOr, Pipe)
	case '<':
		if lx.peek() == '<' {
			lx.advance()
			return Token{Kind: Shl, Pos: pos}
		}
		return two('=', Le, Lt)
	case '>':
		if lx.peek() == '>' {
			lx.advance()
			return Token{Kind: Shr, Pos: pos}
		}
		return two('=', Ge, Gt)
	}
	lx.errorf(pos, "unexpected character %q", c)
	return lx.Next()
}

func (lx *Lexer) lexString(pos Pos) Token {
	var b strings.Builder
	for {
		if lx.off >= len(lx.src) {
			lx.errorf(pos, "unterminated string literal")
			break
		}
		c := lx.advance()
		if c == '"' {
			break
		}
		if c == '\\' {
			if lx.off >= len(lx.src) {
				lx.errorf(pos, "unterminated escape in string literal")
				break
			}
			b.WriteByte(lx.escape(lx.advance()))
			continue
		}
		if c == '\n' {
			lx.errorf(pos, "newline in string literal")
			break
		}
		b.WriteByte(c)
	}
	return Token{Kind: STRING, Lit: b.String(), Pos: pos}
}

func (lx *Lexer) lexChar(pos Pos) Token {
	if lx.off >= len(lx.src) {
		lx.errorf(pos, "unterminated char literal")
		return Token{Kind: CHARLIT, Lit: "\x00", Pos: pos}
	}
	c := lx.advance()
	if c == '\\' {
		if lx.off >= len(lx.src) {
			lx.errorf(pos, "unterminated char literal")
			return Token{Kind: CHARLIT, Lit: "\x00", Pos: pos}
		}
		c = lx.escape(lx.advance())
	}
	if lx.peek() != '\'' {
		lx.errorf(pos, "unterminated char literal")
	} else {
		lx.advance()
	}
	return Token{Kind: CHARLIT, Lit: string(c), Pos: pos}
}

func (lx *Lexer) escape(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	}
	lx.errorf(lx.pos(), "unknown escape \\%c", c)
	return c
}
