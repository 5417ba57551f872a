package lang

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer turns Mini-Cecil source text into a token stream. Comments run
// from "--" or "//" to end of line. Strings use double quotes with the
// escapes \n \t \\ \" .
type Lexer struct {
	src  string
	off  int // byte offset of next rune
	line int
	col  int // column of next rune, 1-based
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// decode returns the next rune and its width, or -1 and 0 at the end.
// ASCII bytes are their own runes; only a byte from 0x80 up decodes.
func (lx *Lexer) decode() (rune, int) {
	if lx.off >= len(lx.src) {
		return -1, 0
	}
	if b := lx.src[lx.off]; b < utf8.RuneSelf {
		return rune(b), 1
	}
	return utf8.DecodeRuneInString(lx.src[lx.off:])
}

func (lx *Lexer) peek() rune {
	r, _ := lx.decode()
	return r
}

func (lx *Lexer) next() rune {
	r, w := lx.decode()
	lx.off += w
	switch {
	case r == '\n':
		lx.line++
		lx.col = 1
	case w > 0:
		lx.col++
	}
	return r
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentCont(r rune) bool  { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }

// asciiClass classifies the ASCII bytes for the lexer's byte scan.
var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for b := range t {
		switch {
		case b >= '0' && b <= '9':
			t[b] = identByte | digitByte
		case b == '_' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z':
			t[b] = identByte | startByte
		}
	}
	for kw := range keywords {
		t[kw[0]] |= keywordByte
	}
	return t
}()

const (
	identByte   = 1 << iota // continues an identifier
	digitByte               // a decimal digit
	startByte               // starts an identifier
	keywordByte             // starts a keyword
)

// scanWhile consumes the ASCII bytes of class, then, from the first
// non-ASCII byte on, the runes that satisfy more.
func (lx *Lexer) scanWhile(class uint8, more func(rune) bool) {
	start := lx.off
	for lx.off < len(lx.src) && lx.src[lx.off] < utf8.RuneSelf && asciiClass[lx.src[lx.off]]&class != 0 {
		lx.off++
	}
	lx.col += lx.off - start
	if lx.off < len(lx.src) && lx.src[lx.off] >= utf8.RuneSelf {
		for more(lx.peek()) {
			lx.next()
		}
	}
}

// skipSpace consumes whitespace and comments. A comment's text is
// skipped whole; columns past it count runes.
func (lx *Lexer) skipSpace() {
	for lx.off < len(lx.src) {
		switch b := lx.src[lx.off]; b {
		case ' ', '\t', '\r':
			lx.off++
			lx.col++
		case '\n':
			lx.off++
			lx.line++
			lx.col = 1
		case '-', '/':
			if lx.off+1 >= len(lx.src) || lx.src[lx.off+1] != b {
				return
			}
			end := strings.IndexByte(lx.src[lx.off:], '\n')
			if end < 0 {
				end = len(lx.src) - lx.off
			}
			lx.col += utf8.RuneCountInString(lx.src[lx.off : lx.off+end])
			lx.off += end
		default:
			return
		}
	}
}

// Next returns the next token, or an error for malformed input.
func (lx *Lexer) Next() (Token, error) {
	var t Token
	if err := lx.scan(&t); err != nil {
		return Token{}, err
	}
	return t, nil
}

// punct maps each single-byte operator and punctuation token to its
// kind, EOF for a byte that is no token on its own.
var punct = [utf8.RuneSelf]Kind{
	'(': LPAREN, ')': RPAREN, '{': LBRACE, '}': RBRACE, '[': LBRACKET, ']': RBRACKET,
	',': COMMA, ';': SEMI, '.': DOT, '@': AT, '+': PLUS, '-': MINUS, '*': STAR,
	'/': SLASH, '%': PERCENT, ':': COLON, '!': NOT, '<': LT, '>': GT,
}

// pairs maps the first byte of each two-byte operator to its second
// byte and its kind.
var pairs = [utf8.RuneSelf]struct {
	second byte
	kind   Kind
}{
	':': {'=', ASSIGN}, '!': {'=', NE}, '<': {'=', LE}, '>': {'=', GE},
	'=': {'=', EQ}, '&': {'&', ANDAND}, '|': {'|', OROR},
}

// scan lexes the next token into t, the parser's token in place.
func (lx *Lexer) scan(t *Token) error {
	lx.skipSpace()
	pos := lx.pos()
	r := lx.peek()
	*t = Token{Pos: pos}
	if r == -1 {
		return nil
	}

	switch {
	case r < utf8.RuneSelf && asciiClass[r]&startByte != 0 || r >= utf8.RuneSelf && isIdentStart(r):
		start := lx.off
		lx.scanWhile(identByte, isIdentCont)
		t.Text = lx.src[start:lx.off]
		t.Kind = IDENT
		if r < utf8.RuneSelf && asciiClass[r]&keywordByte != 0 {
			if kw, ok := keywords[t.Text]; ok {
				t.Kind = kw
			}
		}
		return nil

	case r < utf8.RuneSelf && asciiClass[r]&digitByte != 0 || r >= utf8.RuneSelf && unicode.IsDigit(r):
		start := lx.off
		lx.scanWhile(digitByte, unicode.IsDigit)
		if isIdentStart(lx.peek()) {
			return errf(pos, "malformed number: letter follows digits")
		}
		t.Kind, t.Text = INT, lx.src[start:lx.off]
		return nil

	case r == '"':
		lx.next()
		var b strings.Builder
		for {
			c := lx.next()
			switch c {
			case -1, '\n':
				return errf(pos, "unterminated string literal")
			case '"':
				t.Kind, t.Text = STRING, b.String()
				return nil
			case '\\':
				e := lx.next()
				switch e {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				default:
					return errf(pos, "unknown escape \\%c", e)
				}
			default:
				b.WriteRune(c)
			}
		}
	}

	lx.next()
	if r >= utf8.RuneSelf {
		return errf(pos, "unexpected character %q", r)
	}
	if p := pairs[r]; p.kind != EOF && lx.peek() == rune(p.second) {
		lx.next()
		t.Kind = p.kind
		return nil
	}
	switch t.Kind = punct[r]; {
	case r == '=':
		return errf(pos, "unexpected '=' (use ':=' for assignment, '==' for equality)")
	case r == '&':
		return errf(pos, "unexpected '&' (did you mean '&&'?)")
	case r == '|':
		return errf(pos, "unexpected '|' (did you mean '||'?)")
	case t.Kind == EOF:
		return errf(pos, "unexpected character %q", r)
	}
	return nil
}

// Tokenize lexes the whole input, returning all tokens up to and
// including EOF, or the first error.
func Tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}
