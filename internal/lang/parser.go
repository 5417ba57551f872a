package lang

import (
	"fmt"
	"strconv"
)

// Parser is a recursive-descent parser for Mini-Cecil. It never
// backtracks and decides on the current token alone, so it pulls
// tokens from the lexer one at a time instead of lexing the whole
// source first.
type Parser struct {
	lx *Lexer
	// tok is the current token, read in place. A lexer error ends the
	// stream: lexErr keeps it and the stream ends in an EOF token at its
	// position.
	tok    Token
	lexErr error
	depth  int // expression/statement nesting depth (see maxNestingDepth)

	// Stacks on which open lists collect their elements; a list closes
	// with an exactly sized copy of its part (popList).
	stmts  []Stmt
	exprs  []Expr
	params []Param
	names  []string
}

// popList returns a copy of (*stack)[base:], nil when it is empty, and
// truncates the stack to base.
func popList[T any](stack *[]T, base int) []T {
	var out []T
	if n := len(*stack) - base; n > 0 {
		out = make([]T, n)
		copy(out, (*stack)[base:])
	}
	clear((*stack)[base:])
	*stack = (*stack)[:base]
	return out
}

func newParser(src string) *Parser {
	p := &Parser{lx: NewLexer(src)}
	p.lex(&p.tok)
	return p
}

// maxNestingDepth bounds expression and statement nesting. The parser
// (and the tree interpreter behind it) recurse over the syntax, so
// pathologically nested input — "((((…" or "!!!!…" from a fuzzer —
// would otherwise overflow the Go stack, a fatal fault no error
// boundary can contain. Real programs nest a few dozen levels at most.
const maxNestingDepth = 500

// push charges one nesting level, failing with a positioned parse
// error at the guard. Callers pair it with a deferred pop.
func (p *Parser) push() error {
	p.depth++
	if p.depth > maxNestingDepth {
		return errf(p.cur().Pos, "nesting too deep (limit %d)", maxNestingDepth)
	}
	return nil
}

func (p *Parser) pop() { p.depth-- }

// Parse parses a whole program.
func Parse(src string) (*Program, error) {
	p := newParser(src)
	prog, err := p.parseProgram()
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return prog, nil
}

// ParseExpr parses a single expression followed by EOF; handy in tests.
func ParseExpr(src string) (Expr, error) {
	p := newParser(src)
	e, err := p.parseExpr()
	if err == nil && p.cur().Kind != EOF {
		err = errf(p.cur().Pos, "unexpected %s after expression", p.cur())
	}
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return e, nil
}

// finish settles the outcome of a parse whose result is err: the first
// lexer error anywhere in the source wins over a syntax error (as when
// the whole source was lexed up front), so after a syntax error the
// rest of the source is lexed to look for one.
func (p *Parser) finish(err error) error {
	if err != nil {
		for p.lexErr == nil && p.cur().Kind != EOF {
			p.advance()
		}
	}
	if p.lexErr != nil {
		return p.lexErr
	}
	return err
}

// lex reads the token after the last one lexed into t. Past EOF or a
// lexer error the stream repeats its final EOF token.
func (p *Parser) lex(t *Token) {
	if err := p.lx.scan(t); err != nil {
		p.lexErr = err
		*t = Token{Kind: EOF, Pos: p.lx.pos()}
	}
}

func (p *Parser) cur() *Token { return &p.tok }

func (p *Parser) advance() Token {
	t := p.tok
	if t.Kind != EOF {
		p.lex(&p.tok)
	}
	return t
}

func (p *Parser) accept(k Kind) bool {
	if p.cur().Kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) (Token, error) {
	if p.cur().Kind == k {
		return p.advance(), nil
	}
	return Token{}, errf(p.cur().Pos, "expected %s, found %s", k, p.cur())
}

func (p *Parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for p.cur().Kind != EOF {
		switch p.cur().Kind {
		case KWCLASS:
			c, err := p.parseClass()
			if err != nil {
				return nil, err
			}
			prog.Classes = append(prog.Classes, c)
		case KWMETHOD:
			m, err := p.parseMethod()
			if err != nil {
				return nil, err
			}
			prog.Methods = append(prog.Methods, m)
		case KWVAR:
			g, err := p.parseGlobal()
			if err != nil {
				return nil, err
			}
			prog.Globals = append(prog.Globals, g)
		default:
			return nil, errf(p.cur().Pos, "expected 'class', 'method' or 'var' at top level, found %s", p.cur())
		}
	}
	return prog, nil
}

func (p *Parser) parseClass() (*ClassDecl, error) {
	kw, _ := p.expect(KWCLASS)
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	decl := &ClassDecl{Pos: kw.Pos, Name: name.Text}
	if p.accept(KWISA) {
		for {
			parent, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			decl.Parents = append(decl.Parents, parent.Text)
			if !p.accept(COMMA) {
				break
			}
		}
	}
	if p.accept(LBRACE) {
		for !p.accept(RBRACE) {
			f, err := p.parseField()
			if err != nil {
				return nil, err
			}
			decl.Fields = append(decl.Fields, f)
		}
	}
	p.accept(SEMI) // optional trailing semicolon
	return decl, nil
}

func (p *Parser) parseField() (*FieldDecl, error) {
	kw, err := p.expect(KWFIELD)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	f := &FieldDecl{Pos: kw.Pos, Name: name.Text}
	if p.accept(COLON) {
		ty, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		f.Type = ty.Text
	}
	if p.accept(ASSIGN) {
		f.Init, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *Parser) parseMethod() (*MethodDecl, error) {
	kw, _ := p.expect(KWMETHOD)
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	m := &MethodDecl{Pos: kw.Pos, Name: name.Text}
	base := len(p.params)
	seen := map[string]bool{}
	for p.cur().Kind != RPAREN {
		pn, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if seen[pn.Text] {
			return nil, errf(pn.Pos, "duplicate parameter %q", pn.Text)
		}
		seen[pn.Text] = true
		param := Param{Pos: pn.Pos, Name: pn.Text}
		if p.accept(AT) {
			spec, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			param.Spec = spec.Text
		}
		p.params = append(p.params, param)
		if !p.accept(COMMA) {
			break
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	m.Params = popList(&p.params, base)
	m.Body, err = p.parseBlock()
	if err != nil {
		return nil, err
	}
	return m, nil
}

func (p *Parser) parseGlobal() (*GlobalDecl, error) {
	kw, _ := p.expect(KWVAR)
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	init, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return &GlobalDecl{Pos: kw.Pos, Name: name.Text, Init: init}, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	if err := p.push(); err != nil {
		return nil, err
	}
	defer p.pop()
	lb, err := p.expect(LBRACE)
	if err != nil {
		return nil, err
	}
	base := len(p.stmts)
	for p.cur().Kind != RBRACE {
		if p.cur().Kind == EOF {
			return nil, errf(lb.Pos, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, s)
	}
	p.advance() // }
	return &Block{Pos: lb.Pos, Stmts: popList(&p.stmts, base)}, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch p.cur().Kind {
	case KWVAR:
		kw := p.advance()
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(ASSIGN); err != nil {
			return nil, err
		}
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &VarStmt{Pos: kw.Pos, Name: name.Text, Init: init}, nil

	case KWRETURN:
		kw := p.advance()
		ret := &ReturnStmt{Pos: kw.Pos}
		if p.cur().Kind != SEMI {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ret.X = x
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return ret, nil

	case KWWHILE:
		kw := p.advance()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Pos: kw.Pos, Cond: cond, Body: body}, nil

	case KWIF:
		return p.parseIf()
	}

	// Expression or assignment statement.
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == ASSIGN {
		at := p.advance()
		switch x.(type) {
		case *Ident, *FieldAccess:
		default:
			return nil, errf(at.Pos, "left side of ':=' must be a variable or field")
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &AssignStmt{Pos: at.Pos, LHS: x, RHS: rhs}, nil
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return &ExprStmt{X: x}, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	kw, _ := p.expect(KWIF)
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{Pos: kw.Pos, Cond: cond, Then: then}
	if p.accept(KWELSE) {
		if p.cur().Kind == KWIF {
			elif, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			s.Else = &Block{Pos: elif.(*IfStmt).Pos, Stmts: []Stmt{elif}}
		} else {
			s.Else, err = p.parseBlock()
			if err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Operator-precedence expression parsing.

func (p *Parser) parseExpr() (Expr, error) {
	if err := p.push(); err != nil {
		return nil, err
	}
	defer p.pop()
	return p.parseBinary(1)
}

// binPrec is each binary operator's precedence, loosest first; 0 marks
// a token that is no binary operator. Comparisons share cmpPrec and do
// not associate.
var binPrec = [KWNIL + 1]uint8{
	OROR: 1, ANDAND: 2,
	EQ: cmpPrec, NE: cmpPrec, LT: cmpPrec, LE: cmpPrec, GT: cmpPrec, GE: cmpPrec,
	PLUS: 4, MINUS: 4, STAR: 5, SLASH: 5, PERCENT: 5,
}

const cmpPrec = 3

// parseBinary parses a chain of binary operators of precedence minPrec
// and tighter, folding left. last is the precedence of the operator
// folded last: a comparison after a comparison, or an operator tighter
// than last (one the operand's own chain stopped at, which is only a
// comparison after a comparison), ends the chain.
func (p *Parser) parseBinary(minPrec uint8) (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for last := uint8(0xff); ; {
		op := p.cur()
		prec := binPrec[op.Kind]
		if prec < minPrec || prec > last || prec == cmpPrec && last == cmpPrec {
			return l, nil
		}
		pos, kind := op.Pos, op.Kind
		p.advance()
		r, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Pos: pos, Op: kind, L: l, R: r}
		last = prec
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	switch p.cur().Kind {
	case NOT, MINUS:
		// Unary chains ("!!!!…") recurse without re-entering parseExpr,
		// so they charge nesting depth here.
		if err := p.push(); err != nil {
			return nil, err
		}
		defer p.pop()
		op := p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold -IntLit immediately so negative literals are literals.
		if op.Kind == MINUS {
			if il, ok := x.(*IntLit); ok {
				return &IntLit{Pos: op.Pos, Val: -il.Val}, nil
			}
		}
		return &UnaryExpr{Pos: op.Pos, Op: op.Kind, X: x}, nil
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case DOT:
			p.advance()
			sel, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if p.cur().Kind == LPAREN {
				args, err := p.parseArgs()
				if err != nil {
					return nil, err
				}
				x = &SendSugar{Pos: sel.Pos, Recv: x, Sel: sel.Text, Args: args}
			} else {
				x = &FieldAccess{Pos: sel.Pos, Recv: x, Name: sel.Text}
			}
		case LPAREN:
			// f(args) on a non-identifier expression: closure call.
			pos := p.cur().Pos
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			x = &ApplyExpr{Pos: pos, Fn: x, Args: args}
		default:
			return x, nil
		}
	}
}

func (p *Parser) parseArgs() ([]Expr, error) {
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	base := len(p.exprs)
	for p.cur().Kind != RPAREN {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.exprs = append(p.exprs, a)
		if !p.accept(COMMA) {
			break
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	args := popList(&p.exprs, base)
	if args == nil {
		args = []Expr{}
	}
	return args, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := *p.cur()
	switch t.Kind {
	case INT:
		p.advance()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errf(t.Pos, "integer out of range: %s", t.Text)
		}
		return &IntLit{Pos: t.Pos, Val: v}, nil
	case STRING:
		p.advance()
		return &StrLit{Pos: t.Pos, Val: t.Text}, nil
	case KWTRUE:
		p.advance()
		return &BoolLit{Pos: t.Pos, Val: true}, nil
	case KWFALSE:
		p.advance()
		return &BoolLit{Pos: t.Pos, Val: false}, nil
	case KWNIL:
		p.advance()
		return &NilLit{Pos: t.Pos}, nil
	case IDENT:
		if p.advance(); p.cur().Kind == LPAREN {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &Call{Pos: t.Pos, Name: t.Text, Args: args}, nil
		}
		return &Ident{Pos: t.Pos, Name: t.Text}, nil
	case KWNEW:
		p.advance()
		cls, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		return &NewExpr{Pos: t.Pos, Class: cls.Text, Args: args}, nil
	case KWFN:
		p.advance()
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		base := len(p.names)
		seen := map[string]bool{}
		for p.cur().Kind != RPAREN {
			pn, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if seen[pn.Text] {
				return nil, errf(pn.Pos, "duplicate parameter %q", pn.Text)
			}
			seen[pn.Text] = true
			p.names = append(p.names, pn.Text)
			if !p.accept(COMMA) {
				break
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		params := popList(&p.names, base)
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &FnExpr{Pos: t.Pos, Params: params, Body: body}, nil
	case LPAREN:
		p.advance()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return x, nil
	case KWIF:
		// if-expressions: permitted anywhere an expression is.
		s, err := p.parseIf()
		if err != nil {
			return nil, err
		}
		ifs := s.(*IfStmt)
		return &BlockExpr{Pos: ifs.Pos, Block: &Block{Pos: ifs.Pos, Stmts: []Stmt{ifs}}}, nil
	}
	return nil, errf(t.Pos, "unexpected %s in expression", t)
}

// MustParse parses src and panics on error; for tests and embedded
// benchmark programs that are known-good.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("lang.MustParse: %v", err))
	}
	return prog
}
