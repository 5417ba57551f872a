package lang

import (
	"fmt"
	"strconv"
)

// Parser is a recursive-descent parser for Mini-Cecil. It never
// backtracks and looks at most one token past the current one, so it
// pulls tokens from the lexer through a two-token window instead of
// lexing the whole source first.
type Parser struct {
	lx *Lexer
	// win[0] is the current token and win[1], when n == 2, the one
	// after it. A lexer error ends the stream: lexErr keeps it and the
	// window ends in an EOF token at its position.
	win    [2]Token
	n      int
	lexErr error
	depth  int // expression/statement nesting depth (see maxNestingDepth)
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
	p := &Parser{lx: NewLexer(src)}
	prog, err := p.parseProgram()
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return prog, nil
}

// ParseExpr parses a single expression followed by EOF; handy in tests.
func ParseExpr(src string) (Expr, error) {
	p := &Parser{lx: NewLexer(src)}
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

// fill lexes tokens into the window until it holds n of them (n <= 2).
// Past EOF or a lexer error the window repeats its final EOF token.
func (p *Parser) fill(n int) {
	for p.n < n {
		if p.n > 0 && p.win[p.n-1].Kind == EOF {
			p.win[p.n] = p.win[p.n-1]
		} else if t, err := p.lx.Next(); err != nil {
			p.lexErr = err
			p.win[p.n] = Token{Kind: EOF, Pos: p.lx.pos()}
		} else {
			p.win[p.n] = t
		}
		p.n++
	}
}

func (p *Parser) cur() Token {
	p.fill(1)
	return p.win[0]
}

func (p *Parser) peek() Token { // token after cur
	p.fill(2)
	return p.win[1]
}

func (p *Parser) advance() Token {
	t := p.cur()
	if t.Kind != EOF {
		p.win[0] = p.win[1]
		p.n--
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

func (p *Parser) expectIdent() (Token, error) {
	return p.expect(IDENT)
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
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	decl := &ClassDecl{Pos: kw.Pos, Name: name.Text}
	if p.accept(KWISA) {
		for {
			parent, err := p.expectIdent()
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
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	f := &FieldDecl{Pos: kw.Pos, Name: name.Text}
	if p.accept(COLON) {
		ty, err := p.expectIdent()
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
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	m := &MethodDecl{Pos: kw.Pos, Name: name.Text}
	seen := map[string]bool{}
	for p.cur().Kind != RPAREN {
		pn, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if seen[pn.Text] {
			return nil, errf(pn.Pos, "duplicate parameter %q", pn.Text)
		}
		seen[pn.Text] = true
		param := Param{Pos: pn.Pos, Name: pn.Text}
		if p.accept(AT) {
			spec, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			param.Spec = spec.Text
		}
		m.Params = append(m.Params, param)
		if !p.accept(COMMA) {
			break
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	m.Body, err = p.parseBlock()
	if err != nil {
		return nil, err
	}
	return m, nil
}

func (p *Parser) parseGlobal() (*GlobalDecl, error) {
	kw, _ := p.expect(KWVAR)
	name, err := p.expectIdent()
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
	b := &Block{Pos: lb.Pos}
	for p.cur().Kind != RBRACE {
		if p.cur().Kind == EOF {
			return nil, errf(lb.Pos, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.advance() // }
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch p.cur().Kind {
	case KWVAR:
		kw := p.advance()
		name, err := p.expectIdent()
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
	return p.parseOr()
}

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == OROR {
		op := p.advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Pos: op.Pos, Op: OROR, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == ANDAND {
		op := p.advance()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Pos: op.Pos, Op: ANDAND, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case EQ, NE, LT, LE, GT, GE:
		op := p.advance()
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Pos: op.Pos, Op: op.Kind, L: l, R: r}, nil
	}
	return l, nil
}

func (p *Parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == PLUS || p.cur().Kind == MINUS {
		op := p.advance()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Pos: op.Pos, Op: op.Kind, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == STAR || p.cur().Kind == SLASH || p.cur().Kind == PERCENT {
		op := p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Pos: op.Pos, Op: op.Kind, L: l, R: r}
	}
	return l, nil
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
			sel, err := p.expectIdent()
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
	var args []Expr
	for p.cur().Kind != RPAREN {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.accept(COMMA) {
			break
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	if args == nil {
		args = []Expr{}
	}
	return args, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
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
		if p.peek().Kind == LPAREN {
			p.advance()
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &Call{Pos: t.Pos, Name: t.Text, Args: args}, nil
		}
		p.advance()
		return &Ident{Pos: t.Pos, Name: t.Text}, nil
	case KWNEW:
		p.advance()
		cls, err := p.expectIdent()
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
		var params []string
		seen := map[string]bool{}
		for p.cur().Kind != RPAREN {
			pn, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if seen[pn.Text] {
				return nil, errf(pn.Pos, "duplicate parameter %q", pn.Text)
			}
			seen[pn.Text] = true
			params = append(params, pn.Text)
			if !p.accept(COMMA) {
				break
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
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
