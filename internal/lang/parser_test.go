package lang

import (
	"strings"
	"testing"
)

func TestParseClassDecl(t *testing.T) {
	p, err := Parse(`
class Set
class ListSet isa Set {
  field elems := nil;
  field n := 0;
}
class Both isa ListSet, Set
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Classes) != 3 {
		t.Fatalf("got %d classes", len(p.Classes))
	}
	ls := p.Classes[1]
	if ls.Name != "ListSet" || len(ls.Parents) != 1 || ls.Parents[0] != "Set" {
		t.Errorf("ListSet parsed wrong: %+v", ls)
	}
	if len(ls.Fields) != 2 || ls.Fields[0].Name != "elems" || ls.Fields[1].Name != "n" {
		t.Errorf("fields parsed wrong: %+v", ls.Fields)
	}
	if len(p.Classes[2].Parents) != 2 {
		t.Errorf("multiple inheritance parsed wrong: %+v", p.Classes[2])
	}
}

func TestParseMethodDecl(t *testing.T) {
	p, err := Parse(`
method overlaps(s1@Set, s2@Set) {
  s1.do(fn(e) { if s2.includes(e) { return true; } });
  false;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Methods[0]
	if m.Name != "overlaps" || len(m.Params) != 2 {
		t.Fatalf("method parsed wrong: %+v", m)
	}
	if m.Params[0].Spec != "Set" || m.Params[1].Spec != "Set" {
		t.Errorf("specializers wrong: %+v", m.Params)
	}
	if len(m.Body.Stmts) != 2 {
		t.Fatalf("body has %d stmts", len(m.Body.Stmts))
	}
	send, ok := m.Body.Stmts[0].(*ExprStmt).X.(*SendSugar)
	if !ok || send.Sel != "do" {
		t.Fatalf("first stmt should be send of do: %T", m.Body.Stmts[0])
	}
	if _, ok := send.Args[0].(*FnExpr); !ok {
		t.Fatalf("closure argument not parsed: %T", send.Args[0])
	}
}

func TestParseUnspecializedParam(t *testing.T) {
	p, err := Parse(`method id(x) { x; }`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Methods[0].Params[0].Spec != "" {
		t.Error("unspecialized param should have empty Spec")
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3 == 7 && !done || x < 4")
	if err != nil {
		t.Fatal(err)
	}
	got := FormatExpr(e)
	want := "((((1 + (2 * 3)) == 7) && !(done)) || (x < 4))"
	if got != want {
		t.Errorf("precedence:\n got %s\nwant %s", got, want)
	}
}

func TestParseNegativeLiteralFolded(t *testing.T) {
	e, err := ParseExpr("-5")
	if err != nil {
		t.Fatal(err)
	}
	il, ok := e.(*IntLit)
	if !ok || il.Val != -5 {
		t.Fatalf("-5 parsed as %T %v", e, FormatExpr(e))
	}
}

func TestParsePostfixChains(t *testing.T) {
	e, err := ParseExpr("a.b.c(1).d(x.f)(2)")
	if err != nil {
		t.Fatal(err)
	}
	// ((a.b).c(1)).d(x.f) applied to (2): outermost is ApplyExpr.
	app, ok := e.(*ApplyExpr)
	if !ok {
		t.Fatalf("outermost = %T", e)
	}
	send, ok := app.Fn.(*SendSugar)
	if !ok || send.Sel != "d" {
		t.Fatalf("fn = %v", FormatExpr(app.Fn))
	}
	if _, ok := send.Args[0].(*FieldAccess); !ok {
		t.Fatalf("arg should be field access: %T", send.Args[0])
	}
}

func TestParseNewAndFn(t *testing.T) {
	e, err := ParseExpr("new Point(1, 2)")
	if err != nil {
		t.Fatal(err)
	}
	ne := e.(*NewExpr)
	if ne.Class != "Point" || len(ne.Args) != 2 {
		t.Fatalf("new parsed wrong: %+v", ne)
	}

	e, err = ParseExpr("fn(x, y) { x + y; }")
	if err != nil {
		t.Fatal(err)
	}
	fe := e.(*FnExpr)
	if len(fe.Params) != 2 {
		t.Fatalf("fn params: %v", fe.Params)
	}
}

func TestParseIfElseChain(t *testing.T) {
	p, err := Parse(`
method f(x) {
  if x == 1 { 10; } else if x == 2 { 20; } else { 30; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	ifs, ok := p.Methods[0].Body.Stmts[0].(*IfStmt)
	if !ok {
		t.Fatalf("stmt = %T", p.Methods[0].Body.Stmts[0])
	}
	if ifs.Else == nil || len(ifs.Else.Stmts) != 1 {
		t.Fatal("else-if chain missing")
	}
	if _, ok := ifs.Else.Stmts[0].(*IfStmt); !ok {
		t.Fatalf("nested if missing: %T", ifs.Else.Stmts[0])
	}
}

func TestParseIfExpression(t *testing.T) {
	p, err := Parse(`method f(x) { var y := if x { 1; } else { 2; }; y; }`)
	if err != nil {
		t.Fatal(err)
	}
	vs := p.Methods[0].Body.Stmts[0].(*VarStmt)
	if _, ok := vs.Init.(*BlockExpr); !ok {
		t.Fatalf("if-expression parsed as %T", vs.Init)
	}
}

func TestParseWhileReturnAssign(t *testing.T) {
	p, err := Parse(`
method loop(n) {
  var i := 0;
  var sum := 0;
  while i < n {
    sum := sum + i;
    i := i + 1;
  }
  return sum;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	body := p.Methods[0].Body
	if _, ok := body.Stmts[2].(*WhileStmt); !ok {
		t.Fatalf("stmt 2 = %T", body.Stmts[2])
	}
	if _, ok := body.Stmts[3].(*ReturnStmt); !ok {
		t.Fatalf("stmt 3 = %T", body.Stmts[3])
	}
}

func TestParseFieldAssignment(t *testing.T) {
	p, err := Parse(`method bump(c@Counter) { c.n := c.n + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	as, ok := p.Methods[0].Body.Stmts[0].(*AssignStmt)
	if !ok {
		t.Fatalf("stmt = %T", p.Methods[0].Body.Stmts[0])
	}
	if _, ok := as.LHS.(*FieldAccess); !ok {
		t.Fatalf("LHS = %T", as.LHS)
	}
}

func TestParseGlobals(t *testing.T) {
	p, err := Parse(`var g := 41 + 1;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Globals) != 1 || p.Globals[0].Name != "g" {
		t.Fatalf("globals: %+v", p.Globals)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{`method f(x, x) { x; }`, "duplicate parameter"},
		{`fnord`, "expected 'class', 'method' or 'var'"},
		{`method f() { 1 + ; }`, "unexpected"},
		{`method f() { (1 + 2 := 3; }`, "expected ')'"},
		{`method f() { 1 + 2 := 3; }`, "left side of ':='"},
		{`method f() { var x 3; }`, "expected ':='"},
		{`method f() { while x }`, "expected '{'"},
		{`class`, "expected identifier"},
		{`method f() { return 1 }`, "expected ';'"},
		{`method f() { if x { 1; }`, "unterminated block"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): no error, want %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error = %v, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on bad input did not panic")
		}
	}()
	MustParse("oops")
}

// TestFormatRoundTrip checks that formatting then reparsing yields the
// same formatted output (a fixpoint), for a representative program.
func TestFormatRoundTrip(t *testing.T) {
	src := `
class Set
class ListSet isa Set { field elems := nil; field n := 0; }
var gCount := 0;
method includes(s@Set, e) {
  var found := false;
  s.do(fn(x) { if x == e { found := true; } });
  found;
}
method do(s@ListSet, body) {
  var i := 0;
  while i < s.n {
    body(aget(s.elems, i));
    i := i + 1;
  }
}
method main() {
  var s := new ListSet(newarray(4), 0);
  print("hi " + str(1 - 2));
  !(true && false) || s.includes(3);
}
`
	p1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f1 := Format(p1)
	p2, err := Parse(f1)
	if err != nil {
		t.Fatalf("formatted output does not reparse: %v\n%s", err, f1)
	}
	f2 := Format(p2)
	if f1 != f2 {
		t.Errorf("Format not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", f1, f2)
	}
}

// TestParseReportsFirstLexError: the parser pulls tokens on demand, but
// a lexer error anywhere in the source is still the error Parse
// reports, ahead of an earlier syntax error and after a complete
// program, exactly as when the whole source was lexed first.
func TestParseReportsFirstLexError(t *testing.T) {
	for _, src := range []string{
		"method main() { 1 + ; }\nmethod g() { a & b; }",
		"method main() { 1; }\n$",
		"method main() { \"open",
		"class A isa { }\n|",
	} {
		_, lexErr := Tokenize(src)
		if lexErr == nil {
			t.Fatalf("%q: no lexer error", src)
		}
		if _, err := Parse(src); err == nil || err.Error() != lexErr.Error() {
			t.Errorf("Parse(%q) = %v, want %v", src, err, lexErr)
		}
		if _, err := ParseExpr(src); err == nil || err.Error() != lexErr.Error() {
			t.Errorf("ParseExpr(%q) = %v, want %v", src, err, lexErr)
		}
	}
}
