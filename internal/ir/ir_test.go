package ir

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"selspec/internal/lang"
)

func lower(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Lower(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func lowerErr(t *testing.T, src string) error {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse error (want lowering error): %v", err)
	}
	_, err = Lower(prog)
	if err == nil {
		t.Fatalf("Lower(%q): expected error", src)
	}
	return err
}

func TestLowerLiteralsAndLocals(t *testing.T) {
	p := lower(t, `method f(x) { var y := 1; y + x; }`)
	body := p.Bodies[p.H.Methods()[0]]
	if body.NumSlots != 2 {
		t.Fatalf("NumSlots = %d", body.NumSlots)
	}
	seq, ok := body.Code.(*Seq)
	if !ok || len(seq.Nodes) != 2 {
		t.Fatalf("code = %#v", body.Code)
	}
	set, ok := seq.Nodes[0].(*SetLocal)
	if !ok || set.Slot != 1 || set.Depth != 0 {
		t.Fatalf("var stmt = %#v", seq.Nodes[0])
	}
	bin, ok := seq.Nodes[1].(*Bin)
	if !ok || bin.Op != OpAdd {
		t.Fatalf("add = %#v", seq.Nodes[1])
	}
	if l := bin.L.(*Local); l.Slot != 1 {
		t.Errorf("y slot = %d", l.Slot)
	}
	if r := bin.R.(*Local); r.Slot != 0 {
		t.Errorf("x slot = %d", r.Slot)
	}
}

func TestLowerGlobals(t *testing.T) {
	p := lower(t, `
var a := 1;
var b := a + 1;
method f() { b := b + 1; b; }
`)
	if len(p.Globals) != 2 || p.GlobalIdx["b"] != 1 {
		t.Fatalf("globals = %v", p.Globals)
	}
	body := p.Bodies[p.H.Methods()[0]]
	seq := body.Code.(*Seq)
	if sg, ok := seq.Nodes[0].(*SetGlobal); !ok || sg.Slot != 1 {
		t.Fatalf("SetGlobal = %#v", seq.Nodes[0])
	}
}

func TestLowerSendAndSugar(t *testing.T) {
	p := lower(t, `
class C
method g(x@C) { 1; }
method f(c@C) { g(c); c.g(); }
`)
	var f *MethodBody
	for m, b := range p.Bodies {
		if m.GF.Name == "f" {
			f = b
		}
	}
	sends := SendSites(f.Code)
	if len(sends) != 2 {
		t.Fatalf("got %d sends", len(sends))
	}
	for _, s := range sends {
		if s.Site.GF.Name != "g" {
			t.Errorf("send to %s", s.Site.GF.Key())
		}
		if s.Site.Caller == nil || s.Site.Caller.GF.Name != "f" {
			t.Errorf("caller = %v", s.Site.Caller)
		}
	}
	if len(p.Sites) != 2 {
		t.Errorf("program sites = %d", len(p.Sites))
	}
}

func TestLowerPrimitives(t *testing.T) {
	p := lower(t, `method f() { print(str(1)); aput(newarray(3), 0, 2); }`)
	body := p.Bodies[p.H.Methods()[0]]
	prims := 0
	Walk(body.Code, func(n Node) bool {
		if _, ok := n.(*PrimCall); ok {
			prims++
		}
		return true
	})
	if prims != 4 {
		t.Fatalf("prim calls = %d, want 4", prims)
	}
}

func TestLowerClosureCallPriority(t *testing.T) {
	// A local name shadows a GF of the same name for call resolution.
	p := lower(t, `
method g() { 1; }
method f() {
  var g := fn() { 2; };
  g();
}
`)
	var f *MethodBody
	for m, b := range p.Bodies {
		if m.GF.Name == "f" {
			f = b
		}
	}
	calls := 0
	Walk(f.Code, func(n Node) bool {
		if _, ok := n.(*CallClosure); ok {
			calls++
		}
		if _, ok := n.(*Send); ok {
			t.Error("g() should be a closure call, not a send")
		}
		return true
	})
	if calls != 1 {
		t.Fatalf("closure calls = %d", calls)
	}
}

func TestLowerClosureDepths(t *testing.T) {
	p := lower(t, `
method f(x) {
  fn(y) { fn(z) { x + y + z; }; };
}
`)
	body := p.Bodies[p.H.Methods()[0]]
	outer := body.Code.(*MakeClosure)
	inner := outer.Fn.Body.(*MakeClosure)
	add := inner.Fn.Body.(*Bin) // (x + y) + z
	xy := add.L.(*Bin)
	if x := xy.L.(*Local); x.Depth != 2 || x.Slot != 0 {
		t.Errorf("x = depth %d slot %d", x.Depth, x.Slot)
	}
	if y := xy.R.(*Local); y.Depth != 1 || y.Slot != 0 {
		t.Errorf("y = depth %d slot %d", y.Depth, y.Slot)
	}
	if z := add.R.(*Local); z.Depth != 0 || z.Slot != 0 {
		t.Errorf("z = depth %d slot %d", z.Depth, z.Slot)
	}
	if outer.Fn.Owner == nil || outer.Fn.Owner.GF.Name != "f" {
		t.Errorf("closure owner = %v", outer.Fn.Owner)
	}
}

// TestPassThroughPaperExample mirrors the paper's §2: inside
// overlaps(s1, s2), the do(s1, closure) send passes formal 0 through at
// argument position 0, and the includes(s2, elem) send inside the
// closure passes formal 1 through at position 0.
func TestPassThroughPaperExample(t *testing.T) {
	p := lower(t, `
class Set
method do(s@Set, body) { 1; }
method includes(s@Set, e) { 2; }
method overlaps(s1@Set, s2@Set) {
  s1.do(fn(elem) { if s2.includes(elem) { return true; } });
  false;
}
`)
	var overlaps *MethodBody
	for m, b := range p.Bodies {
		if m.GF.Name == "overlaps" {
			overlaps = b
		}
	}
	byGF := map[string]*CallSite{}
	for _, s := range overlaps.Sites {
		byGF[s.GF.Name] = s
	}
	doSite := byGF["do"]
	if !reflect.DeepEqual(doSite.PassThrough, []PassPair{{Formal: 0, ArgPos: 0}}) {
		t.Errorf("do PassThrough = %v", doSite.PassThrough)
	}
	incSite := byGF["includes"]
	if !reflect.DeepEqual(incSite.PassThrough, []PassPair{{Formal: 1, ArgPos: 0}}) {
		t.Errorf("includes PassThrough = %v", incSite.PassThrough)
	}
	if incSite.Caller.GF.Name != "overlaps" {
		t.Errorf("closure send attributed to %v", incSite.Caller)
	}
}

func TestPassThroughAssignedFormalExcluded(t *testing.T) {
	p := lower(t, `
class C
method g(x@C) { 1; }
method f(a@C, b@C) {
  g(a);
  g(b);
  b := a;
}
`)
	var f *MethodBody
	for m, b := range p.Bodies {
		if m.GF.Name == "f" {
			f = b
		}
	}
	var passCounts []int
	for _, s := range f.Sites {
		passCounts = append(passCounts, len(s.PassThrough))
	}
	// g(a): formal 0 passes through; g(b): formal 1 is assigned later,
	// so no pass-through.
	if !reflect.DeepEqual(passCounts, []int{1, 0}) {
		t.Errorf("pass-through counts = %v", passCounts)
	}
}

func TestPassThroughMultiplePositions(t *testing.T) {
	p := lower(t, `
class C
method g(x@C, y@C) { 1; }
method f(a@C) { g(a, a); }
`)
	var f *MethodBody
	for m, b := range p.Bodies {
		if m.GF.Name == "f" {
			f = b
		}
	}
	want := []PassPair{{Formal: 0, ArgPos: 0}, {Formal: 0, ArgPos: 1}}
	if got := f.Sites[0].PassThrough; !reflect.DeepEqual(got, want) {
		t.Errorf("PassThrough = %v, want %v", got, want)
	}
}

func TestPassThroughLocalNotFormal(t *testing.T) {
	p := lower(t, `
class C
method g(x@C) { 1; }
method f(a@C) { var tmp := a; g(tmp); }
`)
	var f *MethodBody
	for m, b := range p.Bodies {
		if m.GF.Name == "f" {
			f = b
		}
	}
	if got := f.Sites[0].PassThrough; len(got) != 0 {
		t.Errorf("local argument should not be pass-through: %v", got)
	}
}

func TestLowerNew(t *testing.T) {
	p := lower(t, `
class P { field x := 0; field y := 0; }
method f() { new P(1, 2); new P(1); }
`)
	body := p.Bodies[p.H.Methods()[0]]
	var news []*New
	Walk(body.Code, func(n Node) bool {
		if nn, ok := n.(*New); ok {
			news = append(news, nn)
		}
		return true
	})
	if len(news) != 2 || len(news[0].Args) != 2 || len(news[1].Args) != 1 {
		t.Fatalf("news = %#v", news)
	}
	cls := news[0].Class
	inits := p.FieldInits[cls]
	if len(inits) != 2 || inits[0] == nil || inits[1] == nil {
		t.Fatalf("field inits = %#v", inits)
	}
}

func TestLowerFieldAccessAndAssign(t *testing.T) {
	p := lower(t, `
class P { field x := 0; }
method f(p@P) { p.x := p.x + 1; p.x; }
`)
	body := p.Bodies[p.H.Methods()[0]]
	seq := body.Code.(*Seq)
	if _, ok := seq.Nodes[0].(*SetField); !ok {
		t.Fatalf("stmt0 = %#v", seq.Nodes[0])
	}
	if _, ok := seq.Nodes[1].(*GetField); !ok {
		t.Fatalf("stmt1 = %#v", seq.Nodes[1])
	}
}

func TestLowerShortCircuitAndIfWhileReturn(t *testing.T) {
	p := lower(t, `
method f(x) {
  while x > 0 { x := x - 1; }
  if x == 0 && true || false { return 1; }
  nil;
}
`)
	body := p.Bodies[p.H.Methods()[0]]
	var sawWhile, sawIf, sawOr, sawAnd, sawRet bool
	Walk(body.Code, func(n Node) bool {
		switch n.(type) {
		case *While:
			sawWhile = true
		case *If:
			sawIf = true
		case *Or:
			sawOr = true
		case *And:
			sawAnd = true
		case *Return:
			sawRet = true
		}
		return true
	})
	if !sawWhile || !sawIf || !sawOr || !sawAnd || !sawRet {
		t.Fatalf("missing nodes: while=%t if=%t or=%t and=%t ret=%t", sawWhile, sawIf, sawOr, sawAnd, sawRet)
	}
}

func TestLowerErrors(t *testing.T) {
	cases := []struct{ src, wantSub string }{
		{`method f() { zzz; }`, "undefined variable"},
		{`method f() { zzz := 1; }`, "assignment to undefined variable"},
		{`method f() { qqq(1); }`, "unknown function"},
		{`method f() { aget(1); }`, "primitive aget takes 2 arguments"},
		{`method f(x) { x.nosuch(1); }`, "no method nosuch/2"},
		{`method f() { new Nope(); }`, "unknown class"},
		{`class P { field x; } method f() { new P(1, 2); }`, "2 arguments for 1 fields"},
		{`var g := 1; var g := 2;`, "already defined"},
		{`method print(x) { 1; }`, "collides with built-in primitive"},
		{`var g := fn() { return 1; };`, "'return' outside a method"},
	}
	for _, c := range cases {
		err := lowerErr(t, c.src)
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Lower(%q) error = %v, want substring %q", c.src, err, c.wantSub)
		}
	}
}

// TestLowerRecordsEveryError: lowering goes on past each error, so one
// run reports all of them in source order, the first one as its text.
func TestLowerRecordsEveryError(t *testing.T) {
	err := lowerErr(t, `var g := if 1 < 2 { var v := 1; var w := v(2); w.m(); };
method f(x) { zzz; x := f(1, 2); new Nope(aget(1)); }
method h() { fn(a) { var b := a; b(nosuch()); }; }`)
	var got []string
	for _, e := range err.(Errors) {
		got = append(got, e.Error())
	}
	want := []string{
		`1:21: 'var' not allowed in a global initializer expression`,
		`1:33: 'var' not allowed in a global initializer expression`,
		`1:50: no method m/1 (receiver syntax)`,
		`2:15: undefined variable "zzz"`,
		`2:25: unknown function f/2`,
		`2:34: unknown class "Nope" in new`,
		`2:43: primitive aget takes 2 arguments, got 1`,
		`3:36: unknown function nosuch/0`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("errors:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if err.Error() != want[0] {
		t.Errorf("Error() = %q, want the first error", err)
	}
	var uc *UnresolvedCall
	if !errors.As(err.(Errors)[2], &uc) || uc.Name != "m" || uc.Arity != 1 || !uc.ReceiverSyntax {
		t.Errorf("receiver-syntax error = %#v", err.(Errors)[2])
	}
}

func TestLowerMainDetection(t *testing.T) {
	p := lower(t, `method main() { 1; }`)
	if p.Main == nil || p.Main.Name != "main" {
		t.Fatal("main not detected")
	}
	p2 := lower(t, `method notmain() { 1; }`)
	if p2.Main != nil {
		t.Fatal("spurious main")
	}
}

func TestSizeCountsClosures(t *testing.T) {
	p := lower(t, `method f() { fn() { 1 + 2; }; }`)
	body := p.Bodies[p.H.Methods()[0]]
	// MakeClosure + Bin + 2 Consts = 4.
	if got := Size(body.Code); got != 4 {
		t.Fatalf("Size = %d, want 4", got)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	p := lower(t, `method f() { 1 + 2; }`)
	body := p.Bodies[p.H.Methods()[0]]
	n := 0
	Walk(body.Code, func(Node) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d nodes", n)
	}
}

func TestSiteString(t *testing.T) {
	p := lower(t, `
class C
method g(x@C) { 1; }
method f(a@C) { g(a); }
`)
	s := p.Sites[0].String()
	if !strings.Contains(s, "g/1") || !strings.Contains(s, "f(@C)") {
		t.Errorf("Site.String = %q", s)
	}
}
