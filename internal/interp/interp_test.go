package interp

import (
	"bytes"
	"strings"
	"testing"

	"selspec/internal/ir"
	"selspec/internal/lang"
	"selspec/internal/opt"
)

// run executes a program under Base and returns (value string, output).
func run(t *testing.T, src string) (string, string) {
	t.Helper()
	v, out, err := tryRun(t, src)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v, out
}

func tryRun(t *testing.T, src string) (string, string, error) {
	t.Helper()
	prog, err := ir.Lower(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	c, err := opt.Compile(prog, opt.Options{Config: opt.Base})
	if err != nil {
		t.Fatal(err)
	}
	in := New(c)
	var buf bytes.Buffer
	in.Out = &buf
	in.StepLimit = 20_000_000
	val, rerr := in.Run()
	if rerr != nil {
		return "", buf.String(), rerr
	}
	return val.String(), buf.String(), nil
}

func wantErr(t *testing.T, src, sub string) {
	t.Helper()
	_, _, err := tryRun(t, src)
	if err == nil {
		t.Fatalf("expected runtime error containing %q", sub)
	}
	if !strings.Contains(err.Error(), sub) {
		t.Fatalf("error %q does not contain %q", err, sub)
	}
}

func TestArithmeticAndComparison(t *testing.T) {
	cases := []struct{ expr, want string }{
		{"1 + 2 * 3", "7"},
		{"10 / 3", "3"},
		{"10 % 3", "1"},
		{"-7 / 2", "-3"},
		{"1 < 2", "true"},
		{"2 <= 1", "false"},
		{"3 == 3", "true"},
		{"3 != 3", "false"},
		{`"abc" + "def"`, "abcdef"},
		{`"abc" < "abd"`, "true"},
		{`"x" == "x"`, "true"},
		{"!(1 == 2)", "true"},
		{"-(5)", "-5"},
		{"true && false", "false"},
		{"false || true", "true"},
		{"nil == nil", "true"},
	}
	for _, c := range cases {
		// Defeat the compile-time folder with an opaque global so the
		// interpreter's own operators are exercised too.
		got, _ := run(t, "method main() { "+c.expr+"; }")
		if got != c.want {
			t.Errorf("%s = %s, want %s", c.expr, got, c.want)
		}
	}
}

func TestRuntimeBinDynamicPath(t *testing.T) {
	// Values flow through an identity method so the optimizer cannot
	// fold; the interpreter's evalBin runs.
	src := `
method id(x) { x; }
method main() {
  var a := id(6);
  var b := id(7);
  println(str(a * b));
  println(str(id("a") + id("b")));
  println(str(id(3) < id(4)));
  a * b;
}
`
	v, out := run(t, src)
	if v != "42" || out != "42\nab\ntrue\n" {
		t.Fatalf("v=%q out=%q", v, out)
	}
}

func TestShortCircuitEffects(t *testing.T) {
	src := `
var hits := 0;
method bump() { hits := hits + 1; true; }
method main() {
  false && bump();
  true || bump();
  true && bump();
  hits;
}
`
	if v, _ := run(t, src); v != "1" {
		t.Fatalf("hits = %s", v)
	}
}

func TestWhileAndAssignment(t *testing.T) {
	src := `
method main() {
  var i := 0;
  var sum := 0;
  while i < 10 { sum := sum + i; i := i + 1; }
  sum;
}
`
	if v, _ := run(t, src); v != "45" {
		t.Fatalf("sum = %s", v)
	}
}

func TestObjectsAndFields(t *testing.T) {
	src := `
class P { field x : Int := 0; field y : Int := 9; }
method main() {
  var p := new P(3);
  p.y := p.y + p.x;
  str(p.x) + "," + str(p.y);
}
`
	if v, _ := run(t, src); v != "3,12" {
		t.Fatalf("v = %s", v)
	}
}

func TestFieldTypeEnforcement(t *testing.T) {
	wantErr(t, `
class T
class H { field t : T := nil; }
method main() { new H(nil); }
`, "declared T cannot hold nil")

	wantErr(t, `
class T
class H { field t : T := nil; }
method main() {
  var h := new H(new T());
  h.t := 5;
}
`, "declared T cannot hold 5")

	// Conforming stores are fine, including subclasses.
	src := `
class T
class S isa T
class H { field t : T := nil; }
method main() {
  var h := new H(new T());
  h.t := new S();
  classname(h.t);
}
`
	if v, _ := run(t, src); v != "S" {
		t.Fatalf("v = %s", v)
	}
}

func TestClosuresCaptureByReference(t *testing.T) {
	src := `
method main() {
  var n := 0;
  var inc := fn() { n := n + 1; };
  inc();
  inc();
  inc();
  n;
}
`
	if v, _ := run(t, src); v != "3" {
		t.Fatalf("n = %s", v)
	}
}

func TestNestedClosureDepths(t *testing.T) {
	src := `
method adder(x) {
  fn(y) { fn(z) { x + y + z; }; };
}
method main() {
  var f := adder(100);
  var g := f(20);
  g(3);
}
`
	if v, _ := run(t, src); v != "123" {
		t.Fatalf("v = %s", v)
	}
}

func TestNonLocalReturn(t *testing.T) {
	src := `
method each(arr, body) {
  var i := 0;
  while i < alen(arr) { body(aget(arr, i)); i := i + 1; }
  nil;
}
method find3(arr) {
  each(arr, fn(x) { if x == 3 { return "found"; } });
  "missing";
}
method main() {
  var a := newarray(5);
  aput(a, 2, 3);
  find3(a) + "/" + find3(newarray(2));
}
`
	if v, _ := run(t, src); v != "found/missing" {
		t.Fatalf("v = %s", v)
	}
}

func TestNonLocalReturnAfterMethodExitFails(t *testing.T) {
	wantErr(t, `
var leak := nil;
method maker() {
  leak := fn() { return 1; };
  nil;
}
method main() {
  maker();
  leak();
}
`, "already exited")
}

func TestDispatchErrors(t *testing.T) {
	wantErr(t, `
class A
method f(x@A) { 1; }
method main() { f(3); }
`, "not understood")

	wantErr(t, `
class A
class B isa A
class C isa A
class D isa B, C
method g(x@B) { 1; }
method g(x@C) { 2; }
method main() { g(new D()); }
`, "ambiguous")
}

func TestPrimitives(t *testing.T) {
	src := `
method main() {
  var a := newarray(3);
  aput(a, 0, "x");
  aput(a, 1, 42);
  var s := "hello";
  println(str(alen(a)) + " " + aget(a, 0) + " " + str(aget(a, 1)));
  println(str(strlen(s)) + " " + substr(s, 1, 3) + " " + charat(s, 4));
  println(str(ord("A")) + " " + chr(66));
  println(classname(a) + " " + classname(s) + " " + classname(nil) + " " + classname(fn() { 1; }));
  println(str(same(a, a)) + " " + str(same(a, newarray(3))));
  0;
}
`
	_, out := run(t, src)
	want := "3 x 42\n5 el o\n65 B\nArray String Nil Closure\ntrue false\n"
	if out != want {
		t.Fatalf("out = %q, want %q", out, want)
	}
}

func TestPrimitiveErrors(t *testing.T) {
	cases := []struct{ src, sub string }{
		{`method main() { aget(newarray(2), 5); }`, "out of range"},
		{`method main() { aget(newarray(2), -1); }`, "out of range"},
		{`method main() { aput(newarray(1), 3, 0); }`, "out of range"},
		{`method main() { newarray(-1); }`, "non-negative"},
		{`method main() { substr("abc", 2, 9); }`, "out of range"},
		{`method main() { charat("abc", 7); }`, "out of range"},
		{`method main() { ord(""); }`, "non-empty"},
		{`method main() { chr(999); }`, "[0, 255]"},
		{`method main() { abort("boom"); }`, "boom"},
		{`method id(x) { x; } method main() { id(1) / id(0); }`, "division by zero"},
		{`method id(x) { x; } method main() { id(1) % id(0); }`, "modulo by zero"},
		{`method id(x) { x; } method main() { id(1) + id("s"); }`, "'+'"},
		{`method id(x) { x; } method main() { if id(3) { 1; } }`, "not a boolean"},
		{`method id(x) { x; } method main() { id(nil)(); }`, "non-closure"},
		{`method main() { (fn(x) { x; })(); }`, "expects 1 arguments"},
		{`class P method id(x) { x; } method main() { id(new P()).zzz; }`, "no field"},
		{`method id(x) { x; } method main() { id(3).zzz; }`, "non-object"},
	}
	for _, c := range cases {
		_, _, err := tryRun(t, c.src)
		if err == nil || !strings.Contains(err.Error(), c.sub) {
			t.Errorf("src %q: err = %v, want %q", c.src, err, c.sub)
		}
	}
}

func TestGlobalReadBeforeInit(t *testing.T) {
	wantErr(t, `
var a := helper();
var b := 5;
method helper() { b + 1; }
method main() { a; }
`, "before its initializer")
}

func TestValueStringRendering(t *testing.T) {
	src := `
class P { field a := nil; field b := nil; }
method main() {
  var p := new P(1, "two");
  var q := new P(p, nil);
  var arr := newarray(2);
  aput(arr, 0, 7);
  aput(arr, 1, arr);
  println(str(p));
  println(str(q));
  println(str(arr));
  0;
}
`
	_, out := run(t, src)
	want := "P(1, two)\nP(P(...), nil)\n[7, ...]\n"
	if out != want {
		t.Fatalf("out = %q", out)
	}
}

func TestStepLimit(t *testing.T) {
	prog, err := ir.Lower(lang.MustParse(`method main() { while true { 1; } }`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := opt.Compile(prog, opt.Options{Config: opt.Base})
	if err != nil {
		t.Fatal(err)
	}
	in := New(c)
	in.StepLimit = 1000
	if _, err := in.Run(); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("err = %v", err)
	}
}

func TestCountersAndPIC(t *testing.T) {
	// Instances flow through an array so Base cannot statically bind
	// anything: every call and every m is a real dynamic dispatch.
	src := `
class A
class B isa A
method m(x@A) { 1; }
method m(x@B) { 2; }
method call(x@A) { x.m(); }
method main() {
  var objs := newarray(2);
  aput(objs, 0, new A());
  aput(objs, 1, new B());
  var i := 0;
  while i < 20 { call(aget(objs, i % 2)); i := i + 1; }
  0;
}
`
	prog, err := ir.Lower(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	c, err := opt.Compile(prog, opt.Options{Config: opt.Base})
	if err != nil {
		t.Fatal(err)
	}
	in := New(c)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	ct := in.Counters
	// call is dispatched 20×, m is dispatched 20×.
	if ct.Dispatches != 40 {
		t.Errorf("Dispatches = %d, want 40", ct.Dispatches)
	}
	// Two sites, m's sees A and B (2 misses), call's sees A and B (2
	// misses): 4 misses, 36 hits.
	if ct.PICMisses != 4 || ct.PICHits != 36 {
		t.Errorf("PIC hits/misses = %d/%d, want 36/4", ct.PICHits, ct.PICMisses)
	}
	if ct.Cycles == 0 || ct.MethodEntries == 0 {
		t.Errorf("counters empty: %+v", ct)
	}
	if ct.DynamicDispatches() != ct.Dispatches+ct.VersionSelects {
		t.Error("DynamicDispatches arithmetic wrong")
	}
	if in.InvokedVersions() < 4 {
		t.Errorf("InvokedVersions = %d", in.InvokedVersions())
	}
}

func TestMechanismsEquivalentOnDispatchHeavyProgram(t *testing.T) {
	src := `
class A
class B isa A
class C isa B
method m(x@A, y@A) { 1; }
method m(x@B, y@B) { 2; }
method m(x@A, y@C) { 3; }
method m(x@B, y@C) { 4; }
method pick(k) {
  if k % 3 == 0 { return new A(); }
  if k % 3 == 1 { return new B(); }
  new C();
}
method main() {
  var total := 0;
  var i := 0;
  while i < 30 {
    total := total + m(pick(i), pick(i + 1));
    i := i + 1;
  }
  total;
}
`
	prog, err := ir.Lower(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	c, err := opt.Compile(prog, opt.Options{Config: opt.Base})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, mech := range []Mechanism{MechPIC, MechGlobal, MechTables} {
		in := New(c)
		in.Mech = mech
		v, err := in.Run()
		if err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		got = append(got, v.String())
	}
	if got[0] != got[1] || got[1] != got[2] {
		t.Fatalf("mechanisms disagree: %v", got)
	}
}

func TestMechanismStrings(t *testing.T) {
	if MechPIC.String() != "PIC" || MechGlobal.String() != "Global" || MechTables.String() != "Tables" {
		t.Error("mechanism names wrong")
	}
}

func TestValueEqualAcrossKinds(t *testing.T) {
	if IntV(1).Equal(BoolV(true)) {
		t.Error("1 == true")
	}
	if !StrV("a").Equal(StrV("a")) || StrV("a").Equal(StrV("b")) {
		t.Error("string equality wrong")
	}
	o1 := ObjV(&Object{})
	o2 := ObjV(&Object{})
	if o1.Equal(o2) || !o1.Equal(o1) {
		t.Error("object identity equality wrong")
	}
	if !NilV.Equal(NilV) {
		t.Error("nil != nil")
	}
}

func TestNoMainError(t *testing.T) {
	prog, err := ir.Lower(lang.MustParse(`method notmain() { 1; }`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := opt.Compile(prog, opt.Options{Config: opt.Base})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(c).Run(); err == nil || !strings.Contains(err.Error(), "no main") {
		t.Fatalf("err = %v", err)
	}
}

func TestMultiMethodDoubleDispatchProgram(t *testing.T) {
	// The paper's BitSet-style double specialization: the (BitSet,
	// BitSet) pair takes the fast path, everything else the generic.
	src := `
class Set
class ListSet isa Set
class BitSet isa Set
method combine(a@Set, b@Set) { "generic"; }
method combine(a@BitSet, b@BitSet) { "fast"; }
method main() {
  combine(new BitSet(), new BitSet()) + "/" +
  combine(new BitSet(), new ListSet()) + "/" +
  combine(new ListSet(), new BitSet());
}
`
	if v, _ := run(t, src); v != "fast/generic/generic" {
		t.Fatalf("v = %s", v)
	}
}
