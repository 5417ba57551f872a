package check_test

// FuzzCheck drives the RAW analyzer entry point (not the pipeline
// boundary, which would contain — and so hide — crashers): on any
// parseable program the static analyzer must produce diagnostics or an
// ordinary error, never panic.

import (
	"testing"

	"selspec/internal/check"
	"selspec/internal/lang"
	"selspec/internal/programs"
)

// fuzzSeeds are FuzzCheck's hand-written seeds; the registry programs
// and testdata/fuzz/FuzzCheck complete its corpus.
var fuzzSeeds = []string{
	"method main() { 1; }",
	"class A\nmethod f(x@A) { 1; }\nmethod main() { f(new A()); }",
	"class L\nclass R\nclass C isa L, R\nmethod amb(x@L) { 1; }\nmethod amb(x@R) { 2; }\nmethod main() { amb(new C()); }",
	"method main() { undefinedCall(1, 2); }",
	"class A\nmethod main() { (new A()).missingField; }",
	"method f() { f(); }\nmethod main() { f(); }",
	// Short-circuit operators, if-expressions and a called closure in
	// global and field initializers: top-level code with no frame.
	"var n := 3;\nvar g1 := 1 < 2 && 3 < 4;\nvar g2 := n > 5 || n < 4;\n" +
		"var g3 := if 1 > 2 { \"yes\"; } else { \"no\"; };\nvar g4 := if n < 5 { n * 10; } else { 0; };\n" +
		"var g5 := (fn(x) { x + 1; })(n);\n" +
		"class P { field f := 1 < 2 && 2 < 3; field h := n > 2 || n < 0; field k := if n > 1 { 7; } else { 8; }; }\n" +
		"method main() { var p := new P(); println(g1); println(p.f); println(p.k); g5; }",
	// Several front-end errors in one program: in a global initializer,
	// an inherited field initializer and a closure.
	"var g := f(1, 2);\nclass A { field x := h(1); }\nclass B isa A\nmethod f(x) { x; }\n" +
		"method main() { var c := fn(y) { f(y, y, y); }; c(1); new B(); }",
	// Arity errors after an undefined variable and an undefined
	// assignment target.
	"method main() { var a := zzz; println(a, 1); undefinedFn(q); zz := w(1); }",
	// A var inside a block of a global initializer: a later call
	// through it is still a closure call.
	"var g := if 1 < 2 { var f := fn(x) { x; }; f(1, 2); var n := 1; n(g(3)); } else { k(0); };\n" +
		"method main() { g.missing(1); }",
	// A method that collides with a primitive, then arity errors.
	"method print(x) { 1; }\nmethod main() { print(1, 2); nope(); aget(1); }",
	// A duplicate global, return outside a method, an unknown class and
	// too many constructor arguments, each with an arity error inside.
	"var g := 1;\nvar g := fn() { return f(1); };\nclass P { field x; }\n" +
		"method f(a@P) { new Nope(f()); new P(1, f(1, 2)); }\nmethod main() { f(new P()); }",
	// Calls through globals, formals and shadowing locals; receiver
	// syntax on a primitive's name.
	"var cb := fn(x) { x; };\nmethod m(x) { x(m(1, 2)); }\n" +
		"method main() { cb(1, 2, 3); var m := 5; m(1, 2); (3).println(); (fn(p) { p(9); q(8); })(1); m(); }",
}

func FuzzCheck(f *testing.F) {
	for _, b := range programs.Registry() {
		f.Add(b.Source)
	}
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := lang.Parse(src); err != nil {
			return // the analyzer's contract starts at parseable programs
		}
		for _, inst := range []bool{false, true} {
			if _, err := check.Source("fuzz.mc", src, check.Options{Instantiation: inst}); err != nil {
				_ = err // ordinary analysis errors are acceptable; panics are the bug
			}
		}
	})
}
