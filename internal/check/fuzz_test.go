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
