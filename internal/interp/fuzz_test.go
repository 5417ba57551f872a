package interp_test

// FuzzInterp runs generated Mini-Cecil programs through the RAW
// lower→compile→interpret stack under tight resource guards (steps,
// call depth, wall clock). The pipeline boundary is deliberately not
// used: it would convert a crasher into a contained StageError and hide
// it from the fuzzer. Mini-Cecil runtime errors (*interp.RuntimeError)
// are expected outcomes; Go panics are the bug.

import (
	"context"
	"testing"
	"time"

	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/lang"
	"selspec/internal/opt"
)

func FuzzInterp(f *testing.F) {
	for _, s := range []string{
		"method main() { 1; }",
		"method main() { while true { 1; } }",                            // step guard
		"method f(n) { f(n + 1); }\nmethod main() { f(0); }",             // depth guard
		"method main() { 1 / 0; }",                                       // runtime error
		"class A\nmethod main() { var keep := new A(); missing(keep); }", // MNU
		"method main() { var f := fn(x) { x(x); }; f(f); }",
		"method main() { [1, 2][5]; }",
		"global g := 0;\nmethod main() { g := g + 1; g; }",
		"class A\nclass B isa A\nmethod m(x@A) { 1; }\nmethod m(x@B) { resend; }\nmethod main() { m(new B()); }",
		"method main() { var s := \"x\"; s + 1; }",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return // big inputs only slow discovery down
		}
		parsed, err := lang.Parse(src)
		if err != nil {
			return
		}
		prog, err := ir.Lower(parsed)
		if err != nil {
			return
		}
		// Every configuration shares the interpreter; Base keeps the
		// per-input cost low while still covering the whole evaluator.
		c, err := opt.Compile(prog, opt.Options{Config: opt.Base})
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		in := interp.New(c)
		in.StepLimit = 200_000
		in.DepthLimit = 256
		in.Ctx = ctx
		_, _ = in.Run() // RuntimeErrors (incl. guard trips) are fine
	})
}
