package vm_test

// FuzzVMDiff is the differential fuzz target of the bytecode tier: any
// program the front end accepts must behave identically under the tree
// interpreter and the VM — same value, same print output, same error
// text, same counter totals and steps. The raw stack is used (no
// pipeline fault boundary) so a genuine crash reaches the fuzzer
// instead of being contained. Inputs the bytecode compiler rejects
// (unsupported constructs) are skipped: in production they fall back to
// the tree tier before any guest code runs.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/lang"
	"selspec/internal/opt"
	"selspec/internal/vm"
	"selspec/internal/vmcheck"
)

type diffOutcome struct {
	val       string
	errMsg    string
	output    string
	counters  interp.Counters
	steps     uint64
	verifyErr error
}

// runDiffEngine compiles src fresh (its own hierarchy and lookup
// caches, so nothing leaks between the two runs being compared) and
// executes it under one engine. ok is false when the input does not
// reach execution — front-end rejection, or a construct the bytecode
// compiler does not support.
func runDiffEngine(src string, cfg opt.Config, useVM bool, ctx context.Context) (diffOutcome, bool) {
	parsed, err := lang.Parse(src)
	if err != nil {
		return diffOutcome{}, false
	}
	prog, err := ir.Lower(parsed)
	if err != nil {
		return diffOutcome{}, false
	}
	c, err := opt.Compile(prog, opt.Options{Config: cfg})
	if err != nil {
		return diffOutcome{}, false
	}
	in := interp.New(c)
	var buf bytes.Buffer
	in.Out = &buf
	in.StepLimit = 100_000
	in.DepthLimit = 128
	in.Ctx = ctx

	var val interp.Value
	var rerr error
	var verr error
	if useVM {
		m, merr := vm.New(in)
		if merr != nil {
			return diffOutcome{}, false
		}
		// Every compiled module the fuzzer reaches must pass the
		// bytecode verifier — before the run, and again after it so
		// lazily-compiled procs are covered too.
		verr = vmcheck.Verify(m)
		val, rerr = m.Run()
		if verr == nil {
			verr = vmcheck.Verify(m)
		}
	} else {
		val, rerr = in.Run()
	}
	out := diffOutcome{
		val:       val.String(),
		output:    buf.String(),
		counters:  in.Counters,
		steps:     in.Steps(),
		verifyErr: verr,
	}
	if rerr != nil {
		out.errMsg = rerr.Error()
	}
	return out, true
}

func FuzzVMDiff(f *testing.F) {
	for _, s := range []string{
		"method main() { 1; }",
		"method main() { while true { 1; } }",
		"method f(n@Int) { f(n + 1); }\nmethod main() { f(0); }",
		"method main() { 1 / 0; }",
		"class P { field n : Int := 0; }\nmethod pos(p@P) { p.n >= 0; }\nmethod main() { pos(new P(7)); }",
		"class A\nclass B isa A\nmethod m(x@A) { 1; }\nmethod m(x@B) { 2; }\nmethod main() { m(new A()) + m(new B()); }",
		"method main() { var xs := newarray(3); var i := 0; while i < 3 { aput(xs, i, i * i); i := i + 1; } aget(xs, 2); }",
		"method main() { var f := fn(x) { x + 1; }; f(f(1)); }",
		"method outer() { var f := fn(x) { return x; }; f(41); 0; }\nmethod main() { outer(); }",
		"var g := 2;\nmethod main() { g := g + 3; println(g); g; }",
		"class P { field q : P; field n : Int := 0; }\nmethod probe(p@P) { p.q.n >= 0; }\nmethod main() { probe(new P()); }",
		"method main() { var xs := newarray(2); aget(xs, 9); }",
		"method main() { var i := 1; var f := fn() { i := 8; 0; }; println(i + f()); i; }",
		// Jumping-code conditions: && / || / ! nested under If and While,
		// with a printing send and a non-boolean among the leaves.
		"method p(k@Int, v) { print(k); v; }\nmethod main() { var i := 0; var n := 0; while i < 6 && !(i == 4) { if (i < 2 || p(i, i > 2)) && !p(i, i == 3) { n := n + 1; } i := i + 1; } n; }",
		"method main() { var xs := newarray(2); aput(xs, 0, 3); var z := aget(xs, 0); var i := 0; while i < 3 || !(z > 0 && z) { i := i + 1; } i; }",
		// A megamorphic site: 12 receiver tuples against the 8-entry PIC.
		"class K\nclass A isa K\nclass B isa K\nclass C isa K\nclass V\nclass X isa V\nclass Y isa V\nclass Z isa V\nclass W isa V\nmethod r(a@K, b@V) { 0; }\nmethod r(a@A, b@X) { 1; }\nmethod r(a@B, b@V) { 2; }\nmethod main() { var ks := newarray(3); aput(ks, 0, new A()); aput(ks, 1, new B()); aput(ks, 2, new C()); var vs := newarray(4); aput(vs, 0, new X()); aput(vs, 1, new Y()); aput(vs, 2, new Z()); aput(vs, 3, new W()); var s := 0; var i := 0; while i < 60 { s := s + r(aget(ks, i % 3), aget(vs, (i * 7) % 4)); i := i + 1; } s; }",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		// Base keeps sends dynamic (PIC/dispatch coverage); CHA adds
		// static binding, version selection and resolved field slots —
		// the configs whose compiled code differs most.
		for _, cfg := range []opt.Config{opt.Base, opt.CHA} {
			tree, ok := runDiffEngine(src, cfg, false, ctx)
			if !ok {
				return
			}
			vmres, ok := runDiffEngine(src, cfg, true, ctx)
			if !ok {
				return
			}
			// A context-deadline trip is wall-clock dependent, so the
			// two runs may legitimately stop at different points.
			if ctx.Err() != nil {
				return
			}
			if vmres.verifyErr != nil {
				t.Errorf("%v: compiled module failed verification: %v", cfg, vmres.verifyErr)
			}
			if vmres.val != tree.val {
				t.Errorf("%v: value diverged: vm %q, tree %q", cfg, vmres.val, tree.val)
			}
			if vmres.errMsg != tree.errMsg {
				t.Errorf("%v: error diverged:\n  vm:   %q\n  tree: %q", cfg, vmres.errMsg, tree.errMsg)
			}
			if vmres.output != tree.output {
				t.Errorf("%v: output diverged: vm %q, tree %q", cfg, vmres.output, tree.output)
			}
			if vmres.counters != tree.counters {
				t.Errorf("%v: counters diverged:\n  vm:   %+v\n  tree: %+v", cfg, vmres.counters, tree.counters)
			}
			if vmres.steps != tree.steps {
				t.Errorf("%v: steps diverged: vm %d, tree %d", cfg, vmres.steps, tree.steps)
			}
		}
	})
}
