package vm_test

// Black-box parity tests for behavior the big differential grid cannot
// reach: resource-guard trips, runtime errors raised inside fused
// superinstructions, and non-local returns — the two engines must agree
// on the exact error text (or value) in every case.

import (
	"testing"

	"selspec/internal/driver"
	"selspec/internal/opt"
)

// runBoth executes src under both engines with the given guards and
// returns (treeValue, treeErr, vmValue, vmErr). A vm-tier fallback to
// tree (unsupported construct) fails the test: everything here must
// actually execute as bytecode.
func runBoth(t *testing.T, src string, step uint64, depth int) (string, error, string, error) {
	t.Helper()
	run := func(eng driver.Engine) (string, error) {
		p, err := driver.Load(src)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		res, rerr := p.RunConfig(driver.ConfigOptions{
			Opt: opt.Options{Config: opt.CHA},
			Run: driver.RunOptions{CaptureOutput: true, StepLimit: step, DepthLimit: depth, Engine: eng},
		})
		if rerr != nil {
			return "", rerr
		}
		if res.Engine != eng {
			t.Fatalf("requested engine %v but %v ran (unexpected fallback)", eng, res.Engine)
		}
		// Value and captured print output together: divergence in either
		// is a parity failure.
		return res.Value + "\n--\n" + res.Output, nil
	}
	tv, te := run(driver.EngineTree)
	vv, ve := run(driver.EngineVM)
	return tv, te, vv, ve
}

func wantSameError(t *testing.T, name string, te, ve error) {
	t.Helper()
	if (te == nil) != (ve == nil) {
		t.Fatalf("%s: error presence diverged: tree %v, vm %v", name, te, ve)
	}
	if te != nil && te.Error() != ve.Error() {
		t.Errorf("%s: error text diverged:\n  tree: %s\n  vm:   %s", name, te, ve)
	}
}

func TestGuardStepLimitParity(t *testing.T) {
	_, te, _, ve := runBoth(t, `method main() { while true { 1; } }`, 10_000, 0)
	if te == nil {
		t.Fatal("step limit did not trip")
	}
	wantSameError(t, "step limit", te, ve)
}

func TestGuardDepthLimitParity(t *testing.T) {
	_, te, _, ve := runBoth(t, `
method f(n@Int) { f(n + 1); }
method main() { f(0); }
`, 0, 64)
	if te == nil {
		t.Fatal("depth limit did not trip")
	}
	wantSameError(t, "depth limit", te, ve)
}

// TestFusedFieldErrorParity drives the non-object failure through the
// fused field-compare superinstructions: the error text must match the
// tree tier's plain GetField failure exactly.
func TestFusedFieldErrorParity(t *testing.T) {
	_, te, _, ve := runBoth(t, `
class P { field q : P; field n : Int := 0; }
method probe(p@P) { p.q.n >= 0; }
method main() { probe(new P()); }
`, 0, 0)
	if te == nil {
		t.Fatal("expected a non-object field error")
	}
	wantSameError(t, "fused field read", te, ve)
}

// TestFusedArrayErrorParity drives out-of-bounds reads and writes
// through OpAGet/OpAPut's cold path (the shared CallPrim seam).
func TestFusedArrayErrorParity(t *testing.T) {
	for name, src := range map[string]string{
		"aget oob":      `method main() { var xs := newarray(2); aget(xs, 5); }`,
		"aput oob":      `method main() { var xs := newarray(2); aput(xs, 7, 1); }`,
		"aget nonarray": `method main() { aget(3, 0); }`,
	} {
		_, te, _, ve := runBoth(t, src, 0, 0)
		if te == nil {
			t.Fatalf("%s: expected a runtime error", name)
		}
		wantSameError(t, name, te, ve)
	}
}

func TestNonLocalReturnParity(t *testing.T) {
	tv, te, vv, ve := runBoth(t, `
method outer(n@Int) {
  var f := fn(x) { return x; };
  f(n);
  0;
}
method main() { outer(41); }
`, 0, 0)
	wantSameError(t, "non-local return", te, ve)
	if tv != vv {
		t.Errorf("non-local return value diverged: tree %s, vm %s", tv, vv)
	}
}

// TestSlotCaptureAcrossClosureCallParity pins the left-to-right value
// capture the effect analysis enforces: when an operand already read
// from a frame slot is clobbered by a closure call in a later operand,
// the instruction must see the slot's OLD value, as the tree tier does.
// Before the effect-analysis rewire these diverged (the VM read the
// slot register in place at execution time): the `bin` shape printed 9
// under the VM and 1 under the tree.
func TestSlotCaptureAcrossClosureCallParity(t *testing.T) {
	for name, src := range map[string]string{
		// i + f(): Bin's left operand captured before the call writes i.
		"bin": `
method main() {
  var i := 1;
  var f := fn() { i := 8; 0; };
  println(i + f());
  i;
}`,
		// obj.field := expr: the object slot captured before the value
		// expression's closure call rebinds it.
		"setfield": `
class B { field v : Int := 0; }
method main() {
  var a := new B(1);
  var old := a;
  var f := fn() { a := new B(2); 7; };
  a.v := f();
  old.v;
}`,
		// g(...): the callee slot captured before an argument's closure
		// call rebinds it to a different closure.
		"callclosure fn": `
method main() {
  var g := fn(x) { x + 100; };
  var swap := fn() { g := fn(x) { x + 200; }; 5; };
  println(g(swap()));
  0;
}`,
		// if i < f(): the fused compare's left operand captured before
		// the right operand's call writes i.
		"cond cmpbr": `
method main() {
  var i := 1;
  var f := fn() { i := 0; 5; };
  if i < f() { println("lt"); } else { println("ge"); }
  i;
}`,
		// aput(xs, i, f()): the index slot captured before the value
		// operand's call writes i.
		"aput index": `
method main() {
  var xs := newarray(3);
  var i := 0;
  var f := fn() { i := 2; 9; };
  aput(xs, i, f());
  println(aget(xs, 0));
  println(aget(xs, 2));
  i;
}`,
	} {
		tv, te, vv, ve := runBoth(t, src, 0, 0)
		wantSameError(t, name, te, ve)
		if tv != vv {
			t.Errorf("%s: value diverged: tree %s, vm %s", name, tv, vv)
		}
	}
}

func TestEscapedReturnErrorParity(t *testing.T) {
	_, te, _, ve := runBoth(t, `
var esc := 0;
method trap() { esc := fn(x) { return x; }; 0; }
method main() { trap(); esc(1); }
`, 0, 0)
	if te == nil {
		t.Fatal("expected an escaped-return error")
	}
	wantSameError(t, "escaped return", te, ve)
}
