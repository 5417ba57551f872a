package opt

import (
	"testing"

	"selspec/internal/ir"
	"selspec/internal/lang"
)

// The §6 extension: with return-type analysis, a statically-bound call
// to a constructor-like method gives the caller enough class
// information to bind further sends.
const retSrc = `
class Shape
class Circle isa Shape
class Square isa Shape

method mkCircle() { new Circle(); }
method describe(s@Circle) { "circle"; }
method describe(s@Square) { "square"; }

-- mkCircle's result is always a Circle; with return-type analysis the
-- describe send binds statically.
method f() {
  var s := mkCircle();
  describe(s);
}

-- Returns through 'return' statements participate too.
method pick(k@Int) {
  if k > 0 { return new Circle(); }
  new Circle();
}
method g() { describe(pick(3)); }

-- Mixed return classes: the union must be used (no bind possible here
-- since describe has two applicable methods over {Circle, Square}).
method pickMixed(k@Int) {
  if k > 0 { return new Circle(); }
  new Square();
}
method h() { describe(pickMixed(3)); }

method main() { f(); g(); h(); 0; }
`

func sendCount(body ir.Node) int { return countNodes[*ir.Send](body) }

func TestReturnTypeAnalysisBindsCallers(t *testing.T) {
	// mkCircle and pick are too small to escape inlining at the default
	// threshold, which would make the test vacuous; disable inlining so
	// the StaticCall return-info path itself is exercised.
	on := compile(t, retSrc, Options{Config: CHA, ReturnTypeAnalysis: true, DisableInlining: true})
	off := compile(t, retSrc, Options{Config: CHA, DisableInlining: true})

	fOn := on.General(methodByName(t, on, "f", ""))
	fOff := off.General(methodByName(t, off, "f", ""))
	if got := sendCount(fOn.Body); got != 0 {
		t.Errorf("with return types, f still has %d dynamic sends", got)
	}
	if got := sendCount(fOff.Body); got != 1 {
		t.Errorf("without return types, f should keep 1 dynamic send, has %d", got)
	}

	gOn := on.General(methodByName(t, on, "g", ""))
	if got := sendCount(gOn.Body); got != 0 {
		t.Errorf("returns through 'return' not propagated: %d sends", got)
	}

	// Mixed returns give {Circle, Square}: describe stays dynamic.
	hOn := on.General(methodByName(t, on, "h", ""))
	if got := sendCount(hOn.Body); got != 1 {
		t.Errorf("mixed return classes must not bind describe: %d sends", got)
	}
}

func TestReturnTypeAnalysisRecursionDegradesToTop(t *testing.T) {
	src := `
class A
class B isa A
method m(x@A) { 1; }
method m(x@B) { 2; }
method loop(k@Int) {
  if k <= 0 { return new B(); }
  loop(k - 1);
}
method use() { m(loop(5)); }
method main() { use(); 0; }
`
	c := compile(t, src, Options{Config: CHA, ReturnTypeAnalysis: true, DisableInlining: true})
	// loop is self-recursive: its return info degrades to Top during
	// its own compilation, so use() must keep the dynamic send (it is
	// allowed to bind only if the cycle were resolved with a fixpoint,
	// which we deliberately do not do).
	v := c.General(methodByName(t, c, "use", ""))
	if got := sendCount(v.Body); got != 1 {
		t.Errorf("recursive return info should degrade to Top: %d sends", got)
	}
	// And the program still runs correctly (soundness).
}

func TestReturnTypeAnalysisResultsUnchanged(t *testing.T) {
	// The extension must not change program semantics.
	progSrc := retSrc
	for _, rta := range []bool{false, true} {
		prog, err := ir.Lower(lang.MustParse(progSrc))
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(prog, Options{Config: CHA, ReturnTypeAnalysis: rta})
		if err == nil {
			err = c.CompileAll()
		}
		if err != nil {
			t.Fatalf("rta=%t: %v", rta, err)
		}
	}
}
