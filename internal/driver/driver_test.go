package driver

import (
	"strings"
	"testing"

	"selspec/internal/interp"
	"selspec/internal/obs"
	"selspec/internal/opt"
	"selspec/internal/specialize"
)

// setProgram is the paper's §2 motivating example: a Set hierarchy with
// overlaps/includes/do factored into an abstract superclass, driven by
// a loop performing many overlaps tests. inputSize is overridden by the
// harness to switch between training and measurement inputs.
const setProgram = `
var inputSize := 6;

class Set { field elems := nil; field n := 0; }
class ListSet isa Set
class HashSet isa Set
class BitSet isa Set { field bits := 0; }

method mkset(kind, cap) {
  var s := nil;
  if kind == 0 { s := new ListSet(newarray(cap), 0); }
  else { if kind == 1 { s := new HashSet(newarray(cap), 0); }
  else { s := new BitSet(newarray(cap), 0, 0); } }
  s;
}

method add(s@Set, e) {
  aput(s.elems, s.n, e);
  s.n := s.n + 1;
  s;
}

method do(s@ListSet, body) {
  var i := 0;
  while i < s.n { body(aget(s.elems, i)); i := i + 1; }
}
method do(s@HashSet, body) {
  var i := 0;
  while i < s.n { body(aget(s.elems, i)); i := i + 1; }
}
method do(s@BitSet, body) {
  var i := 0;
  while i < s.n { body(aget(s.elems, i)); i := i + 1; }
}

-- Default includes: iterate with a closure (non-local return).
method includes(s@Set, e) {
  s.do(fn(x) { if x == e { return true; } });
  false;
}
-- More efficient includes for HashSet/BitSet, as in the paper.
method includes(s@HashSet, e) {
  var i := 0;
  var found := false;
  while i < s.n { if aget(s.elems, i) == e { found := true; i := s.n; } else { i := i + 1; } }
  found;
}
method includes(s@BitSet, e) {
  var i := 0;
  var found := false;
  while i < s.n { if aget(s.elems, i) == e { found := true; i := s.n; } else { i := i + 1; } }
  found;
}

method size(s@Set) { s.n; }
method isEmpty(s@Set) { s.size() == 0; }

method overlaps(s1@Set, s2@Set) {
  if s1.isEmpty() || s2.isEmpty() { return false; }
  s1.do(fn(elem) { if s2.includes(elem) { return true; } });
  false;
}

method main() {
  var total := 0;
  var kinds := 3;
  var k1 := 0;
  while k1 < kinds {
    var k2 := 0;
    while k2 < kinds {
      var a := mkset(k1, inputSize);
      var b := mkset(k2, inputSize);
      var i := 0;
      while i < inputSize { a.add(i * 2); b.add(i * 3 + 1); i := i + 1; }
      var reps := 0;
      while reps < 40 {
        if a.overlaps(b) { total := total + 1; }
        reps := reps + 1;
      }
      k2 := k2 + 1;
    }
    k1 := k1 + 1;
  }
  println(str(total));
  total;
}
`

func runSet(t *testing.T, cfg opt.Config) *Result {
	t.Helper()
	p := MustLoad(setProgram)
	res, err := p.RunConfig(ConfigOptions{
		Opt:   opt.Options{Config: cfg},
		Train: map[string]int64{"inputSize": 4},
		Test:  map[string]int64{"inputSize": 6},
		Spec:  specialize.Params{Threshold: 50},
		Run:   RunOptions{CaptureOutput: true, StepLimit: 50_000_000},
	})
	if err != nil {
		t.Fatalf("%v under %v", err, cfg)
	}
	return res
}

func TestSetProgramAllConfigsAgree(t *testing.T) {
	base := runSet(t, opt.Base)
	if base.Value == "0" {
		t.Fatalf("degenerate program: no overlaps found")
	}
	for _, cfg := range []opt.Config{opt.Cust, opt.CustMM, opt.CHA, opt.Selective} {
		res := runSet(t, cfg)
		if res.Value != base.Value || res.Output != base.Output {
			t.Errorf("%v result %q/%q != Base %q/%q", cfg, res.Value, res.Output, base.Value, base.Output)
		}
	}
}

func TestSetProgramDispatchShape(t *testing.T) {
	results := map[opt.Config]*Result{}
	for _, cfg := range opt.Configs() {
		results[cfg] = runSet(t, cfg)
	}
	base := results[opt.Base].Counters.DynamicDispatches()
	sel := results[opt.Selective].Counters.DynamicDispatches()
	cha := results[opt.CHA].Counters.DynamicDispatches()
	cust := results[opt.Cust].Counters.DynamicDispatches()

	t.Logf("dispatches: Base=%d Cust=%d CustMM=%d CHA=%d Selective=%d",
		base, cust, results[opt.CustMM].Counters.DynamicDispatches(), cha, sel)
	t.Logf("cycles:     Base=%d Cust=%d CustMM=%d CHA=%d Selective=%d",
		results[opt.Base].Counters.Cycles, results[opt.Cust].Counters.Cycles,
		results[opt.CustMM].Counters.Cycles, results[opt.CHA].Counters.Cycles,
		results[opt.Selective].Counters.Cycles)

	if cust >= base {
		t.Errorf("Cust (%d) should eliminate dispatches vs Base (%d)", cust, base)
	}
	if cha >= base {
		t.Errorf("CHA (%d) should eliminate dispatches vs Base (%d)", cha, base)
	}
	if sel >= base {
		t.Errorf("Selective (%d) should eliminate dispatches vs Base (%d)", sel, base)
	}
	// The paper's headline: Selective eliminates the most dispatches.
	if sel > cust {
		t.Errorf("Selective (%d) should beat Cust (%d) on the Set benchmark", sel, cust)
	}
	// Selective's code space should stay modest vs customization.
	if results[opt.Selective].Stats.Versions >= results[opt.Cust].Stats.Versions*3 {
		t.Errorf("Selective versions (%d) unexpectedly dwarf Cust (%d)",
			results[opt.Selective].Stats.Versions, results[opt.Cust].Stats.Versions)
	}
}

func TestOverridesValidated(t *testing.T) {
	p := MustLoad(`var x := 1; method main() { x; }`)
	c, err := opt.Compile(p.Prog, opt.Options{Config: opt.Base})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(c, RunOptions{Overrides: map[string]int64{"nope": 3}}); err == nil ||
		!strings.Contains(err.Error(), "unknown global") {
		t.Fatalf("err = %v", err)
	}
	res, err := Execute(c, RunOptions{Overrides: map[string]int64{"x": 41}})
	if err != nil || res.Value != "41" {
		t.Fatalf("override failed: %v %v", res, err)
	}
	// Restored afterwards.
	res, err = Execute(c, RunOptions{})
	if err != nil || res.Value != "1" {
		t.Fatalf("restore failed: %v %v", res, err)
	}
}

func TestSharedInstrumentsAccumulate(t *testing.T) {
	if NewInstruments(nil) != nil {
		t.Fatal("NewInstruments(nil) should be nil (disabled mode)")
	}
	p := MustLoad(setProgram)
	c, err := opt.Compile(p.Prog, opt.Options{Config: opt.Base})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ins := NewInstruments(reg)
	// Two runs through one pre-registered bundle — the server's shape —
	// must feed the same series Metrics-based registration would.
	for i := 0; i < 2; i++ {
		if _, err := Execute(c, RunOptions{Instruments: ins, StepLimit: 50_000_000}); err != nil {
			t.Fatal(err)
		}
	}
	two := reg.Snapshot().Counters["selspec_interp_sends_total"]
	if two == 0 {
		t.Fatal("shared instruments recorded no sends")
	}
	if _, err := Execute(c, RunOptions{Metrics: reg, StepLimit: 50_000_000}); err != nil {
		t.Fatal(err)
	}
	three := reg.Snapshot().Counters["selspec_interp_sends_total"]
	if three != two/2*3 {
		t.Errorf("Metrics path diverged from Instruments path: 2 runs = %d sends, 3 runs = %d", two, three)
	}
}

func TestMechanismsAgree(t *testing.T) {
	p := MustLoad(setProgram)
	c, err := opt.Compile(p.Prog, opt.Options{Config: opt.Base})
	if err != nil {
		t.Fatal(err)
	}
	var vals []string
	for _, mech := range []interp.Mechanism{interp.MechPIC, interp.MechGlobal, interp.MechTables} {
		res, err := Execute(c, RunOptions{Mechanism: mech, StepLimit: 50_000_000})
		if err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		vals = append(vals, res.Value)
	}
	if vals[0] != vals[1] || vals[1] != vals[2] {
		t.Fatalf("mechanisms disagree: %v", vals)
	}
}
