package vm

// White-box compiler tests: superinstruction selection, disassembly,
// and the unknown-node error path.

import (
	"strings"
	"testing"

	"selspec/internal/ir"
	"selspec/internal/lang"
	"selspec/internal/opt"
)

func compileModule(t *testing.T, src string, cfg opt.Config) *Module {
	t.Helper()
	parsed, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := ir.Lower(parsed)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	c, err := opt.Compile(prog, opt.Options{Config: cfg})
	if err != nil {
		t.Fatalf("opt: %v", err)
	}
	mod, err := newModule(c)
	if err == nil {
		err = mod.CompileAll()
	}
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	return mod
}

func allDisasm(mod *Module) string {
	var b strings.Builder
	for _, p := range mod.procs {
		b.WriteString(p.Disasm())
	}
	for _, p := range mod.globalInits {
		b.WriteString(p.Disasm())
	}
	return b.String()
}

const superSrc = `
class P { field n : Int := 0; field k : Int := 0; }
method bump(p@P, r@Int) {
  var hits := 0;
  var xs := newarray(4);
  var i := 0;
  while i < p.n {
    aput(xs, i, i * 2);
    if p.k >= r { hits := hits + aget(xs, i); }
    i := i + 1;
  }
  hits := hits + p.n;
  var neg := p.k >= 0;
  var eq := p.k == r;
  if neg { hits := hits + 1; }
  if eq { hits := hits - 1; }
  hits;
}
method main() { bump(new P(3, 5), 4); }
`

// TestSuperinstructionEmission pins the compiler's instruction
// selection: each fused shape in the source must compile to its
// superinstruction, not the generic sequence.
func TestSuperinstructionEmission(t *testing.T) {
	dis := allDisasm(compileModule(t, superSrc, opt.CHA))
	for _, op := range []string{
		"cmpbrfield", // while i < p.n
		"aput",       // aput(xs, i, i*2), window-free
		"aget",       // aget(xs, i), window-free
		"bink",       // i := i + 1
		"binfield",   // hits + p.n
		"fieldbink",  // p.k >= 0
		"fieldbin",   // p.k == r
	} {
		if !strings.Contains(dis, " "+op+" ") && !strings.Contains(dis, " "+op+"\n") &&
			!strings.Contains(dis, op+" ") {
			t.Errorf("disassembly is missing superinstruction %q:\n%s", op, dis)
		}
	}
	// The fused shapes must not also appear unfused: no argument-window
	// prim call remains for aget/aput in bump's body.
	for _, p := range compileModule(t, superSrc, opt.CHA).procs {
		if !strings.Contains(p.Name, "bump") {
			continue
		}
		for _, i := range p.Code {
			if i.Op == OpPrim && (ir.Prim(i.B) == ir.PrimAGet || ir.Prim(i.B) == ir.PrimAPut) {
				t.Errorf("bump still holds a windowed aget/aput prim:\n%s", p.Disasm())
			}
		}
	}
}

// TestDisasmRendersFusedOperands checks the disassembler's rendering of
// the fused field ops (field name, operator, operand registers), which
// DESIGN.md quotes.
func TestDisasmRendersFusedOperands(t *testing.T) {
	src := `
class P { field n : Int := 0; }
method pos(p@P) { p.n >= 0; }
method main() { pos(new P(1)); }
`
	mod := compileModule(t, src, opt.CHA)
	for _, p := range mod.procs {
		if !strings.Contains(p.Name, "pos") {
			continue
		}
		dis := p.Disasm()
		if !strings.Contains(dis, "fieldbink") || !strings.Contains(dis, ".n >= 0") {
			t.Errorf("fieldbink rendering missing from:\n%s", dis)
		}
		return
	}
	t.Fatal("proc for pos not found")
}

// TestCompileErrorUnsupported: an IR shape the compiler does not know
// is reported as an error naming the node type, never a panic.
func TestCompileErrorUnsupported(t *testing.T) {
	mod := compileModule(t, "method main() { 1; }", opt.Base)
	_, err := mod.compile("bad", KindMethod, nil, 0)
	if err == nil || !strings.Contains(err.Error(), "unknown IR node <nil>") {
		t.Fatalf("compiling an unknown node: got %v, want an unknown-node error", err)
	}
}

// findProc returns the first eagerly compiled version proc whose name
// contains sub.
func findProc(t *testing.T, mod *Module, sub string) *Proc {
	t.Helper()
	for _, p := range mod.procs {
		if strings.Contains(p.Name, sub) {
			return p
		}
	}
	t.Fatalf("proc for %q not found", sub)
	return nil
}

// TestFusedArgSlotCapture pins the effect-analysis capture rule for
// instructions that read their operand registers at execution time:
// a depth-0 local operand is snapshotted to a temporary exactly when a
// later operand may write its slot — which requires both a call in the
// later operand and a closure in the proc (a closure-free frame is
// unreachable from callees). The old syntactic rule copied whenever any
// later operand emitted code; the in-place cases below would have
// copied under it.
func TestFusedArgSlotCapture(t *testing.T) {
	aputIndexReg := func(p *Proc) int32 {
		t.Helper()
		for _, i := range p.Code {
			if i.Op == OpAPut {
				return i.C
			}
		}
		t.Fatalf("no OpAPut compiled:\n%s", p.Disasm())
		return -1
	}

	// Closure-free proc: the send cannot reach main's frame, so the
	// index slot is read in place — no snapshot move.
	inPlace := `
class C { }
method clobber(c@C) { 1; }
method main() {
  var xs := newarray(3);
  var i := 0;
  aput(xs, i, clobber(new C()));
  aget(xs, i);
}
`
	mod := compileModule(t, inPlace, opt.CHA)
	p := findProc(t, mod, "main")
	if r := aputIndexReg(p); r >= int32(p.NumSlots) {
		t.Errorf("closure-free proc: aput index register r%d is a temp; want the raw frame slot:\n%s", r, p.Disasm())
	}

	// Proc that creates a closure: a closure call in a later operand can
	// write the index slot, so its value must be snapshotted to a temp
	// before the call runs.
	capture := `
method main() {
  var xs := newarray(3);
  var i := 0;
  var f := fn() { i := 2; 0; };
  aput(xs, i, f());
  aget(xs, i);
}
`
	mod = compileModule(t, capture, opt.CHA)
	p = findProc(t, mod, "main")
	if r := aputIndexReg(p); r < int32(p.NumSlots) {
		t.Errorf("closure-capturing proc: aput index register r%d is a raw frame slot; want a temp snapshot:\n%s", r, p.Disasm())
	}
}

// TestDivModByConstantUsesBinK: division and remainder by an integer
// literal, negative ones included, compile to OpBinK, the instruction
// whose fast path handles nonzero divisors.
func TestDivModByConstantUsesBinK(t *testing.T) {
	src := `
method f(x) { (x / 2) + (x % -3); }
method main() { var x := 0 - 5; while x < 5 { f(x); x := x + 1; } x; }
`
	found := map[ir.BinOp]bool{}
	for _, p := range compileModule(t, src, opt.Base).procs {
		for _, i := range p.Code {
			if i.Op == OpBinK {
				found[ir.BinOp(i.D)] = true
			}
		}
	}
	if !found[ir.OpDiv] || !found[ir.OpMod] {
		t.Errorf("want OpBinK for / and %%, got %v:\n%s", found, allDisasm(compileModule(t, src, opt.Base)))
	}
}

// TestConditionsCompileToJumpingCode pins the shape of If/While
// conditions: `a && b` and `!x` branch on each operand directly, with
// no boolean materialized (no const, checkbool, not or jump in the
// condition), and a While back-edge is one loop instruction that
// re-enters just past the loop head's step.
func TestConditionsCompileToJumpingCode(t *testing.T) {
	src := `
method both(a, b) { var n := 0; if a && b { n := 1; } n; }
method until(x) { var n := 0; while !x { x := n > 2; n := n + 1; } n; }
method main() { both(true, false); until(false); }
`
	mod := compileModule(t, src, opt.CHA)
	cases := []struct {
		proc string
		cond []Op // the condition's code, from the first pc
	}{
		{"both", []Op{OpBranch, OpBranch}},
		{"until", []Op{OpStep, OpBranch}},
	}
	for _, tc := range cases {
		p := findProc(t, mod, tc.proc)
		start := 0
		for start < len(p.Code) && p.Code[start].Op == OpConst && p.Code[start].A < int32(p.NumSlots) {
			start++ // `var n := 0` precedes the condition
		}
		for k, want := range tc.cond {
			if got := p.Code[start+k].Op; got != want {
				t.Errorf("%s: condition op %d is %s, want %s:\n%s", tc.proc, k, got, want, p.Disasm())
			}
		}
		for _, i := range p.Code {
			if i.Op == OpCheckBool || i.Op == OpNot || (tc.proc == "both" && i.Op == OpJump) {
				t.Errorf("%s: %s materializes a condition boolean:\n%s", tc.proc, i.Op, p.Disasm())
			}
		}
	}
	until := findProc(t, mod, "until")
	if m := Mode(until.Code[2].D); until.Code[2].C != msgNot || !m.Not() || !m.Sense() {
		t.Errorf("until: `while !x` should branch out when x is true with a folded '!':\n%s", until.Disasm())
	}
	var loops int
	for _, i := range until.Code {
		if i.Op == OpLoop {
			loops++
			if i.A != 2 {
				t.Errorf("until: loop re-enters at %d, want 2 (past the head's step):\n%s", i.A, until.Disasm())
			}
		}
	}
	if loops != 1 {
		t.Errorf("until: %d loop back-edges, want 1:\n%s", loops, until.Disasm())
	}
	dis := until.Disasm() + findProc(t, mod, "both").Disasm()
	for _, want := range []string{"branch", "loop", "(!)", "(&&)", "if true", "if false"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly lacks %q:\n%s", want, dis)
		}
	}
}

// TestFieldArrayReadFuses: aget(obj.field, i) compiles to one
// agetfield, rendered with its field and index register.
func TestFieldArrayReadFuses(t *testing.T) {
	src := `
class B { field xs := newarray(3); }
method at(b@B, i@Int) { aget(b.xs, i); }
method main() { at(new B(), 1); }
`
	p := findProc(t, compileModule(t, src, opt.CHA), "at")
	for _, i := range p.Code {
		if i.Op == OpGetField || i.Op == OpAGet {
			t.Errorf("at: unfused %s:\n%s", i.Op, p.Disasm())
		}
	}
	if dis := p.Disasm(); !strings.Contains(dis, "agetfield") || !strings.Contains(dis, "aget(r0.xs, r1)") {
		t.Errorf("agetfield missing or misrendered:\n%s", dis)
	}
}
