package opt

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"selspec/internal/hier"
	"selspec/internal/ir"
	"selspec/internal/lang"
)

func compile(t *testing.T, src string, opts Options) *Compiled {
	t.Helper()
	prog, err := ir.Lower(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(prog, opts)
	if err == nil {
		err = c.CompileAll()
	}
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func methodByName(t *testing.T, c *Compiled, gf string, spec string) *hier.Method {
	t.Helper()
	for _, m := range c.Prog.H.Methods() {
		if m.GF.Name == gf && (spec == "" || m.Specs[0].Name == spec) {
			return m
		}
	}
	t.Fatalf("no method %s@%s", gf, spec)
	return nil
}

func countNodes[T ir.Node](body ir.Node) int {
	n := 0
	ir.Walk(body, func(nd ir.Node) bool {
		if _, ok := nd.(T); ok {
			n++
		}
		return true
	})
	return n
}

const optSrc = `
class A
class B isa A
class C isa A
method m(x@A) { 1; }
method m(x@B) { 2; }
method single(x@A) { 41; }
method caller(x@A) { x.m(); x.single(); }
method localExact() { var b := new B(); b.m(); }
method main() { caller(new C()); localExact(); }
`

func TestConfigString(t *testing.T) {
	want := []string{"Base", "Cust", "Cust-MM", "CHA", "Selective"}
	for i, cfg := range Configs() {
		if cfg.String() != want[i] {
			t.Errorf("config %d = %q", i, cfg)
		}
		back, err := ParseConfig(want[i])
		if err != nil || back != cfg {
			t.Errorf("ParseConfig(%q) = %v, %v", want[i], back, err)
		}
	}
	if _, err := ParseConfig("bogus"); err == nil {
		t.Error("ParseConfig(bogus) should fail")
	}
}

func TestBaseBindsLocalExactOnly(t *testing.T) {
	c := compile(t, optSrc, Options{Config: Base})

	// caller's sends stay dynamic under Base (formal info is Top).
	callerV := c.General(methodByName(t, c, "caller", "A"))
	if got := countNodes[*ir.Send](callerV.Body); got != 2 {
		t.Errorf("Base caller has %d dynamic sends, want 2", got)
	}
	// localExact's b.m() is statically bound (and inlined) via the
	// exact class of the freshly created object.
	lv := c.General(methodByName(t, c, "localExact", ""))
	if got := countNodes[*ir.Send](lv.Body); got != 0 {
		t.Errorf("Base localExact still has %d dynamic sends", got)
	}
}

func TestCHABindsSingleTargetOnFormals(t *testing.T) {
	c := compile(t, optSrc, Options{Config: CHA})
	callerV := c.General(methodByName(t, c, "caller", "A"))
	// x.m() has two applicable methods over cone(A): stays dynamic.
	// x.single() has one: statically bound (inlined, small body).
	if got := countNodes[*ir.Send](callerV.Body); got != 1 {
		t.Errorf("CHA caller has %d dynamic sends, want 1", got)
	}
}

func TestCustVersionsPerReceiverClass(t *testing.T) {
	c := compile(t, optSrc, Options{Config: Cust})
	mA := methodByName(t, c, "m", "A")
	// m@A applies to A and C (B overrides): two customized versions.
	if got := len(c.VersionsOf(mA)); got != 2 {
		t.Errorf("Cust versions of m@A = %d, want 2", got)
	}
	// Within a customized version of caller for receiver class B, x.m()
	// binds to m@B.
	callerB := findVersionWithClass(t, c, "caller", "B")
	if got := countNodes[*ir.Send](callerB.Body); got != 0 {
		t.Errorf("Cust caller@B has %d dynamic sends, want 0", got)
	}
}

func findVersionWithClass(t *testing.T, c *Compiled, gf string, class string) *ir.Version {
	t.Helper()
	cl, _ := c.Prog.H.Class(class)
	for _, m := range c.Prog.H.Methods() {
		if m.GF.Name != gf {
			continue
		}
		for _, v := range c.VersionsOf(m) {
			if v.Tuple[0].Len() == 1 && v.Tuple[0].Has(cl.ID) {
				if err := c.EnsureBody(v); err != nil {
					t.Fatal(err)
				}
				return v
			}
		}
	}
	t.Fatalf("no version of %s for class %s", gf, class)
	return nil
}

// TestCompileBuildsNoBody: Compile defines versions but builds no body
// under any configuration; CompileAll builds the static set.
func TestCompileBuildsNoBody(t *testing.T) {
	prog, err := ir.Lower(lang.MustParse(optSrc))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{Base, Cust, CHA} {
		c, err := Compile(prog, Options{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if n := c.Stats().CompiledBodies; n != 0 {
			t.Fatalf("%v: %d version bodies built before any call", cfg, n)
		}
		if err := c.CompileAll(); err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); s.CompiledBodies != s.Versions {
			t.Fatalf("%v: CompileAll built %d bodies of %d versions", cfg, s.CompiledBodies, s.Versions)
		}
	}
}

// TestCustMMRequiresLazy: Cust-MM is practical only under dynamic
// compilation, so its static set is empty (CompileAll builds nothing)
// and a body is built on its version's first call.
func TestCustMMRequiresLazy(t *testing.T) {
	c := compile(t, optSrc, Options{Config: CustMM})
	if n := c.Stats().CompiledBodies; n != 0 {
		t.Fatalf("%d version bodies built before any call", n)
	}
	a, _ := c.Prog.H.Class("A")
	v := c.SelectVersion(methodByName(t, c, "m", "A"), []*hier.Class{a})
	if err := c.EnsureBody(v); err != nil {
		t.Fatal(err)
	}
	if n := c.Stats().CompiledBodies; n != 1 {
		t.Fatalf("first call compiled %d bodies, want 1", n)
	}
}

func TestSelectiveRequiresDirectives(t *testing.T) {
	prog, err := ir.Lower(lang.MustParse(optSrc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(prog, Options{Config: Selective}); err == nil {
		t.Fatal("Selective without directives should be rejected")
	}
}

func TestSelectVersionRuntime(t *testing.T) {
	// Build Selective directives by hand: specialize m@A's caller... we
	// specialize method "caller" on {B} and {C}.
	prog, err := ir.Lower(lang.MustParse(optSrc))
	if err != nil {
		t.Fatal(err)
	}
	h := prog.H
	caller := func() *hier.Method {
		for _, m := range h.Methods() {
			if m.GF.Name == "caller" {
				return m
			}
		}
		return nil
	}()
	a, _ := h.Class("A")
	b, _ := h.Class("B")
	cc, _ := h.Class("C")

	gen := h.ApplicableClasses(caller).Clone()
	specB := gen.Clone()
	specB[0].Clear()
	specB[0].Add(b.ID)
	specC := gen.Clone()
	specC[0].Clear()
	specC[0].Add(cc.ID)

	c, err := Compile(prog, Options{
		Config:          Selective,
		Specializations: map[*hier.Method][]hier.Tuple{caller: {gen, specB, specC}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := c.SelectVersion(caller, []*hier.Class{b}); !v.Tuple[0].Equal(specB[0]) {
		t.Errorf("SelectVersion(B) = %v", v)
	}
	if v := c.SelectVersion(caller, []*hier.Class{cc}); !v.Tuple[0].Equal(specC[0]) {
		t.Errorf("SelectVersion(C) = %v", v)
	}
	if v := c.SelectVersion(caller, []*hier.Class{a}); !v.General {
		t.Errorf("SelectVersion(A) should be the general version, got %v", v)
	}
}

// TestSelectVersionMinimalUnique: on intersection-closed tuple sets the
// single-pass runtime selection finds the unique minimal containing
// tuple, matching a brute-force search, for random closed families.
func TestSelectVersionMinimalUnique(t *testing.T) {
	src := `
class A
class B isa A
class C isa A
class D isa B
method f(x@A, y@A) { 1; }
`
	prog, err := ir.Lower(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	h := prog.H
	f := h.Methods()[0]
	classes := []string{"A", "B", "C", "D"}
	rng := rand.New(rand.NewSource(11))

	for round := 0; round < 60; round++ {
		gen := h.GeneralTuple(f)
		tuples := []hier.Tuple{gen}
		// Random tuples, then close under intersection.
		for k := 0; k < 4; k++ {
			tpl := gen.Clone()
			for pos := 0; pos < 2; pos++ {
				tpl[pos].Clear()
				for _, cn := range classes {
					if rng.Intn(2) == 0 {
						cl, _ := h.Class(cn)
						tpl[pos].Add(cl.ID)
					}
				}
			}
			if tpl.HasEmpty() {
				continue
			}
			tuples = append(tuples, tpl)
		}
		for changed := true; changed; {
			changed = false
			for i := range tuples {
				for j := range tuples {
					inter := tuples[i].Intersect(tuples[j])
					if inter.HasEmpty() {
						continue
					}
					dup := false
					for _, u := range tuples {
						if u.Equal(inter) {
							dup = true
							break
						}
					}
					if !dup {
						tuples = append(tuples, inter)
						changed = true
					}
				}
			}
		}

		c, err := Compile(prog, Options{Config: Selective,
			Specializations: map[*hier.Method][]hier.Tuple{f: tuples}})
		if err != nil {
			t.Fatal(err)
		}
		for _, n1 := range classes {
			for _, n2 := range classes {
				c1, _ := h.Class(n1)
				c2, _ := h.Class(n2)
				got := c.SelectVersion(f, []*hier.Class{c1, c2})
				// Brute force: minimal containing tuple.
				var best hier.Tuple
				for _, tpl := range tuples {
					if !tpl.ContainsIDs([]int{c1.ID, c2.ID}) {
						continue
					}
					if best == nil || tpl.SubsetOf(best) {
						best = tpl
					}
				}
				if !got.Tuple.Equal(best) {
					t.Fatalf("round %d: SelectVersion(%s,%s) picked %s, brute force %s",
						round, n1, n2, got.Tuple.String(h), best.String(h))
				}
			}
		}
	}
}

func TestCustMMLazyVersionCreation(t *testing.T) {
	c := compile(t, optSrc, Options{Config: CustMM})
	m := methodByName(t, c, "m", "A")
	a, _ := c.Prog.H.Class("A")
	cc, _ := c.Prog.H.Class("C")
	before := len(c.VersionsOf(m))
	v1 := c.SelectVersion(m, []*hier.Class{a})
	v2 := c.SelectVersion(m, []*hier.Class{cc})
	v3 := c.SelectVersion(m, []*hier.Class{a}) // cached
	if v1 == v2 || v1 != v3 {
		t.Errorf("lazy Cust-MM version identity wrong")
	}
	if got := len(c.VersionsOf(m)); got != before+2 {
		t.Errorf("versions grew by %d, want 2", got-before)
	}
}

func TestInliningRespectsThresholdAndReturns(t *testing.T) {
	src := `
class A
method tiny(x@A) { 1; }
method hasReturn(x@A) { return 2; }
method caller(x@A) { x.tiny(); x.hasReturn(); }
method main() { caller(new A()); }
`
	c := compile(t, src, Options{Config: CHA})
	callerV := c.General(methodByName(t, c, "caller", "A"))
	// tiny is inlined; hasReturn is statically bound but NOT inlined
	// (its return would escape the caller).
	if got := countNodes[*ir.StaticCall](callerV.Body); got != 1 {
		t.Errorf("static calls = %d, want 1 (hasReturn)", got)
	}
	if got := countNodes[*ir.Send](callerV.Body); got != 0 {
		t.Errorf("dynamic sends = %d, want 0", got)
	}

	cNoInline := compile(t, src, Options{Config: CHA, DisableInlining: true})
	v2 := cNoInline.General(methodByName(t, cNoInline, "caller", "A"))
	if got := countNodes[*ir.StaticCall](v2.Body); got != 2 {
		t.Errorf("with inlining disabled, static calls = %d, want 2", got)
	}
}

func TestRecursionNotInlined(t *testing.T) {
	src := `
class A
method rec(x@A, n) { if n > 0 { x.rec(n - 1); } 0; }
method main() { rec(new A(), 3); }
`
	c := compile(t, src, Options{Config: CHA})
	v := c.General(methodByName(t, c, "rec", "A"))
	// The self-recursive call must remain a call (static), not unroll
	// forever.
	if got := countNodes[*ir.StaticCall](v.Body); got != 1 {
		t.Errorf("recursive static calls = %d, want 1", got)
	}
}

func TestClosureEliminationInDoLoop(t *testing.T) {
	// The paper's flagship optimization: after inlining do into each,
	// the closure literal is gone and its body runs inline in the loop.
	src := `
class L { field elems : Array := nil; field n : Int := 0; }
method do(s@L, body) {
  var i := 0;
  while i < s.n { body(aget(s.elems, i)); i := i + 1; }
}
method total(s@L) {
  var sum := 0;
  s.do(fn(x) { sum := sum + x; });
  sum;
}
method main() { total(new L(newarray(0), 0)); }
`
	c := compile(t, src, Options{Config: CHA})
	v := c.General(methodByName(t, c, "total", "L"))
	if got := countNodes[*ir.MakeClosure](v.Body); got != 0 {
		t.Errorf("closure not eliminated: %d MakeClosure nodes remain", got)
	}
	if got := countNodes[*ir.CallClosure](v.Body); got != 0 {
		t.Errorf("closure calls remain: %d", got)
	}
	if got := countNodes[*ir.Send](v.Body); got != 0 {
		t.Errorf("do send not inlined: %d sends", got)
	}
}

func TestClosureWritesPoisonAnalysis(t *testing.T) {
	// found must NOT be constant-folded to false: the closure writes it.
	src := `
class L { field elems : Array := nil; field n : Int := 0; }
method do(s@L, body) {
  var i := 0;
  while i < s.n { body(aget(s.elems, i)); i := i + 1; }
}
method has3(s@L) {
  var found := false;
  s.do(fn(x) { if x == 3 { found := true; } });
  if found { 1; } else { 0; }
}
method main() { has3(new L(newarray(0), 0)); }
`
	c := compile(t, src, Options{Config: CHA})
	v := c.General(methodByName(t, c, "has3", "L"))
	// The If on found must survive (not be folded away).
	if got := countNodes[*ir.If](v.Body); got == 0 {
		t.Error("the if on the closure-written variable was folded away")
	}
}

func TestConstantFolding(t *testing.T) {
	src := `method main() { 2 + 3 * 4; }`
	c := compile(t, src, Options{Config: Base})
	v := c.General(c.Prog.H.Methods()[0])
	k, ok := v.Body.(*ir.Const)
	if !ok || k.Int != 14 {
		t.Fatalf("not folded: %#v", v.Body)
	}
	// Division by zero must not fold (the runtime error is preserved).
	c2 := compile(t, `method main() { var x := 1 / 0; x; }`, Options{Config: Base})
	v2 := c2.General(c2.Prog.H.Methods()[0])
	if countNodes[*ir.Bin](v2.Body) != 1 {
		t.Error("1/0 should not be folded away")
	}
}

func TestFieldSlotResolution(t *testing.T) {
	src := `
class P { field x : Int := 0; }
method getx(p@P) { p.x; }
method main() { getx(new P(3)); }
`
	c := compile(t, src, Options{Config: CHA})
	v := c.General(methodByName(t, c, "getx", "P"))
	resolved := false
	ir.Walk(v.Body, func(n ir.Node) bool {
		if g, ok := n.(*ir.GetField); ok && g.Slot == 0 {
			resolved = true
		}
		return true
	})
	if !resolved {
		t.Error("field slot not resolved with exact receiver class set")
	}

	// Under Base the formal is Top: slot stays -1.
	cb := compile(t, src, Options{Config: Base})
	vb := cb.General(methodByName(t, cb, "getx", "P"))
	ir.Walk(vb.Body, func(n ir.Node) bool {
		if g, ok := n.(*ir.GetField); ok && g.Slot != -1 {
			t.Error("Base resolved a field slot without class info")
		}
		return true
	})
}

func TestGlobalConstInfo(t *testing.T) {
	// A never-assigned global carries its initializer's class: the send
	// binds. An assigned one does not.
	src := `
class A
class B isa A
method m(x@A) { 1; }
method m(x@B) { 2; }
var constant := new B();
var mutated := new B();
method touch() { mutated := new A(); }
method useConst() { m(constant); }
method useMut() { m(mutated); }
method main() { touch(); useConst(); useMut(); }
`
	c := compile(t, src, Options{Config: Base})
	vc := c.General(methodByName(t, c, "useConst", ""))
	if got := countNodes[*ir.Send](vc.Body); got != 0 {
		t.Errorf("send on constant global not bound: %d sends", got)
	}
	vm := c.General(methodByName(t, c, "useMut", ""))
	if got := countNodes[*ir.Send](vm.Body); got != 1 {
		t.Errorf("send on mutated global should stay dynamic: %d sends", got)
	}
}

func TestFieldTypeInfoGating(t *testing.T) {
	src := `
class T
method only(x@T) { 7; }
class Holder { field t : T := nil; }
method use(h@Holder) { only(h.t); }
method main() { use(new Holder(new T())); }
`
	// CHA: h.t has cone(T) info, the send binds.
	c := compile(t, src, Options{Config: CHA})
	v := c.General(methodByName(t, c, "use", "Holder"))
	if got := countNodes[*ir.Send](v.Body); got != 0 {
		t.Errorf("CHA: typed field read did not bind the send (%d sends)", got)
	}
	// Base: no field type info.
	cb := compile(t, src, Options{Config: Base})
	vb := cb.General(methodByName(t, cb, "use", "Holder"))
	if got := countNodes[*ir.Send](vb.Body); got != 1 {
		t.Errorf("Base: send should stay dynamic (%d sends)", got)
	}
}

func TestStatsAndHistogram(t *testing.T) {
	c := compile(t, optSrc, Options{Config: Cust})
	s := c.Stats()
	if s.Versions < s.SourceMethods {
		t.Errorf("stats: versions %d < methods %d", s.Versions, s.SourceMethods)
	}
	if s.IRNodes == 0 || s.CompiledBodies != s.Versions {
		t.Errorf("stats: %+v", s)
	}
	h := c.SpecializationHistogram()
	if len(h) == 0 {
		t.Error("Cust should specialize at least one method")
	}
	for i := 1; i < len(h); i++ {
		if h[i] > h[i-1] {
			t.Error("histogram not sorted descending")
		}
	}
}

func TestStaticVersionCountCustMM(t *testing.T) {
	src := `
class A
class B isa A
method f(x@A, y@A) { 1; }
method g(x) { 2; }
method main() { f(new A(), new B()); g(1); }
`
	c := compile(t, src, Options{Config: CustMM})
	// f: 2×2 combinations; g: 1; main: 1 → 6.
	if got := c.StaticVersionCount(); got != 6 {
		t.Errorf("StaticVersionCount = %d, want 6", got)
	}
}

func TestEliminateDeadKeepsEffects(t *testing.T) {
	src := `
method main() {
  var unused := 1 + 2;
  print("kept");
  7;
}
`
	c := compile(t, src, Options{Config: Base})
	v := c.General(c.Prog.H.Methods()[0])
	if got := countNodes[*ir.SetLocal](v.Body); got != 0 {
		t.Errorf("dead pure SetLocal survived: %d", got)
	}
	if got := countNodes[*ir.PrimCall](v.Body); got != 1 {
		t.Errorf("print was dropped: %d prim calls", got)
	}
}

func TestQuickFoldIntBinMatchesSemantics(t *testing.T) {
	ops := []ir.BinOp{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpLT, ir.OpLE, ir.OpGT, ir.OpGE, ir.OpEQ, ir.OpNE}
	f := func(l, r int32, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		folded, ok := foldIntBin(op, int64(l), int64(r))
		if !ok {
			return false
		}
		k := folded.(*ir.Const)
		switch op {
		case ir.OpAdd:
			return k.Int == int64(l)+int64(r)
		case ir.OpSub:
			return k.Int == int64(l)-int64(r)
		case ir.OpMul:
			return k.Int == int64(l)*int64(r)
		case ir.OpLT:
			return k.Bool == (l < r)
		case ir.OpLE:
			return k.Bool == (l <= r)
		case ir.OpGT:
			return k.Bool == (l > r)
		case ir.OpGE:
			return k.Bool == (l >= r)
		case ir.OpEQ:
			return k.Bool == (l == r)
		default:
			return k.Bool == (l != r)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, ok := foldIntBin(ir.OpDiv, 1, 0); ok {
		t.Error("division by zero folded")
	}
	if _, ok := foldIntBin(ir.OpMod, 1, 0); ok {
		t.Error("modulo by zero folded")
	}
}

func TestCompileErrorOnBadSelectiveOpts(t *testing.T) {
	prog, err := ir.Lower(lang.MustParse(`method main() { 1; }`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compile(prog, Options{Config: Selective})
	if err == nil || !strings.Contains(err.Error(), "Specializations") {
		t.Fatalf("err = %v", err)
	}
}

// TestExactInfoAllocatesNothing: the info of an exactly known class
// shares the class's Freeze-time singleton set instead of building one
// per node.
func TestExactInfoAllocatesNothing(t *testing.T) {
	c := compile(t, optSrc, Options{Config: Base})
	cls := c.Prog.H.B.Int
	var in info
	if n := testing.AllocsPerRun(100, func() { in = exactInfo(cls) }); n != 0 {
		t.Errorf("exactInfo allocates %v times per call", n)
	}
	if in.top || in.set.Len() != 1 || !in.set.Has(cls.ID) {
		t.Errorf("exactInfo(Int) = %+v", in)
	}
}
