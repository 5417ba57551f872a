package vm_test

import (
	"testing"

	"selspec/internal/driver"
	"selspec/internal/gen"
	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/lang"
	"selspec/internal/opt"
	"selspec/internal/vm"
)

// condChainSrc spends its run in one && / || / ! chain over array
// reads, field reads and comparisons: the If/While conditions the VM
// compiles to jumping code.
const condChainSrc = `
class Blk { field ready := newarray(64); field n : Int := 64; }
method main() {
  var b := new Blk();
  var done := newarray(64);
  var i := 0;
  while i < b.n { aput(b.ready, i, i % 7); aput(done, i, i % 3 == 0); i := i + 1; }
  var hits := 0;
  var r := 0;
  while r < 50 {
    i := 0;
    while i < b.n && !(hits < 0) {
      if !aget(done, i) && aget(b.ready, i) <= r % 7 || i == r { hits := hits + 1; }
      i := i + 1;
    }
    r := r + 1;
  }
  hits;
}
`

// megamorphicSrc sends rel(a, b) over 12 argument-class tuples from one
// site, so the site's 8-entry PIC stays full and 4 tuples always miss.
const megamorphicSrc = `
class K { } class A isa K { } class B isa K { } class C isa K { }
class V { } class X isa V { } class Y isa V { } class Z isa V { } class W isa V { }
method rel(a@K, b@V) { 0; }
method rel(a@A, b@X) { 1; }
method rel(a@B, b@V) { 2; }
method rel(a@C, b@Y) { 3; }
method rel(a@A, b@W) { 4; }
method main() {
  var ks := newarray(3);
  aput(ks, 0, new A()); aput(ks, 1, new B()); aput(ks, 2, new C());
  var vs := newarray(4);
  aput(vs, 0, new X()); aput(vs, 1, new Y()); aput(vs, 2, new Z()); aput(vs, 3, new W());
  var sum := 0;
  var i := 0;
  while i < 1200 {
    sum := sum + rel(aget(ks, (i + i / 12) % 3), aget(vs, (i * 7 + i / 12) % 4));
    i := i + 1;
  }
  sum;
}
`

// dispatchLoopSrc spends its run in a send-free loop of a compare
// branch, a field-operand add, a constant add and the loop back edge:
// the dispatch loop's per-instruction overhead with nothing under it.
const dispatchLoopSrc = `
class Acc { field n : Int := 3; }
method main() {
  var a := new Acc();
  var s := 0;
  var i := 0;
  while i < 20000 { s := s + a.n; i := i + 1; }
  s;
}
`

// sendPoly3Src sends area(x) from one site over three receiver classes
// in rotation, so every send hits its inline cache behind the front
// way, and each callee returns at once: the flattened call and return
// sequence under a polymorphic site.
const sendPoly3Src = `
class Shape { } class Sq isa Shape { } class Ci isa Shape { } class Tr isa Shape { }
method area(x@Sq) { 4; }
method area(x@Ci) { 3; }
method area(x@Tr) { 1; }
method main() {
  var xs := newarray(3);
  aput(xs, 0, new Sq()); aput(xs, 1, new Ci()); aput(xs, 2, new Tr());
  var s := 0;
  var i := 0;
  while i < 6000 { s := s + area(aget(xs, i % 3)); i := i + 1; }
  s;
}
`

// sendMonoSrc sends area(x) from one site to one receiver class, so
// every send hits the front entry of its inline cache: the path most
// sends of the paper programs take.
const sendMonoSrc = `
class Shape { } class Sq isa Shape { } class Ci isa Shape { }
method area(x@Sq) { 4; }
method area(x@Ci) { 3; }
method main() {
  var xs := newarray(1);
  aput(xs, 0, new Sq());
  var s := 0;
  var i := 0;
  while i < 6000 { s := s + area(aget(xs, 0)); i := i + 1; }
  s;
}
`

// vselectSrc calls pair(a, b), the one method of its name, from one
// site over argument-class tuples that change every 100 calls. Each
// argument is one of three objects chosen on a branch, so under Cust-MM
// the call binds statically to a version chosen from the argument
// classes at run time, and the side(x) sends inside each customized
// version bind statically: every dispatch of the run is a version
// select.
const vselectSrc = `
class Shape { } class Sq isa Shape { } class Ci isa Shape { } class Tr isa Shape { }
method side(x@Sq) { 4; }
method side(x@Ci) { 3; }
method side(x@Tr) { 1; }
method pair(a@Shape, b@Shape) { a.side() + b.side(); }
method main() {
  var q := new Sq(); var c := new Ci(); var t := new Tr();
  var s := 0;
  var i := 0;
  while i < 6000 {
    var a := q; var b := q;
    if i / 100 % 3 == 1 { a := c; } else { if i / 100 % 3 == 2 { a := t; } }
    if i / 300 % 3 == 1 { b := c; } else { if i / 300 % 3 == 2 { b := t; } }
    s := s + pair(a, b);
    i := i + 1;
  }
  s;
}
`

// benchRun measures repeated VM runs of src under cfg on one machine,
// after a first run has filled its caches, and reports the guest steps,
// sends and version selects of one run.
func benchRun(b *testing.B, src string, cfg opt.Config) {
	parsed, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ir.Lower(parsed)
	if err != nil {
		b.Fatal(err)
	}
	c, err := opt.Compile(prog, opt.Options{Config: cfg})
	if err != nil {
		b.Fatal(err)
	}
	in := interp.New(c)
	m, err := vm.New(in)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	steps, sends, vsels := in.Steps(), in.Counters.Dispatches, in.Counters.VersionSelects
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(in.Steps()-steps)/float64(b.N), "steps/op")
	b.ReportMetric(float64(in.Counters.Dispatches-sends)/float64(b.N), "sends/op")
	b.ReportMetric(float64(in.Counters.VersionSelects-vsels)/float64(b.N), "vselects/op")
}

// BenchmarkVMCondChain is the run cost of conditions built from && / ||
// / ! (the VM's jumping-code branches).
func BenchmarkVMCondChain(b *testing.B) { benchRun(b, condChainSrc, opt.CHA) }

// BenchmarkSendMegamorphic is the run cost of a send site that misses
// its full PIC a third of the time (the VM's send miss path).
func BenchmarkSendMegamorphic(b *testing.B) { benchRun(b, megamorphicSrc, opt.Base) }

// BenchmarkVMDispatchLoop is the run cost of a send-free field and
// arithmetic loop (the dispatch loop's own overhead).
func BenchmarkVMDispatchLoop(b *testing.B) { benchRun(b, dispatchLoopSrc, opt.CHA) }

// BenchmarkSendPoly3 is the run cost of a 3-class polymorphic send and
// return (the flattened call sequence).
func BenchmarkSendPoly3(b *testing.B) { benchRun(b, sendPoly3Src, opt.Base) }

// BenchmarkSendMono is the run cost of a monomorphic send and return
// (the front-entry inline-cache hit).
func BenchmarkSendMono(b *testing.B) { benchRun(b, sendMonoSrc, opt.Base) }

// BenchmarkVSelect is the run cost of a statically bound call whose
// version is selected from its argument classes at every call (the
// VM's version-select path).
func BenchmarkVSelect(b *testing.B) { benchRun(b, vselectSrc, opt.CustMM) }

// BenchmarkCompileGen200 is the full bytecode compile of a 200-class
// generated program under CHA: vm.New plus CompileAll over every
// version body the optimizer built, the work a run defers to first use.
func BenchmarkCompileGen200(b *testing.B) {
	g := gen.New(gen.Config{Seed: 1, Classes: 200})
	p, err := driver.LoadNamed(g.Name(), g.Source())
	if err != nil {
		b.Fatal(err)
	}
	c, err := opt.Compile(p.Prog, opt.Options{Config: opt.CHA})
	if err != nil {
		b.Fatal(err)
	}
	var procs int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := vm.New(interp.New(c))
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Module().CompileAll(); err != nil {
			b.Fatal(err)
		}
		procs = len(m.Module().Procs())
	}
	b.ReportMetric(float64(procs), "procs/op")
}
