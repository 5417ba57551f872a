package main

import (
	"fmt"
	"testing"

	"selspec/internal/dispatch"
	"selspec/internal/driver"
	"selspec/internal/gen"
	"selspec/internal/hier"
	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/opt"
	"selspec/internal/pipeline"
	"selspec/internal/profile"
	"selspec/internal/programs"
	"selspec/internal/vm"
)

// probeSrc gives the probes a two-argument multi-method over four
// classes and one send site of it.
const probeSrc = `
class A
class B isa A
class C isa A
class D isa B
method mm(x@A, y@A) { 1; }
method mm(x@B, y@B) { 2; }
method mm(x@A, y@C) { 3; }
method mm(x@B, y@C) { 4; }
method call(x, y) { mm(x, y); }
method main() { call(new D(), new C()); }
`

// probeSink keeps probed results alive so the compiler cannot drop the
// calls.
var probeSink any

// runProbes times single operations of the layers under the service
// with testing.Benchmark, on public functions only.
func runProbes() (map[string]float64, error) {
	lp, err := driver.LoadNamed("probe", probeSrc)
	if err != nil {
		return nil, err
	}
	h := lp.Prog.H
	var cs []*hier.Class
	for _, n := range []string{"A", "B", "C", "D"} {
		c, _ := h.Class(n)
		cs = append(cs, c)
	}
	g, _ := h.GF("mm", 2)
	var site *ir.CallSite
	for _, s := range lp.Prog.Sites {
		if s.GF == g {
			site = s
		}
	}
	if g == nil || site == nil {
		return nil, fmt.Errorf("probe program has no mm/2 send")
	}
	tuples := [][]*hier.Class{{cs[0], cs[0]}, {cs[1], cs[1]}, {cs[0], cs[2]}, {cs[3], cs[2]}}

	richards, err := compileBase(programs.Richards().Name, programs.Richards().Source)
	if err != nil {
		return nil, err
	}
	genProg := gen.New(gen.Config{Seed: 1, Classes: genClasses})
	generated, err := compileBase(genProg.Name(), genProg.Source())
	if err != nil {
		return nil, err
	}

	for _, c := range []*opt.Compiled{richards, generated} {
		if _, err := vm.New(interp.New(c)); err != nil {
			return nil, err
		}
	}

	out := map[string]float64{}
	out["hier.lookup_ns"], _ = bench(func(b *testing.B) {
		for _, t := range tuples {
			h.Lookup(g, t...)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			probeSink, _ = h.Lookup(g, tuples[i%len(tuples)]...)
		}
	})
	// Cycling through four tuples makes every lookup a hit behind the
	// front entry, which then moves to the front.
	out["dispatch.pic_lookup_ns"], _ = bench(func(b *testing.B) {
		p := dispatch.NewPIC(len(tuples))
		for _, t := range tuples {
			p.Add(t, dispatch.Target{})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			probeSink, _ = p.Lookup(tuples[i%len(tuples)])
		}
	})
	out["profile.record_ns"], _ = bench(func(b *testing.B) {
		cg := profile.NewCallGraph(lp.Prog)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cg.Record(site, g.Methods[i%len(g.Methods)], 1)
		}
		probeSink = cg
	})
	out["profile.record_entry_ns"], out["profile.record_entry_allocs"] = bench(func(b *testing.B) {
		cg := profile.NewCallGraph(lp.Prog)
		m := g.Methods[0]
		cg.RecordEntry(m, tuples[0])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cg.RecordEntry(m, tuples[0])
		}
		probeSink = cg
	})
	ns, _ := bench(vmNew(richards))
	out["vm.compile_us"] = ns / 1e3
	ns, _ = bench(vmNew(generated))
	out["vm.compile_gen_us"] = ns / 1e3
	return out, nil
}

// bench runs f under testing.Benchmark and returns its time and heap
// allocations per operation.
func bench(f func(*testing.B)) (nsPerOp, allocsPerOp float64) {
	r := testing.Benchmark(f)
	n := float64(max(r.N, 1))
	return float64(r.T.Nanoseconds()) / n, float64(r.MemAllocs) / n
}

// vmNew benchmarks bytecode compilation of c.
func vmNew(c *opt.Compiled) func(*testing.B) {
	return func(b *testing.B) {
		in := interp.New(c)
		for i := 0; i < b.N; i++ {
			probeSink, _ = vm.New(in)
		}
	}
}

// compileBase loads source and compiles it under Base.
func compileBase(name, src string) (*opt.Compiled, error) {
	lp, err := driver.LoadNamed(name, src)
	if err != nil {
		return nil, err
	}
	return pipeline.Compile(name, lp.Prog, opt.Options{Config: opt.Base})
}
