package opt_test

import (
	"strings"
	"testing"

	"selspec/internal/driver"
	"selspec/internal/gen"
	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/opt"
	"selspec/internal/programs"
	"selspec/internal/vm"
)

// sourceDump renders every lowered body the optimizer reads: each
// method's source body, each global initializer and each field
// initializer, in declaration order.
func sourceDump(p *ir.Program) string {
	var b strings.Builder
	for _, m := range p.H.Methods() {
		if body := p.Bodies[m]; body != nil {
			b.WriteString(m.Name() + "\n" + ir.Dump(body.Code))
		}
	}
	for _, g := range p.Globals {
		b.WriteString("global " + g.Name + "\n" + ir.Dump(g.Init))
	}
	for _, c := range p.H.Classes() {
		for i, init := range p.FieldInits[c] {
			if init != nil {
				b.WriteString("field " + c.Name + "." + c.Fields[i].Name + "\n" + ir.Dump(init))
			}
		}
	}
	return b.String()
}

// TestSourceBodiesImmutable: the optimizer reads source bodies and
// never writes them. Every body CompileAll builds under all five
// configurations, and every body a Cust-MM run builds on demand, leave
// the lowered program exactly as lowering made it.
func TestSourceBodiesImmutable(t *testing.T) {
	benches := []programs.Benchmark{programs.Richards(), programs.Sets()}
	for seed := uint64(1); seed <= 3; seed++ {
		benches = append(benches, gen.New(gen.Config{Seed: seed, Classes: 200}).Benchmark())
	}
	for _, b := range benches {
		p, err := driver.LoadNamed(b.Name, b.Source)
		if err != nil {
			t.Fatal(err)
		}
		before := sourceDump(p.Prog)
		for _, cfg := range opt.Configs() {
			comp, _, err := p.Build(driver.BuildOptions{
				Opt:   opt.Options{Config: cfg},
				Train: driver.RunOptions{Overrides: b.Train},
			})
			if err == nil {
				err = comp.CompileAll()
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, cfg, err)
			}
		}
		comp, err := opt.Compile(p.Prog, opt.Options{Config: opt.CustMM})
		if err != nil {
			t.Fatal(err)
		}
		for g, v := range b.Test {
			comp.GlobalInits[comp.Prog.GlobalIdx[g]] = &ir.Const{Kind: ir.KInt, Int: v}
		}
		m, err := vm.New(interp.New(comp))
		if err == nil {
			_, err = m.Run()
		}
		if err != nil {
			t.Fatalf("%s/Cust-MM run: %v", b.Name, err)
		}
		if comp.Stats().CompiledBodies == 0 {
			t.Fatalf("%s: the Cust-MM run built no body", b.Name)
		}
		if after := sourceDump(p.Prog); after != before {
			t.Errorf("%s: compiling changed the lowered program", b.Name)
		}
	}
}

// closureCodes collects the ClosureCode of every closure literal in n.
func closureCodes(n ir.Node, into map[*ir.ClosureCode]int) {
	ir.Walk(n, func(n ir.Node) bool {
		if mc, ok := n.(*ir.MakeClosure); ok {
			into[mc.Fn]++
		}
		return true
	})
}

// TestBuiltClosuresOwnTheirCode: every closure literal of a built body
// has a ClosureCode of its own, shared with no source body and no other
// literal, because the VM keys each closure's proc by that pointer.
func TestBuiltClosuresOwnTheirCode(t *testing.T) {
	b := programs.Sets()
	p, err := driver.LoadNamed(b.Name, b.Source)
	if err != nil {
		t.Fatal(err)
	}
	source := map[*ir.ClosureCode]int{}
	for _, body := range p.Prog.Bodies {
		closureCodes(body.Code, source)
	}
	for _, cfg := range []opt.Config{opt.Base, opt.Cust, opt.CHA} {
		comp, err := opt.Compile(p.Prog, opt.Options{Config: cfg})
		if err == nil {
			err = comp.CompileAll()
		}
		if err != nil {
			t.Fatal(err)
		}
		built := map[*ir.ClosureCode]int{}
		for _, m := range p.Prog.H.Methods() {
			for _, v := range comp.VersionsOf(m) {
				closureCodes(v.Body, built)
			}
		}
		if len(built) == 0 {
			t.Fatalf("%v: no closure literal left in any built body", cfg)
		}
		for code, n := range built {
			if source[code] > 0 || n > 1 {
				t.Errorf("%v: a ClosureCode is shared (%d source uses, %d built)", cfg, source[code], n)
			}
		}
	}
}
