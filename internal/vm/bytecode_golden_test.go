package vm_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"selspec/internal/driver"
	"selspec/internal/gen"
	"selspec/internal/interp"
	"selspec/internal/opt"
	"selspec/internal/programs"
	"selspec/internal/vm"
)

var updateBytecode = flag.Bool("update-bytecode", false, "rewrite testdata/bytecode.golden")

const bytecodeGolden = "testdata/bytecode.golden"

// procDump renders everything the compiler decides about one proc:
// the disassembly plus every raw instruction and operand pool, with
// pointers replaced by stable names and IDs.
func procDump(b *strings.Builder, pi vm.ProcInfo) {
	p := pi.Proc
	b.WriteString(p.Disasm())
	fmt.Fprintf(b, "code %v\n", p.Code)
	for _, k := range p.Consts {
		fmt.Fprintf(b, "const %d %s\n", k.K, k)
	}
	fmt.Fprintf(b, "names %q\n", p.Names)
	for _, s := range p.Sites {
		fmt.Fprintf(b, "site %d\n", s.ID)
	}
	for _, s := range p.Statics {
		fmt.Fprintf(b, "static %d %s\n", s.Site.ID, s.Target)
	}
	for _, s := range p.VSels {
		fmt.Fprintf(b, "vsel %d %s\n", s.Site.ID, s.Method.Name())
	}
	fmt.Fprintf(b, "fieldops %v fieldsites %d\n", p.FieldOps, len(p.FieldSites))
	for _, n := range p.News {
		fmt.Fprintf(b, "new %s\n", n.Class.Name)
	}
	fmt.Fprintf(b, "closures %d poss %v\n", len(p.Closures), p.Poss)
}

// moduleDigest hashes every proc of m after CompileAll, in Procs order.
func moduleDigest(t *testing.T, m *vm.Machine) (int, string) {
	t.Helper()
	if err := m.Module().CompileAll(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	procs := m.Module().Procs()
	for _, pi := range procs {
		procDump(&b, pi)
	}
	return len(procs), fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// TestBytecodeGolden pins the bytecode of every proc the compiler emits
// for the four paper programs under every configuration and for five
// 200-class generated programs under gen-unique's configurations. The
// digests were recorded before the effect analysis became one linear
// pass per body and before version bodies compiled on demand; any
// change to emitted code, operand pools or the proc set shows here.
// Regenerate with -update-bytecode only for an intended codegen change.
func TestBytecodeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and trains nine programs")
	}
	type cell struct {
		b    programs.Benchmark
		cfgs []opt.Config
	}
	var cells []cell
	for _, b := range programs.All() {
		cells = append(cells, cell{b, []opt.Config{opt.Base, opt.Cust, opt.CustMM, opt.CHA, opt.Selective}})
	}
	for seed := uint64(1); seed <= 5; seed++ {
		g := gen.New(gen.Config{Seed: seed, Classes: 200})
		cells = append(cells, cell{g.Benchmark(), []opt.Config{opt.CHA, opt.CustMM, opt.Selective}})
	}
	var out strings.Builder
	for _, c := range cells {
		p, err := driver.LoadNamed(c.b.Name, c.b.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range c.cfgs {
			comp, _, err := p.Build(driver.BuildOptions{
				Opt:   opt.Options{Config: cfg},
				Train: driver.RunOptions{Overrides: c.b.Train, StepLimit: 2_000_000_000},
			})
			if err == nil {
				err = comp.CompileAll()
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", c.b.Name, cfg, err)
			}
			m, err := vm.New(interp.New(comp))
			if err != nil {
				t.Fatalf("%s/%s: %v", c.b.Name, cfg, err)
			}
			n, sum := moduleDigest(t, m)
			fmt.Fprintf(&out, "%s %s procs=%d sha256=%s\n", c.b.Name, cfg, n, sum)
		}
	}
	if *updateBytecode {
		if err := os.WriteFile(bytecodeGolden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(bytecodeGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("bytecode changed (regenerate with -update-bytecode only for an intended codegen change):\n got:\n%s\nwant:\n%s", got, want)
	}
}
