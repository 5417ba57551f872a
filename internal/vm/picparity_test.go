package vm_test

// The PIC-state parity test: a tree run and a VM run of the same
// program must leave every send site's polymorphic inline cache in the
// same state — the same entries in the same order (the move-to-front
// history), and the same hit and miss counts. The differential suite
// compares counter totals only; this compares each site's cache.

import (
	"fmt"
	"strings"
	"testing"

	"selspec/internal/driver"
	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/opt"
	"selspec/internal/programs"
	"selspec/internal/vm"
)

// poly3ArgSrc sends mix(a, b, c) from one site over four three-class
// tuples, so the site's PIC holds entries wider than two arguments.
const poly3ArgSrc = `
class K { } class A isa K { } class B isa K { }
method mix(a@K, b@K, c@K) { 0; }
method mix(a@A, b@B, c@K) { 1; }
method mix(a@B, b@A, c@A) { 2; }
method mix(a@B, b@B, c@B) { 3; }
method main() {
  var ks := newarray(2);
  aput(ks, 0, new A()); aput(ks, 1, new B());
  var sum := 0;
  var i := 0;
  while i < 400 {
    sum := sum + mix(aget(ks, i % 2), aget(ks, (i / 2) % 2), aget(ks, (i / 3) % 2));
    i := i + 1;
  }
  sum;
}
`

// picStates renders the PIC of every site that dispatched at least
// once: entry order (class tuple -> version) plus hit and miss counts.
func picStates(in *interp.Interp, sites int) []string {
	var out []string
	for id := 0; id < sites; id++ {
		pic := in.SitePIC(id)
		if pic.Len() == 0 && pic.Hits == 0 && pic.Misses == 0 {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "site#%d hits=%d misses=%d", id, pic.Hits, pic.Misses)
		for _, e := range pic.Entries() {
			classes := e.Classes()
			names := make([]string, len(classes))
			for j, c := range classes {
				names[j] = c.Name
			}
			fmt.Fprintf(&b, " [%s -> %v]", strings.Join(names, ","), e.Version)
		}
		out = append(out, b.String())
	}
	return out
}

// runPICs runs c on one engine from a fresh interpreter and returns the
// final per-site PIC states.
func runPICs(t *testing.T, c *opt.Compiled, vmTier bool) []string {
	t.Helper()
	in := interp.New(c)
	in.StepLimit = 500_000_000
	var err error
	if vmTier {
		var m *vm.Machine
		if m, err = vm.New(in); err == nil {
			_, err = m.Run()
		}
	} else {
		_, err = in.Run()
	}
	if err != nil {
		t.Fatalf("vm=%v: %v", vmTier, err)
	}
	return picStates(in, len(c.Prog.Sites))
}

func TestPICStateParity(t *testing.T) {
	type unit struct {
		name, src string
		train     map[string]int64
		cfg       opt.Config
	}
	var units []unit
	for _, name := range programs.Names() {
		b, _ := programs.ByName(name)
		for _, cfg := range []opt.Config{opt.Base, opt.CHA} {
			units = append(units, unit{name, b.Source, b.Train, cfg})
		}
	}
	units = append(units,
		unit{"megamorphic", megamorphicSrc, nil, opt.Base},
		unit{"poly3arg", poly3ArgSrc, nil, opt.Base})

	for _, u := range units {
		u := u
		t.Run(fmt.Sprintf("%s/%v", u.name, u.cfg), func(t *testing.T) {
			t.Parallel()
			p, err := driver.LoadNamed(u.name, u.src)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			c, err := opt.Compile(p.Prog, opt.Options{Config: u.cfg})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			// Training-size input keeps the grid fast.
			for g, v := range u.train {
				c.GlobalInits[c.Prog.GlobalIdx[g]] = &ir.Const{Kind: ir.KInt, Int: v}
			}
			tree := runPICs(t, c, false)
			vmp := runPICs(t, c, true)
			if len(tree) == 0 {
				t.Error("no site dispatched through a PIC")
			}
			if got, want := strings.Join(vmp, "\n"), strings.Join(tree, "\n"); got != want {
				t.Errorf("PIC state diverged:\nvm:\n%s\ntree:\n%s", got, want)
			}
		})
	}
}

// TestWideSendHitsThroughEntry checks that the VM resolves hits on
// three-argument tuples through the PIC entry, as it does for one and
// two: after a VM run of poly3ArgSrc each of its eight wide entries (one
// per class tuple) holds its proc in Payload, and after a tree run none
// does.
func TestWideSendHitsThroughEntry(t *testing.T) {
	p, err := driver.LoadNamed("poly3arg", poly3ArgSrc)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	c, err := opt.Compile(p.Prog, opt.Options{Config: opt.Base})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, vmTier := range []bool{false, true} {
		in := interp.New(c)
		if vmTier {
			m, err := vm.New(in)
			if err != nil {
				t.Fatal(err)
			}
			_, err = m.Run()
		} else {
			_, err = in.Run()
		}
		if err != nil {
			t.Fatalf("vm=%v: %v", vmTier, err)
		}
		wide := 0
		for id := range c.Prog.Sites {
			pic := in.SitePIC(id)
			for _, e := range pic.Entries() {
				if len(e.Classes()) < 3 {
					continue
				}
				wide++
				if (e.Payload != nil) != vmTier {
					t.Errorf("vm=%v: site#%d entry %v has Payload %v", vmTier, id, e.Version, e.Payload)
				}
			}
		}
		if wide != 8 {
			t.Errorf("vm=%v: %d wide entries, want 8", vmTier, wide)
		}
	}
}
