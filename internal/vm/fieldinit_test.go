package vm_test

import (
	"strings"
	"testing"

	"selspec/internal/driver"
	"selspec/internal/opt"
)

// TestFieldInitializerParity compares the engines on object
// construction: constant and computed field initializers, constructor
// arguments that override initialized fields, and the errors a
// construction raises (a constant initializer that fails its declared
// type, and which of several failures comes first). Value, output,
// error text, counters and steps must all match.
func TestFieldInitializerParity(t *testing.T) {
	const classes = `
var log := 0;
method note(x) { log := log * 10 + x; x; }
class R { field a : Int := 1; field b := "two"; field c : Int := 3; field d := note(4); }
class S isa R { field e : String := "five"; field f : Bool := true; }
class Bad { field a : Int := 1; field b : Int := "no"; field c := note(7); }
class Two { field a : Int; field b : Int := "no"; field c := note(8); }
`
	cases := []struct{ name, body, err string }{
		{"constants and a computed field", `
method main() { var r := new R(); r.a + r.c + r.d + log; }`, ""},
		{"arguments override initialized fields", `
method main() {
  var r := new R(10, "x", 30);
  var s := new S(20);
  print(r.b); print(s.b); print(s.e);
  r.a + r.c + s.a + s.c + r.d + log;
}`, ""},
		{"subclass inherits constants", `
method main() { var s := new S(); print(s.e); if s.f { s.a + s.c; } else { 0; } }`, ""},
		{"constant fails its declared type", `
method main() { new R(); new Bad(); }`, "field Bad.b declared Int cannot hold no"},
		{"argument fails before a failing constant", `
method main() { new Two("bad"); }`, "field Two.a declared Int cannot hold bad"},
		{"argument overrides a failing constant", `
method main() { var b := new Bad(1, 2); b.b + log; }`, ""},
		{"argument fails its declared type", `
method main() { new R("one"); }`, "field R.a declared Int cannot hold one"},
	}
	for _, c := range cases {
		name := c.name
		for _, cfg := range []opt.Config{opt.Base, opt.CHA} {
			run := func(eng driver.Engine) (*driver.Result, error) {
				p, err := driver.Load(classes + c.body)
				if err != nil {
					t.Fatalf("%s: load: %v", name, err)
				}
				return p.RunConfig(driver.ConfigOptions{
					Opt: opt.Options{Config: cfg},
					Run: driver.RunOptions{CaptureOutput: true, Engine: eng},
				})
			}
			tree, te := run(driver.EngineTree)
			vmres, ve := run(driver.EngineVM)
			wantSameError(t, name, te, ve)
			if c.err != "" {
				if te == nil || !strings.Contains(te.Error(), c.err) {
					t.Errorf("%s/%v: error %v, want %q", name, cfg, te, c.err)
				}
				continue
			}
			if te != nil {
				t.Fatalf("%s/%v: %v", name, cfg, te)
			}
			if vmres.Value != tree.Value || vmres.Output != tree.Output {
				t.Errorf("%s/%v: result diverged: vm %q %q, tree %q %q", name, cfg, vmres.Value, vmres.Output, tree.Value, tree.Output)
			}
			if vmres.Counters != tree.Counters || vmres.Steps != tree.Steps {
				t.Errorf("%s/%v: counters diverged:\n  vm:   %+v steps %d\n  tree: %+v steps %d",
					name, cfg, vmres.Counters, vmres.Steps, tree.Counters, tree.Steps)
			}
		}
	}
}
