package vm_test

import (
	"testing"

	"selspec/internal/driver"
	"selspec/internal/interp"
	"selspec/internal/opt"
)

// arrayCases exercise both representations of a guest array: integer
// elements kept unboxed until a store of anything else moves the array
// to boxed values. want is the value and output both tiers must give
// ("" for cases that must fail with the same error text).
var arrayCases = []struct{ name, src, want string }{
	{"never stored", `
method main() {
  var xs := newarray(3);
  println(aget(xs, 1));
  aput(xs, 0, 5);
  println(aget(xs, 2));
  aget(xs, 0);
}`, "5\n--\nnil\nnil\n"},
	{"ints then object mid-loop", `
class P { field n : Int := 0; }
class H { field a; }
method main() {
  var h := new H(newarray(8));
  var i := 0;
  while i < 8 {
    if i == 5 { aput(h.a, i, new P(i)); } else { aput(h.a, i, i * 3); }
    i := i + 1;
  }
  var s := 0;
  i := 0;
  while i < 8 {
    if i != 5 { s := s + aget(h.a, i); }
    i := i + 1;
  }
  println(str(h.a));
  s + aget(h.a, 5).n;
}`, "74\n--\n[0, 3, 6, 9, 12, ..., 18, 21]\n"},
	{"min int and nil", `
method main() {
  var m := -9223372036854775807 - 1;
  var xs := newarray(3);
  aput(xs, 0, 7);
  aput(xs, 1, m);
  println(aget(xs, 1) == m);
  var ys := newarray(3);
  aput(ys, 0, 1);
  aput(ys, 1, nil);
  aput(ys, 2, 2);
  println(str(ys));
  println(aget(ys, 1) == nil);
  aget(xs, 0) + aget(ys, 2);
}`, "9\n--\ntrue\n[1, nil, 2]\ntrue\n"},
	{"alen", `
method main() {
  var xs := newarray(4);
  var ys := newarray(5);
  var zs := newarray(6);
  aput(ys, 0, 1);
  aput(zs, 0, "s");
  alen(xs) * 100 + alen(ys) * 10 + alen(zs);
}`, "456\n--\n"},
	{"str", `
method main() {
  var xs := newarray(3);
  aput(xs, 0, 1); aput(xs, 1, 2); aput(xs, 2, 3);
  var ys := newarray(3);
  aput(ys, 0, 1); aput(ys, 1, "b"); aput(ys, 2, true);
  println(str(xs));
  println(str(ys));
  println(str(newarray(0)));
  str(newarray(2));
}`, "[nil, nil]\n--\n[1, 2, 3]\n[1, b, true]\n[]\n"},
	{"aget oob ints", `method main() { var xs := newarray(2); aput(xs, 0, 1); aget(xs, 2); }`, ""},
	{"aget negative ints", `method main() { var xs := newarray(2); aput(xs, 0, 1); aget(xs, -1); }`, ""},
	{"aput oob ints", `method main() { var xs := newarray(2); aput(xs, 0, 1); aput(xs, 2, 1); }`, ""},
	{"aget oob boxed", `method main() { var xs := newarray(2); aput(xs, 0, "a"); aget(xs, 2); }`, ""},
	{"aput oob boxed", `method main() { var xs := newarray(2); aput(xs, 0, "a"); aput(xs, -1, "b"); }`, ""},
	{"aput oob never stored", `method main() { var xs := newarray(2); aput(xs, 3, nil); }`, ""},
}

// TestArrayRepresentationParity runs every array case under both tiers
// with each dispatch mechanism and under Base and CHA: value, output,
// counters, steps and error text must match, and the value and output
// must be the expected ones.
func TestArrayRepresentationParity(t *testing.T) {
	for _, c := range arrayCases {
		for _, mech := range []string{"PIC", "Global", "Tables"} {
			m, err := interp.ParseMechanism(mech)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []opt.Config{opt.Base, opt.CHA} {
				run := func(eng driver.Engine) (*driver.Result, error) {
					p, err := driver.Load(c.src)
					if err != nil {
						t.Fatalf("%s: load: %v", c.name, err)
					}
					return p.RunConfig(driver.ConfigOptions{
						Opt: opt.Options{Config: cfg},
						Run: driver.RunOptions{CaptureOutput: true, Mechanism: m, Engine: eng},
					})
				}
				tree, te := run(driver.EngineTree)
				vmres, ve := run(driver.EngineVM)
				label := c.name + "/" + mech + "/" + cfg.String()
				wantSameError(t, label, te, ve)
				if c.want == "" {
					if te == nil {
						t.Errorf("%s: want a runtime error", label)
					}
					continue
				}
				if te != nil || ve != nil {
					continue
				}
				if got := tree.Value + "\n--\n" + tree.Output; got != c.want {
					t.Errorf("%s: tree gives %q, want %q", label, got, c.want)
				}
				if vmres.Value != tree.Value || vmres.Output != tree.Output {
					t.Errorf("%s: vm gives %q %q, tree %q %q", label, vmres.Value, vmres.Output, tree.Value, tree.Output)
				}
				if vmres.Counters != tree.Counters || vmres.Steps != tree.Steps {
					t.Errorf("%s: counters diverged:\n  vm:   %+v %d\n  tree: %+v %d", label, vmres.Counters, vmres.Steps, tree.Counters, tree.Steps)
				}
			}
		}
	}
}
