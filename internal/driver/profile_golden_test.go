package driver_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"selspec/internal/driver"
	"selspec/internal/gen"
	"selspec/internal/interp"
	"selspec/internal/profile"
	"selspec/internal/programs"
)

var updateProfiles = flag.Bool("update-profiles", false, "rewrite testdata/profiles.golden")

// profileDigest renders a recorded call graph as its arc count, total
// weight and the sha256 of its canonical Wire JSON (arcs and entry
// tuples).
func profileDigest(t *testing.T, p *driver.Pipeline, ro driver.RunOptions) (string, error) {
	t.Helper()
	cg := profile.NewCallGraph(p.Prog)
	ro.Profile = cg
	_, err := p.Profile(ro)
	js, jerr := cg.Wire().Marshal()
	if jerr != nil {
		t.Fatal(jerr)
	}
	return fmt.Sprintf("arcs=%d weight=%d sha256=%x", cg.Len(), cg.TotalWeight(), sha256.Sum256(js)), err
}

// partialProfileSrc dispatches area over three receiver classes, then
// either divides by zero (mode 0) or recurses without bound (mode 1).
const partialProfileSrc = `
var mode := 0;
class Shape { } class Sq isa Shape { } class Ci isa Shape { } class Tri isa Shape { }
method area(s@Shape) { 1; }
method area(s@Sq) { 2; }
method area(s@Ci) { 3; }
method pick(i) {
  var s := nil;
  if i % 3 == 0 { s := new Sq(); } else { if i % 3 == 1 { s := new Ci(); } else { s := new Tri(); } }
  s;
}
method down(s@Shape, n) { down(pick(n), n + 1) + area(s); }
method main() {
  var sum := 0;
  var i := 0;
  while i < 100 {
    sum := sum + area(pick(i));
    if i == 57 {
      if mode == 0 { sum := sum / (i - 57); } else { sum := sum + down(pick(i), 0); }
    }
    i := i + 1;
  }
  sum;
}
`

// TestProfilesMatchGolden pins the call graphs profiled runs record, on
// both engines under every dispatch mechanism:
//   - the training profile of the four paper programs and of five
//     200-class generated programs, which must also be the same in
//     every cell;
//   - the partial profile a run leaves when it stops early: at a
//     runtime error, a depth-limit trip, a step-limit trip and a
//     cancelled context. Every exit path must keep what the run
//     recorded before it stopped.
func TestProfilesMatchGolden(t *testing.T) {
	type unit struct {
		name string
		p    *driver.Pipeline
		ro   driver.RunOptions
	}
	var units []unit
	benches := programs.All()
	for seed := uint64(1); seed <= 5; seed++ {
		benches = append(benches, gen.New(gen.Config{Seed: seed, Classes: 200}).Benchmark())
	}
	for _, b := range benches {
		p, err := driver.LoadNamed(b.Name, b.Source)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, unit{b.Name + "/train", p, driver.RunOptions{Overrides: b.Train, StepLimit: 2_000_000_000}})
	}
	partial, err := driver.LoadNamed("partial", partialProfileSrc)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	tc, _ := programs.ByName("Typechecker")
	cp, _ := programs.ByName("Compiler")
	tcp, err := driver.LoadNamed(tc.Name, tc.Source)
	if err != nil {
		t.Fatal(err)
	}
	cpp, err := driver.LoadNamed(cp.Name, cp.Source)
	if err != nil {
		t.Fatal(err)
	}
	units = append(units,
		unit{"partial/runtime-error", partial, driver.RunOptions{}},
		unit{"partial/depth-limit", partial, driver.RunOptions{Overrides: map[string]int64{"mode": 1}, DepthLimit: 40}},
		unit{"Typechecker/step-limit", tcp, driver.RunOptions{Overrides: tc.Train, StepLimit: 30_000}},
		unit{"Compiler/cancelled", cpp, driver.RunOptions{Overrides: cp.Train, Context: cancelled}})

	var b strings.Builder
	for _, u := range units {
		var ref, refCell string
		for _, eng := range []driver.Engine{driver.EngineVM, driver.EngineTree} {
			for _, name := range interp.MechanismNames() {
				mech, err := interp.ParseMechanism(name)
				if err != nil {
					t.Fatal(err)
				}
				ro := u.ro
				ro.Engine, ro.Mechanism = eng, mech
				got, err := profileDigest(t, u.p, ro)
				if err != nil {
					got += " error: " + err.Error()
				}
				cell := eng.String() + "/" + name
				if ref == "" {
					ref, refCell = got, cell
					continue
				}
				if got != ref {
					t.Errorf("%s: profile under %s differs from %s:\n%s\n%s", u.name, cell, refCell, got, ref)
				}
			}
		}
		fmt.Fprintf(&b, "%s %s\n", u.name, ref)
	}
	if *updateProfiles {
		if err := os.WriteFile("testdata/profiles.golden", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/profiles.golden")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("profiles diverged from testdata/profiles.golden:\n%s", b.String())
	}
}

// TestWireTupleOrderCanonical: a call graph's Wire is already in the
// order (*Wire).Sort gives it, also once class IDs reach 256, so a
// profile serializes the same before and after an export sorts it.
func TestWireTupleOrderCanonical(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three 600-class generated programs")
	}
	for seed := uint64(1); seed <= 3; seed++ {
		b := gen.New(gen.Config{Seed: seed, Classes: 600}).Benchmark()
		p, err := driver.LoadNamed(b.Name, b.Source)
		if err != nil {
			t.Fatal(err)
		}
		cg, err := p.Profile(driver.RunOptions{Overrides: b.Train})
		if err != nil {
			t.Fatal(err)
		}
		w := cg.Wire()
		built, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		w.Sort()
		sorted, _ := json.Marshal(w)
		if !bytes.Equal(built, sorted) {
			t.Errorf("%s: Wire JSON changes under Sort (%d vs %d bytes)", b.Name, len(built), len(sorted))
		}
	}
}
