package driver

import (
	"fmt"
	"strings"
	"testing"

	"selspec/internal/obs"
	"selspec/internal/opt"
	"selspec/internal/programs"
)

// TestDifferentialAllProgramsAllConfigs is the end-to-end differential
// golden test: every embedded program must produce byte-identical
// results — final value AND captured print output — under every
// optimizing configuration, because specialization is a pure
// performance transformation. Any divergence means a specialized
// version computed something different from the method it replaced.
//
// Training-size inputs keep the full programs × configs grid fast while
// still exercising every dispatch mechanism and specialized version.
func TestDifferentialAllProgramsAllConfigs(t *testing.T) {
	for _, b := range programs.Registry() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p, err := LoadNamed(b.Name, b.Source)
			if err != nil {
				t.Fatalf("load %s: %v", b.Name, err)
			}
			run := func(cfg opt.Config) (string, string) {
				t.Helper()
				res, err := p.RunConfig(ConfigOptions{
					Opt:   opt.Options{Config: cfg},
					Train: b.Train,
					Test:  b.Train, // training-size measurement input
					Run:   RunOptions{CaptureOutput: true, StepLimit: 500_000_000},
				})
				if err != nil {
					t.Fatalf("%s under %v: %v", b.Name, cfg, err)
				}
				return res.Value, res.Output
			}

			cfgs := opt.Configs()
			baseVal, baseOut := run(cfgs[0])
			if cfgs[0] != opt.Base {
				t.Fatalf("config order changed: first config is %v, want Base", cfgs[0])
			}
			for _, cfg := range cfgs[1:] {
				val, out := run(cfg)
				if val != baseVal {
					t.Errorf("%s: value diverged under %v: got %q, Base %q", b.Name, cfg, val, baseVal)
				}
				if out != baseOut {
					t.Errorf("%s: output diverged under %v (%d bytes vs Base %d bytes)",
						b.Name, cfg, len(out), len(baseOut))
				}
			}
		})
	}
}

// TestDifferentialWithMetricsAttached reruns one program's grid with a
// live registry attached, proving observation does not perturb results
// (the counters only watch) and that the per-run flush accumulates.
func TestDifferentialWithMetricsAttached(t *testing.T) {
	b, ok := programs.ByName("Sets")
	if !ok {
		t.Fatal("Sets program missing from registry")
	}
	p, err := LoadNamed(b.Name, b.Source)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var vals []string
	for _, cfg := range opt.Configs() {
		res, err := p.RunConfig(ConfigOptions{
			Opt:   opt.Options{Config: cfg},
			Train: b.Train,
			Test:  b.Train,
			Run:   RunOptions{CaptureOutput: true, Metrics: reg},
		})
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		vals = append(vals, res.Value+"\n"+res.Output)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[0] {
			t.Errorf("config %v diverged from Base with metrics attached", opt.Configs()[i])
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["selspec_interp_sends_total"] == 0 {
		t.Error("interp send counter never flushed despite instrumented runs")
	}
	if snap.Counters["selspec_interp_steps_total"] == 0 {
		t.Error("interp step counter never flushed despite instrumented runs")
	}
}

// topLevelProgram puts short-circuit operators, if-expressions (with a
// constant and a non-constant condition) and an immediately called
// closure in global and field initializers: top-level code the
// optimizer analyzes without a frame.
const topLevelProgram = `
var n := 3;
var g1 := 1 < 2 && 3 < 4;
var g2 := n > 5 || n < 4;
var g3 := if 1 > 2 { "yes"; } else { "no"; };
var g4 := if n < 5 { n * 10; } else { 0; };
var g5 := (fn(x) { x + 1; })(n);
class P { field f := 1 < 2 && 2 < 3; field h := n > 2 || n < 0; field k := if n > 1 { 7; } else { 8; }; }
method main() { var p := new P(); println(g1); println(g2); println(g3); println(g4); println(g5); println(p.f); println(p.h); println(p.k); 0; }
`

// TestTopLevelInitializersAllConfigs: top-level initializers compile
// and run under every configuration on both engines, printing what the
// tree interpreter prints at Base. Streamed to RunOptions.Out, the
// measured run's output is the same bytes CaptureOutput returns.
func TestTopLevelInitializersAllConfigs(t *testing.T) {
	const want = "true\ntrue\nno\n30\n4\ntrue\ntrue\n7\n"
	p := MustLoad(topLevelProgram)
	for _, eng := range []Engine{EngineTree, EngineVM} {
		for _, cfg := range opt.Configs() {
			res, err := p.RunConfig(ConfigOptions{
				Opt: opt.Options{Config: cfg},
				Run: RunOptions{CaptureOutput: true, Engine: eng},
			})
			if err != nil {
				t.Fatalf("%v/%v: %v", cfg, eng, err)
			}
			if res.Output != want || res.Value != "0" {
				t.Errorf("%v/%v: value %q output %q, want 0 and %q", cfg, eng, res.Value, res.Output, want)
			}
			var out strings.Builder
			streamed, err := p.RunConfig(ConfigOptions{
				Opt: opt.Options{Config: cfg},
				Run: RunOptions{Out: &out, Engine: eng},
			})
			if err != nil {
				t.Fatalf("%v/%v streamed: %v", cfg, eng, err)
			}
			if out.String() != res.Output || streamed.Output != "" {
				t.Errorf("%v/%v: Out received %q and Result.Output %q, want %q and empty", cfg, eng, out.String(), streamed.Output, res.Output)
			}
		}
	}
}

// dynFieldPrefix reaches field x through sites whose receiver comes out
// of an array, so no config can resolve the slot at compile time: A
// keeps x at slot 0, B at slot 1, and C has no x. Each dynamic field
// site sees A and B alternately and must re-resolve on every change of
// class.
const dynFieldPrefix = `
class A { field x := 1; }
class B { field pad := 0; field x := 2; }
class C { field y := 3; }
method bumpAll(xs, n) {
  var i := 0;
  var sum := 0;
  while i < n {
    var o := aget(xs, i);
    o.x := o.x + 10;
    sum := sum + o.x;
    i := i + 1;
  }
  sum;
}
method setAll(xs, n) {
  var i := 0;
  while i < n { var o := aget(xs, i); o.x := i; i := i + 1; }
  n;
}
method objs() {
  var xs := newarray(5);
  aput(xs, 0, new A()); aput(xs, 1, new B()); aput(xs, 2, new A());
  aput(xs, 3, new B()); aput(xs, 4, new C());
  xs;
}
`

// TestDynamicFieldSitesAllConfigs runs dynamic field reads and writes
// over receivers that store the field at different slots, then over one
// that lacks it, on both engines under every config. The VM caches one
// (class → slot) pair per site; the results, the counters and the
// "no field" errors must match the tree tier's by-name lookups.
func TestDynamicFieldSitesAllConfigs(t *testing.T) {
	cases := []struct {
		name, main, out, err string
	}{
		{"reads and writes", `method main() { var xs := objs(); println(bumpAll(xs, 4)); println(bumpAll(xs, 4)); setAll(xs, 4); bumpAll(xs, 4); }`,
			"46\n86\n", ""},
		{"read of a missing field", `method main() { var xs := objs(); bumpAll(xs, 4); bumpAll(xs, 5); }`,
			"", `class C has no field "x"`},
		{"write of a missing field", `method main() { var xs := objs(); setAll(xs, 4); setAll(xs, 5); }`,
			"", `class C has no field "x"`},
	}
	for _, tc := range cases {
		p := MustLoad(dynFieldPrefix + tc.main)
		for _, cfg := range opt.Configs() {
			var tree *Result
			for _, eng := range []Engine{EngineTree, EngineVM} {
				res, err := p.RunConfig(ConfigOptions{
					Opt: opt.Options{Config: cfg},
					Run: RunOptions{CaptureOutput: true, Engine: eng, Verify: true},
				})
				where := fmt.Sprintf("%s %v/%v", tc.name, cfg, eng)
				if tc.err != "" {
					if err == nil || !strings.Contains(err.Error(), tc.err) {
						t.Errorf("%s: error %v, want %q", where, err, tc.err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if res.Engine != eng {
					t.Fatalf("%s: ran on %v", where, res.Engine)
				}
				if res.Value != "46" || res.Output != tc.out {
					t.Errorf("%s: value %q output %q, want 46 and %q", where, res.Value, res.Output, tc.out)
				}
				if tree == nil {
					tree = res
				} else if res.Counters != tree.Counters {
					t.Errorf("%s: counters %+v, tree %+v", where, res.Counters, tree.Counters)
				}
			}
		}
	}
}
