package driver

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"selspec/internal/interp"
	"selspec/internal/obs"
	"selspec/internal/opt"
	"selspec/internal/profile"
)

var updateMegamorphic = flag.Bool("update-megamorphic", false, "rewrite testdata/megamorphic.golden")

// megamorphicProgram sends rel(a, b) from one site over 3 × 4 = 12
// argument-class tuples, in an order that rotates every round: the
// site's 8-entry PIC fills, then sees hits, promotions and misses on
// the 4 tuples it cannot hold. The receivers come out of arrays, so no
// configuration can bind the send statically.
const megamorphicProgram = `
class K { } class A isa K { } class B isa K { } class C isa K { }
class V { } class X isa V { } class Y isa V { } class Z isa V { } class W isa V { }
method rel(a@K, b@V) { 0; }
method rel(a@A, b@X) { 1; }
method rel(a@B, b@V) { 2; }
method rel(a@C, b@Y) { 3; }
method rel(a@A, b@W) { 4; }
var rounds := 40;
method main() {
  var ks := newarray(3);
  aput(ks, 0, new A()); aput(ks, 1, new B()); aput(ks, 2, new C());
  var vs := newarray(4);
  aput(vs, 0, new X()); aput(vs, 1, new Y()); aput(vs, 2, new Z()); aput(vs, 3, new W());
  var sum := 0;
  var r := 0;
  while r < rounds {
    var i := 0;
    while i < 12 {
      sum := sum * 3 % 1000003 + rel(aget(ks, (i + r) % 3), aget(vs, (i * 7 + r) % 4));
      i := i + 1;
    }
    r := r + 1;
  }
  println(sum);
  sum;
}
`

// megamorphicReport runs megamorphicProgram once per config on one
// engine, each run on a freshly loaded program (its own hierarchy and
// lookup caches) with its own registry, and renders every counter the
// dispatch path touches: the interpreter counters, the PIC and GF-cache
// metrics, and (for Selective) the training profile.
func megamorphicReport(t *testing.T, eng Engine) string {
	t.Helper()
	var b strings.Builder
	for _, cfg := range opt.Configs() {
		p := MustLoad(megamorphicProgram)
		reg := obs.NewRegistry()
		cg := profile.NewCallGraph(p.Prog)
		run := RunOptions{CaptureOutput: true, Engine: eng, Metrics: reg}
		train := run
		train.Profile = cg
		train.Mechanism = interp.MechPIC
		c, _, err := p.Build(BuildOptions{Opt: opt.Options{Config: cfg}, Train: train})
		if err != nil {
			t.Fatalf("%v/%v: build: %v", cfg, eng, err)
		}
		res, err := Execute(c, run)
		if err != nil {
			t.Fatalf("%v/%v: run: %v", cfg, eng, err)
		}
		if res.Engine != eng {
			t.Fatalf("%v/%v: ran on %v", cfg, eng, res.Engine)
		}
		snap := reg.Snapshot().Counters
		fmt.Fprintf(&b, "%v: value=%s output=%q steps=%d invoked=%d\n", cfg, res.Value, res.Output, res.Steps, res.Invoked)
		fmt.Fprintf(&b, "  counters %+v\n", res.Counters)
		for _, name := range []string{
			"selspec_dispatch_pic_hits_total",
			"selspec_dispatch_pic_misses_total",
			"selspec_dispatch_pic_promotions_total",
			"selspec_dispatch_gf_cache_hits_total",
			"selspec_dispatch_gf_cache_misses_total",
		} {
			fmt.Fprintf(&b, "  %s %d\n", name, snap[name])
		}
		if cfg == opt.Selective {
			js, err := cg.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "  training profile %s\n", js)
		}
	}
	return b.String()
}

// TestMegamorphicSiteMatchesGolden pins everything a megamorphic send
// site makes observable — counters, PIC hits/misses/promotions,
// GF-cache hits/misses and the Selective training profile — to a
// golden file, on both engines under every config. Repeated misses at a
// full PIC may be served from a per-site memo, but each must still
// count and cost exactly what a full lookup does.
func TestMegamorphicSiteMatchesGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tree := megamorphicReport(t, EngineTree)
	if *updateMegamorphic {
		if err := os.WriteFile("testdata/megamorphic.golden", []byte(tree), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/megamorphic.golden")
	if err != nil {
		t.Fatal(err)
	}
	if tree != string(want) {
		t.Errorf("tree engine diverged from testdata/megamorphic.golden:\n%s", tree)
	}
	if vmr := megamorphicReport(t, EngineVM); vmr != string(want) {
		t.Errorf("vm engine diverged from testdata/megamorphic.golden:\n%s", vmr)
	}
}
