package opt

import (
	"runtime"
	"testing"

	"selspec/internal/ir"
	"selspec/internal/lang"
	"selspec/internal/programs"
)

// TestCompileDeterminism: compiling the same program twice under the
// same configuration must produce byte-identical IR for every version
// (binding decisions, inlining order, slot assignment). Profiles,
// reports and EXPERIMENTS.md all rely on this.
func TestCompileDeterminism(t *testing.T) {
	src := programs.Sets().Source
	for _, cfg := range []Config{Base, Cust, CHA} {
		dump := func() map[string]string {
			prog, err := ir.Lower(lang.MustParse(src))
			if err != nil {
				t.Fatal(err)
			}
			c, err := Compile(prog, Options{Config: cfg})
			if err == nil {
				err = c.CompileAll()
			}
			if err != nil {
				t.Fatal(err)
			}
			out := map[string]string{}
			for _, m := range prog.H.Methods() {
				for _, v := range c.VersionsOf(m) {
					out[v.String()] = ir.Dump(v.Body)
				}
			}
			return out
		}
		a, b := dump(), dump()
		if len(a) != len(b) {
			t.Fatalf("%v: version counts differ: %d vs %d", cfg, len(a), len(b))
		}
		for k, va := range a {
			if vb, ok := b[k]; !ok || va != vb {
				t.Fatalf("%v: version %s differs between identical compiles", cfg, k)
			}
		}
	}
}

// TestParallelCompileDeterminism: the worker-pool eager compile must
// produce the same versions, bodies and statistics as a single-worker
// compile. GOMAXPROCS is forced up because the CI box may have 1 CPU,
// where compileAll degrades to the serial path.
func TestParallelCompileDeterminism(t *testing.T) {
	src := programs.Richards().Source
	dump := func() (map[string]string, Stats) {
		prog, err := ir.Lower(lang.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(prog, Options{Config: CHA})
		if err == nil {
			err = c.CompileAll()
		}
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, m := range prog.H.Methods() {
			for _, v := range c.VersionsOf(m) {
				out[v.String()] = ir.Dump(v.Body)
			}
		}
		return out, c.Stats()
	}

	prev := runtime.GOMAXPROCS(1)
	serialVersions, serialStats := dump()
	runtime.GOMAXPROCS(4)
	parVersions, parStats := dump()
	runtime.GOMAXPROCS(prev)

	if serialStats != parStats {
		t.Errorf("stats differ:\nserial   %+v\nparallel %+v", serialStats, parStats)
	}
	if len(serialVersions) != len(parVersions) {
		t.Fatalf("version counts differ: %d vs %d", len(serialVersions), len(parVersions))
	}
	for k, vs := range serialVersions {
		if vp, ok := parVersions[k]; !ok || vs != vp {
			t.Errorf("version %s differs between serial and parallel compile", k)
		}
	}
}

// TestStatsDeterminism: compile-time statistics are reproducible too.
func TestStatsDeterminism(t *testing.T) {
	src := programs.Richards().Source
	get := func() Stats {
		prog, err := ir.Lower(lang.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(prog, Options{Config: CHA})
		if err == nil {
			err = c.CompileAll()
		}
		if err != nil {
			t.Fatal(err)
		}
		return c.Stats()
	}
	if a, b := get(), get(); a != b {
		t.Fatalf("stats differ:\n%+v\n%+v", a, b)
	}
}
