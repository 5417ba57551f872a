package driver_test

// Property test: generated Mini-Cecil programs must compute identical
// results and output under every compiler configuration. This is the
// broadest soundness check of the optimizer, the specializer and the
// version-selection machinery: any unsound static binding, bad inline
// substitution, wrong closure capture, or invalid version choice shows
// up as a divergence. Generated programs never fail dispatch; the
// dispatch-failure half of the property lives in errors_test.go.

import (
	"testing"

	"selspec/internal/driver"
	"selspec/internal/gen"
	"selspec/internal/opt"
	"selspec/internal/programs"
	"selspec/internal/specialize"
)

// runProgram compiles and runs b under cfg, returning value+output. ext
// additionally enables the §6 return-type analysis and the
// instantiation analysis.
func runProgram(t *testing.T, b programs.Benchmark, cfg opt.Config, ext bool) string {
	t.Helper()
	p, err := driver.LoadNamed(b.Name, b.Source)
	if err != nil {
		t.Fatalf("%s does not load: %v", b.Name, err)
	}
	res, err := p.RunConfig(driver.ConfigOptions{
		Opt:   opt.Options{Config: cfg, ReturnTypeAnalysis: ext, InstantiationAnalysis: ext},
		Spec:  specialize.Params{Threshold: -1}, // specialize everything
		Train: b.Train,
		Test:  b.Test,
		Run:   driver.RunOptions{CaptureOutput: true, StepLimit: 50_000_000},
	})
	if err != nil {
		t.Fatalf("%s under %v/ext=%t: %v", b.Name, cfg, ext, err)
	}
	return res.Value + "\n" + res.Output
}

func TestRandomProgramsAllConfigsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	variants := []struct {
		cfg opt.Config
		ext bool
	}{
		{opt.Cust, false}, {opt.CustMM, false}, {opt.CHA, false},
		{opt.Selective, false}, {opt.CHA, true}, {opt.Selective, true},
	}
	for seed := uint64(1); seed <= 24; seed++ {
		b := gen.New(gen.Config{Seed: seed, Classes: 12, Methods: 40}).Benchmark()
		base := runProgram(t, b, opt.Base, false)
		for _, v := range variants {
			if got := runProgram(t, b, v.cfg, v.ext); got != base {
				t.Fatalf("seed %d: %v/ext=%t diverges\nBase: %q\ngot:  %q\nprogram:\n%s",
					seed, v.cfg, v.ext, base, got, b.Source)
			}
		}
	}
}
