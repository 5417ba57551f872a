package programs

import (
	"testing"

	"selspec/internal/driver"
	"selspec/internal/opt"
)

// TestLazyCompilationEquivalence: §3.7.3 — compiling method versions
// lazily on first invocation must not change program behaviour or
// dispatch counts, only which versions get bodies.
func TestLazyCompilationEquivalence(t *testing.T) {
	for _, b := range []Benchmark{Richards(), Sets()} {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, cfg := range []opt.Config{opt.Base, opt.Cust, opt.CHA} {
				p, err := driver.Load(b.Source)
				if err != nil {
					t.Fatal(err)
				}
				run := func(lazy bool) *driver.Result {
					c, err := opt.Compile(p.Prog, opt.Options{Config: cfg, Lazy: lazy})
					if err != nil {
						t.Fatal(err)
					}
					res, err := driver.Execute(c, driver.RunOptions{
						Overrides: b.Train, CaptureOutput: true, StepLimit: 200_000_000,
					})
					if err != nil {
						t.Fatalf("%v lazy=%t: %v", cfg, lazy, err)
					}
					if lazy && c.InvokedVersionCount() != c.Stats().CompiledBodies {
						t.Errorf("%v: lazy bookkeeping inconsistent", cfg)
					}
					return res
				}
				eager := run(false)
				lazy := run(true)
				if eager.Value != lazy.Value || eager.Output != lazy.Output {
					t.Errorf("%v: lazy and eager disagree: %q vs %q", cfg, eager.Value, lazy.Value)
				}
				if eager.Counters.DynamicDispatches() != lazy.Counters.DynamicDispatches() {
					t.Errorf("%v: dispatch counts differ: %d vs %d",
						cfg, eager.Counters.DynamicDispatches(), lazy.Counters.DynamicDispatches())
				}
				if lazy.Invoked > eager.Invoked {
					t.Errorf("%v: lazy invoked more versions (%d) than eager (%d)",
						cfg, lazy.Invoked, eager.Invoked)
				}
			}
		})
	}
}

// TestProfileStabilityAcrossInputs checks the paper's §3.7.2
// observation: "the kind of profile information needed to construct
// this call graph remains fairly constant across different inputs", so
// directives derived from one input work well on another. We train on
// two different inputs and require the resulting specialization sets to
// perform within a few percent of each other on a common measurement
// input.
func TestProfileStabilityAcrossInputs(t *testing.T) {
	b := InstSched()
	p, err := driver.Load(b.Source)
	if err != nil {
		t.Fatal(err)
	}

	trainInputs := []map[string]int64{
		{"schedInstrs": 60, "schedBlocks": 6},
		{"schedInstrs": 90, "schedBlocks": 9},
	}
	var dispatches []uint64
	for _, train := range trainInputs {
		c, _, err := p.Build(driver.BuildOptions{
			Opt:   opt.Options{Config: opt.Selective},
			Train: driver.RunOptions{Overrides: train},
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := driver.Execute(c, driver.RunOptions{Overrides: b.Test, StepLimit: 500_000_000})
		if err != nil {
			t.Fatal(err)
		}
		dispatches = append(dispatches, out.Counters.DynamicDispatches())
	}
	lo, hi := dispatches[0], dispatches[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi) > float64(lo)*1.10 {
		t.Errorf("profiles from different inputs give dispatch counts %d vs %d (>10%% apart)",
			dispatches[0], dispatches[1])
	}
	t.Logf("dispatches with profiles from two inputs: %v", dispatches)
}
