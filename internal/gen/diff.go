// Differential harness: run one program under both execution tiers and
// any set of configurations, and compare every deterministic
// observable. The tree interpreter is the oracle; the bytecode VM must
// be byte-indistinguishable from it — and any configuration must be
// value/output-indistinguishable from Base. Runtime errors are
// observables too: a failing program must fail with the identical
// positioned error text everywhere.

package gen

import (
	"fmt"
	"time"

	"selspec/internal/driver"
	"selspec/internal/interp"
	"selspec/internal/opt"
	"selspec/internal/programs"
	"selspec/internal/specialize"
)

// Observation is everything deterministic about one run. Two runs of
// the same (program, config) under different engines must produce
// identical Observations; two configs of the same program must agree on
// Value and Output (the semantic observables).
type Observation struct {
	Value    string
	Output   string
	ErrText  string // runtime error text; "" on success
	Counters interp.Counters
	Steps    uint64
}

// Guards bounds one differential run so a pathological generated
// program degrades into a deterministic resource-guard error instead of
// hanging the harness.
type Guards struct {
	StepLimit  uint64
	DepthLimit int
	Timeout    time.Duration
}

// DefaultGuards is sized for generated stress programs: generous enough
// for 10k-class scale runs, bounded enough to terminate the harness.
var DefaultGuards = Guards{StepLimit: 200_000_000, DepthLimit: 0}

// Observe runs b under one configuration and engine and captures the
// observables. The returned error is harness-level only (load/compile
// infrastructure failures); guest runtime errors land in ErrText.
func Observe(b programs.Benchmark, cfg opt.Config, eng driver.Engine, gd Guards) (Observation, error) {
	p, err := driver.LoadNamed(b.Name, b.Source)
	if err != nil {
		return Observation{}, fmt.Errorf("load %s: %w", b.Name, err)
	}
	res, err := p.RunConfig(driver.ConfigOptions{
		Opt:   opt.Options{Config: cfg},
		Spec:  specialize.Params{Threshold: 1}, // tiny profiles still specialize
		Train: b.Train,
		Test:  b.Test,
		Run: driver.RunOptions{
			CaptureOutput: true,
			Engine:        eng,
			StepLimit:     gd.StepLimit,
			DepthLimit:    gd.DepthLimit,
			Timeout:       gd.Timeout,
			Verify:        true,
		},
	})
	if err != nil {
		// Guest-level failure: an observable, compared across engines.
		return Observation{ErrText: err.Error()}, nil
	}
	if res.Engine != eng {
		return Observation{}, fmt.Errorf("%s under %v: requested engine %v but %v ran (unexpected fallback)",
			b.Name, cfg, eng, res.Engine)
	}
	return Observation{
		Value:    res.Value,
		Output:   res.Output,
		Counters: res.Counters,
		Steps:    res.Steps,
	}, nil
}

// Divergence describes one failed comparison: which cell, which
// observable, and the two values.
type Divergence struct {
	Benchmark string
	Config    opt.Config
	Field     string // "value", "output", "error", "counters", "steps"
	Tree, VM  string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("%s under %v: %s diverged:\n  tree: %s\n  vm:   %s",
		d.Benchmark, d.Config, d.Field, d.Tree, d.VM)
}

// CompareEngines runs b under cfg on both tiers and requires
// byte-identical observables. Returns a *Divergence (as error) on
// mismatch, nil when the engines agree, or a wrapped harness error.
func CompareEngines(b programs.Benchmark, cfg opt.Config, gd Guards) error {
	tree, err := Observe(b, cfg, driver.EngineTree, gd)
	if err != nil {
		return err
	}
	vm, err := Observe(b, cfg, driver.EngineVM, gd)
	if err != nil {
		return err
	}
	return diffObservations(b.Name, cfg, tree, vm)
}

func diffObservations(name string, cfg opt.Config, tree, vm Observation) error {
	mk := func(field, t, v string) error {
		return &Divergence{Benchmark: name, Config: cfg, Field: field, Tree: t, VM: v}
	}
	switch {
	case tree.ErrText != vm.ErrText:
		return mk("error", tree.ErrText, vm.ErrText)
	case tree.Value != vm.Value:
		return mk("value", tree.Value, vm.Value)
	case tree.Output != vm.Output:
		return mk("output", tree.Output, vm.Output)
	case tree.Counters != vm.Counters:
		return mk("counters", fmt.Sprintf("%+v", tree.Counters), fmt.Sprintf("%+v", vm.Counters))
	case tree.Steps != vm.Steps:
		return mk("steps", fmt.Sprint(tree.Steps), fmt.Sprint(vm.Steps))
	}
	return nil
}

// CompareConfigs checks the cross-configuration semantic invariant: all
// configurations must compute Base's value and output (or fail with
// Base's error). Dispatch counters legitimately differ across configs,
// so only the semantic observables are compared.
func CompareConfigs(b programs.Benchmark, cfgs []opt.Config, eng driver.Engine, gd Guards) error {
	base, err := Observe(b, opt.Base, eng, gd)
	if err != nil {
		return err
	}
	for _, cfg := range cfgs {
		if cfg == opt.Base {
			continue
		}
		o, err := Observe(b, cfg, eng, gd)
		if err != nil {
			return err
		}
		if o.ErrText != base.ErrText || o.Value != base.Value || o.Output != base.Output {
			return &Divergence{Benchmark: b.Name, Config: cfg, Field: "semantics vs Base",
				Tree: fmt.Sprintf("base: value=%q err=%q output %dB", base.Value, base.ErrText, len(base.Output)),
				VM:   fmt.Sprintf("%v:  value=%q err=%q output %dB", cfg, o.Value, o.ErrText, len(o.Output))}
		}
	}
	return nil
}
