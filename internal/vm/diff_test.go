package vm_test

// The engine differential suite: the tree interpreter is the oracle,
// and the bytecode VM must be indistinguishable from it — identical
// final value, identical print output, identical counter totals
// (dispatches, PIC hits/misses, version selects, cycles, steps, ...)
// for every benchmark program under every configuration and dispatch
// mechanism, and identical errors on failing programs. Each engine run
// loads the program fresh so shared hierarchy lookup caches cannot leak
// state between the runs being compared.

import (
	"testing"

	"selspec/internal/driver"
	"selspec/internal/interp"
	"selspec/internal/obs"
	"selspec/internal/opt"
	"selspec/internal/programs"
)

func runEngine(t *testing.T, b programs.Benchmark, cfg opt.Config, eng driver.Engine, reg *obs.Registry) *driver.Result {
	t.Helper()
	p, err := driver.LoadNamed(b.Name, b.Source)
	if err != nil {
		t.Fatalf("load %s: %v", b.Name, err)
	}
	res, err := p.RunConfig(driver.ConfigOptions{
		Opt:   opt.Options{Config: cfg},
		Train: b.Train,
		Test:  b.Train, // training-size input keeps the full grid fast
		Run:   driver.RunOptions{CaptureOutput: true, StepLimit: 500_000_000, Engine: eng, Metrics: reg},
	})
	if err != nil {
		t.Fatalf("%s under %v engine %v: %v", b.Name, cfg, eng, err)
	}
	if res.Engine != eng {
		t.Fatalf("%s under %v: requested engine %v but %v ran (unexpected fallback)", b.Name, cfg, eng, res.Engine)
	}
	return res
}

// TestEngineDiffAllProgramsAllConfigs is the acceptance grid: all
// benchmark programs × all configurations, tree vs vm.
func TestEngineDiffAllProgramsAllConfigs(t *testing.T) {
	for _, b := range programs.Registry() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, cfg := range opt.Configs() {
				tree := runEngine(t, b, cfg, driver.EngineTree, nil)
				vmres := runEngine(t, b, cfg, driver.EngineVM, nil)
				if vmres.Value != tree.Value {
					t.Errorf("%s/%v: value diverged: vm %q, tree %q", b.Name, cfg, vmres.Value, tree.Value)
				}
				if vmres.Output != tree.Output {
					t.Errorf("%s/%v: output diverged (vm %d bytes, tree %d bytes)",
						b.Name, cfg, len(vmres.Output), len(tree.Output))
				}
				if vmres.Counters != tree.Counters {
					t.Errorf("%s/%v: counters diverged:\n  vm:   %+v\n  tree: %+v", b.Name, cfg, vmres.Counters, tree.Counters)
				}
				if vmres.Steps != tree.Steps {
					t.Errorf("%s/%v: steps diverged: vm %d, tree %d", b.Name, cfg, vmres.Steps, tree.Steps)
				}
				if vmres.Invoked != tree.Invoked {
					t.Errorf("%s/%v: invoked versions diverged: vm %d, tree %d", b.Name, cfg, vmres.Invoked, tree.Invoked)
				}
			}
		})
	}
}

// TestEngineDiffMechanisms crosses the engines with every dispatch
// mechanism on one dispatch-heavy program: PIC hit/miss and table
// counter totals must match exactly.
func TestEngineDiffMechanisms(t *testing.T) {
	b, ok := programs.ByName("Richards")
	if !ok {
		t.Fatal("Richards missing from registry")
	}
	for mech := 0; mech < 3; mech++ {
		for _, cfg := range []opt.Config{opt.Base, opt.Selective} {
			mkRun := func(eng driver.Engine) *driver.Result {
				p, err := driver.LoadNamed(b.Name, b.Source)
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.RunConfig(driver.ConfigOptions{
					Opt:   opt.Options{Config: cfg},
					Train: b.Train,
					Test:  b.Train,
					Run:   driver.RunOptions{CaptureOutput: true, Mechanism: interp.Mechanism(mech), Engine: eng},
				})
				if err != nil {
					t.Fatalf("mech %d cfg %v engine %v: %v", mech, cfg, eng, err)
				}
				return res
			}
			tree := mkRun(driver.EngineTree)
			vmres := mkRun(driver.EngineVM)
			if vmres.Counters != tree.Counters {
				t.Errorf("mech %d cfg %v: counters diverged:\n  vm:   %+v\n  tree: %+v", mech, cfg, vmres.Counters, tree.Counters)
			}
			if vmres.Output != tree.Output || vmres.Value != tree.Value {
				t.Errorf("mech %d cfg %v: result diverged", mech, cfg)
			}
		}
	}
}

// TestEngineDiffObsSnapshot runs the same program+config under each
// engine with its own fresh registry and demands the full metric
// snapshots — every counter series, including PIC and GF-cache
// behavior — be byte-comparable, the /metrics contract of the issue.
func TestEngineDiffObsSnapshot(t *testing.T) {
	b, ok := programs.ByName("Sets")
	if !ok {
		t.Fatal("Sets missing from registry")
	}
	snap := func(eng driver.Engine) map[string]uint64 {
		reg := obs.NewRegistry()
		runEngine(t, b, opt.Selective, eng, reg)
		return reg.Snapshot().Counters
	}
	treeSnap := snap(driver.EngineTree)
	vmSnap := snap(driver.EngineVM)
	if len(treeSnap) != len(vmSnap) {
		t.Fatalf("metric series count diverged: vm %d, tree %d", len(vmSnap), len(treeSnap))
	}
	for name, tv := range treeSnap {
		if vv, ok := vmSnap[name]; !ok || vv != tv {
			t.Errorf("series %s diverged: vm %d, tree %d", name, vmSnap[name], tv)
		}
	}
}
