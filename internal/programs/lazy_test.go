package programs_test

import (
	"fmt"
	"testing"

	"selspec/internal/driver"
	"selspec/internal/gen"
	"selspec/internal/interp"
	"selspec/internal/opt"
	"selspec/internal/programs"
	"selspec/internal/vm"
)

// TestLazyCompilationEquivalence: §3.7.3 — building method bodies on
// first invocation must not change program behaviour, only which
// versions get bodies. Every run is made twice: from a compile that
// builds bodies on demand, and from one whose static bodies CompileAll
// built up front (Cust-MM has no static set: both build on demand).
// Both must agree on the value, the output and every counter, under
// both engines, and the VM must emit the same bytecode for every proc
// the on-demand run reached.
func TestLazyCompilationEquivalence(t *testing.T) {
	benches := []programs.Benchmark{programs.Richards(), programs.Sets()}
	if !testing.Short() {
		for seed := uint64(1); seed <= 5; seed++ {
			benches = append(benches, gen.New(gen.Config{Seed: seed}).Benchmark())
		}
	}
	for _, b := range benches {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			p, err := driver.LoadNamed(b.Name, b.Source)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range opt.Configs() {
				for _, engine := range []driver.Engine{driver.EngineTree, driver.EngineVM} {
					onDemand, lazyCode := lazyRun(t, p, b, cfg, engine, false)
					static, staticCode := lazyRun(t, p, b, cfg, engine, true)
					what := fmt.Sprintf("%v/%v", cfg, engine)
					if onDemand.Value != static.Value || onDemand.Output != static.Output {
						t.Errorf("%s: on-demand and static bodies disagree: %q vs %q", what, onDemand.Value, static.Value)
					}
					if onDemand.Counters != static.Counters || onDemand.Steps != static.Steps || onDemand.Invoked != static.Invoked {
						t.Errorf("%s: counters differ:\n on demand %+v steps=%d invoked=%d\n static    %+v steps=%d invoked=%d", what,
							onDemand.Counters, onDemand.Steps, onDemand.Invoked, static.Counters, static.Steps, static.Invoked)
					}
					for name, code := range lazyCode {
						if staticCode[name] != code {
							t.Errorf("%s: bytecode of %s differs:\n on demand:\n%s static:\n%s", what, name, code, staticCode[name])
						}
					}
				}
			}
		})
	}
}

// lazyRun builds b under cfg, with every static body built first when
// static is set, runs it on its training input under engine, and
// returns the result and — for the VM — the disassembly of every method
// version proc (with its closures) that the run compiled, by version.
func lazyRun(t *testing.T, p *driver.Pipeline, b programs.Benchmark, cfg opt.Config, engine driver.Engine, static bool) (*driver.Result, map[string]string) {
	t.Helper()
	c, _, err := p.Build(driver.BuildOptions{
		Opt:   opt.Options{Config: cfg},
		Train: driver.RunOptions{Overrides: b.Train, StepLimit: 200_000_000},
	})
	if err == nil && static {
		err = c.CompileAll()
	}
	if err != nil {
		t.Fatal(err)
	}
	built := c.Stats().CompiledBodies
	res, err := driver.Execute(c, driver.RunOptions{
		Overrides: b.Train, CaptureOutput: true, StepLimit: 200_000_000, Engine: engine,
	})
	if err != nil {
		t.Fatalf("%v/%v static=%t: %v", cfg, engine, static, err)
	}
	if st := c.Stats(); !static && st.CompiledBodies != res.Invoked {
		t.Errorf("%v/%v: on-demand run built %d bodies for %d invoked versions",
			cfg, engine, st.CompiledBodies, res.Invoked)
	} else if static && cfg != opt.CustMM && st.CompiledBodies != built {
		t.Errorf("%v/%v: the run built %d bodies after CompileAll", cfg, engine, st.CompiledBodies-built)
	}
	if engine != driver.EngineVM {
		return res, nil
	}
	// The run's module is gone with its machine; a fresh machine over
	// the same (now built) bodies compiles the same procs on demand.
	// Compiling them through CompileAll covers every body that exists,
	// which for the on-demand side is exactly the set the run reached.
	m, err := vm.New(interp.New(c))
	if err == nil {
		err = m.Module().CompileAll()
	}
	if err != nil {
		t.Fatal(err)
	}
	code := map[string]string{}
	var cur string
	for _, pi := range m.Module().Procs() {
		switch {
		case pi.Version != nil:
			cur = pi.Version.String()
		case pi.Closure == nil:
			continue // initializer thunks
		}
		if cur != "" {
			code[cur] += pi.Proc.Disasm()
		}
	}
	return res, code
}

// TestProfileStabilityAcrossInputs checks the paper's §3.7.2
// observation: "the kind of profile information needed to construct
// this call graph remains fairly constant across different inputs", so
// directives derived from one input work well on another. We train on
// two different inputs and require the resulting specialization sets to
// perform within a few percent of each other on a common measurement
// input.
func TestProfileStabilityAcrossInputs(t *testing.T) {
	b := programs.InstSched()
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
