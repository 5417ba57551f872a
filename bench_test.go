package selspec

// bench_test.go regenerates the paper's evaluation (Section 4) as Go
// benchmarks — one benchmark family per table/figure — plus ablations
// of the design choices discussed in Section 3:
//
//	BenchmarkFig5Dispatches      Figure 5 left: dynamic dispatches per config
//	BenchmarkFig5Speed           Figure 5 right: cycle-model execution speed
//	BenchmarkFig6StaticVersions  Figure 6 left: compiled routines (static)
//	BenchmarkFig6InvokedVersions Figure 6 right: invoked routines (dynamic compilation)
//	BenchmarkTable2              per-benchmark Base characterization
//	BenchmarkSetExample          the §2 Set example across configurations
//	BenchmarkAblationThreshold   §3.4: SpecializationThreshold sweep
//	BenchmarkAblationCascade     §3.3: cascading on/off
//	BenchmarkAblationCombination §3.2: tuple combination on/off
//	BenchmarkAblationTupleProfiles §3.2 extension: argument-tuple profiles
//	BenchmarkAblationSpaceBudget §3.4: fixed space budget heuristic
//	BenchmarkAblationInlining    §2: indirect benefit of static binding
//	BenchmarkAblationDispatchMech §3.5: PIC vs global lookup vs tables
//
// Counter metrics (dispatches, cycles, versions) are attached with
// b.ReportMetric; wall time per run is the benchmark's ns/op.

import (
	"testing"

	"selspec/internal/driver"
	"selspec/internal/interp"
	"selspec/internal/opt"
	"selspec/internal/profile"
	"selspec/internal/programs"
	"selspec/internal/specialize"
)

// prepared caches a compiled configuration of a benchmark program so
// the measurement loop only times execution.
type prepared struct {
	prog *driver.Pipeline
	comp *opt.Compiled
	test map[string]int64
}

func prepare(b *testing.B, bench programs.Benchmark, cfg opt.Config, params specialize.Params) *prepared {
	b.Helper()
	p, err := driver.Load(bench.Source)
	if err != nil {
		b.Fatal(err)
	}
	c, _, err := p.Build(driver.BuildOptions{
		Opt:   opt.Options{Config: cfg},
		Spec:  params,
		Train: driver.RunOptions{Overrides: bench.Train},
	})
	if err != nil {
		b.Fatal(err)
	}
	return &prepared{prog: p, comp: c, test: bench.Test}
}

// measure runs the compiled program b.N times and reports the counter
// metrics of the final run.
func (pr *prepared) measure(b *testing.B, mech interp.Mechanism) *driver.Result {
	b.Helper()
	var last *driver.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := driver.Execute(pr.comp, driver.RunOptions{Overrides: pr.test, Mechanism: mech})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(last.Counters.DynamicDispatches()), "dispatches")
	b.ReportMetric(float64(last.Counters.Cycles), "cycles")
	b.ReportMetric(float64(last.Stats.Versions), "versions")
	return last
}

func forEachBenchConfig(b *testing.B, f func(b *testing.B, bench programs.Benchmark, cfg opt.Config)) {
	for _, bench := range programs.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			for _, cfg := range opt.Configs() {
				cfg := cfg
				b.Run(cfg.String(), func(b *testing.B) { f(b, bench, cfg) })
			}
		})
	}
}

// BenchmarkFig5Dispatches regenerates Figure 5 (left): the number of
// dynamic dispatches per benchmark and configuration.
func BenchmarkFig5Dispatches(b *testing.B) {
	forEachBenchConfig(b, func(b *testing.B, bench programs.Benchmark, cfg opt.Config) {
		pr := prepare(b, bench, cfg, specialize.Params{})
		pr.measure(b, interp.MechPIC)
	})
}

// BenchmarkFig5Speed regenerates Figure 5 (right): execution speed.
// ns/op is the interpreter wall time; the "cycles" metric is the
// machine-independent cost model EXPERIMENTS.md reports.
func BenchmarkFig5Speed(b *testing.B) {
	forEachBenchConfig(b, func(b *testing.B, bench programs.Benchmark, cfg opt.Config) {
		pr := prepare(b, bench, cfg, specialize.Params{})
		res := pr.measure(b, interp.MechPIC)
		b.ReportMetric(float64(res.Wall.Nanoseconds()), "wall-ns/run")
	})
}

// BenchmarkFig6StaticVersions regenerates Figure 6 (left): the number
// of routines a statically-compiled system produces.
func BenchmarkFig6StaticVersions(b *testing.B) {
	forEachBenchConfig(b, func(b *testing.B, bench programs.Benchmark, cfg opt.Config) {
		pr := prepare(b, bench, cfg, specialize.Params{})
		for i := 0; i < b.N; i++ {
			_ = pr.comp.StaticVersionCount()
		}
		b.ReportMetric(float64(pr.comp.StaticVersionCount()), "static-versions")
	})
}

// BenchmarkFig6InvokedVersions regenerates Figure 6 (right): routines
// actually invoked, the dynamic-compilation space metric.
func BenchmarkFig6InvokedVersions(b *testing.B) {
	forEachBenchConfig(b, func(b *testing.B, bench programs.Benchmark, cfg opt.Config) {
		pr := prepare(b, bench, cfg, specialize.Params{})
		var invoked int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := driver.Execute(pr.comp, driver.RunOptions{Overrides: pr.test})
			if err != nil {
				b.Fatal(err)
			}
			invoked = res.Invoked
		}
		b.ReportMetric(float64(invoked), "invoked-versions")
	})
}

// BenchmarkTable2 characterizes each benchmark under Base (the row the
// other figures normalize against).
func BenchmarkTable2(b *testing.B) {
	for _, bench := range programs.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			pr := prepare(b, bench, opt.Base, specialize.Params{})
			res := pr.measure(b, interp.MechPIC)
			b.ReportMetric(float64(res.Counters.MethodEntries), "method-entries")
		})
	}
}

// BenchmarkSetExample runs the paper's §2 Set example across all
// configurations (threshold lowered to suit its smaller call counts).
func BenchmarkSetExample(b *testing.B) {
	bench := programs.Sets()
	for _, cfg := range opt.Configs() {
		cfg := cfg
		b.Run(cfg.String(), func(b *testing.B) {
			pr := prepare(b, bench, cfg, specialize.Params{Threshold: 200})
			pr.measure(b, interp.MechPIC)
		})
	}
}

// BenchmarkAblationThreshold sweeps the SpecializationThreshold (§3.4:
// "the algorithm currently uses a very simple heuristic"): lower
// thresholds specialize more aggressively.
func BenchmarkAblationThreshold(b *testing.B) {
	bench, _ := programs.ByName("Compiler")
	for _, th := range []int64{-1, 10, 100, 1000, 10000} {
		th := th
		name := "all"
		if th > 0 {
			name = itoa(th)
		}
		b.Run("threshold="+name, func(b *testing.B) {
			pr := prepare(b, bench, opt.Selective, specialize.Params{Threshold: th})
			pr.measure(b, interp.MechPIC)
		})
	}
}

// BenchmarkAblationCascade measures §3.3's cascading specializations:
// without them, statically-bound callers of specialized methods fall
// back to run-time version selection.
func BenchmarkAblationCascade(b *testing.B) {
	bench, _ := programs.ByName("Typechecker")
	for _, off := range []bool{false, true} {
		off := off
		name := "cascade=on"
		if off {
			name = "cascade=off"
		}
		b.Run(name, func(b *testing.B) {
			pr := prepare(b, bench, opt.Selective, specialize.Params{DisableCascade: off})
			pr.measure(b, interp.MechPIC)
		})
	}
}

// BenchmarkAblationCombination measures §3.2's tuple combination.
func BenchmarkAblationCombination(b *testing.B) {
	bench, _ := programs.ByName("InstSched")
	for _, off := range []bool{false, true} {
		off := off
		name := "combination=on"
		if off {
			name = "combination=off"
		}
		b.Run(name, func(b *testing.B) {
			pr := prepare(b, bench, opt.Selective, specialize.Params{DisableCombination: off})
			pr.measure(b, interp.MechPIC)
		})
	}
}

// BenchmarkAblationTupleProfiles measures the §3.2 extension that
// prunes combined specializations no profiled call ever exercised.
func BenchmarkAblationTupleProfiles(b *testing.B) {
	bench, _ := programs.ByName("InstSched")
	for _, on := range []bool{false, true} {
		on := on
		name := "tuple-profiles=off"
		if on {
			name = "tuple-profiles=on"
		}
		b.Run(name, func(b *testing.B) {
			pr := prepare(b, bench, opt.Selective, specialize.Params{UseTupleProfiles: on})
			pr.measure(b, interp.MechPIC)
		})
	}
}

// BenchmarkAblationSpaceBudget measures the §3.4 fixed-space-budget
// heuristic at several budgets.
func BenchmarkAblationSpaceBudget(b *testing.B) {
	bench, _ := programs.ByName("InstSched")
	for _, budget := range []int{2, 8, 32, 128} {
		budget := budget
		b.Run("budget="+itoa(int64(budget)), func(b *testing.B) {
			pr := prepare(b, bench, opt.Selective, specialize.Params{SpaceBudget: budget})
			pr.measure(b, interp.MechPIC)
		})
	}
}

// BenchmarkAblationInlining isolates the indirect benefit of static
// binding (§2: "having the messages be dynamically dispatched also
// prevents other optimizations, such as inlining").
func BenchmarkAblationInlining(b *testing.B) {
	bench, _ := programs.ByName("Richards")
	for _, off := range []bool{false, true} {
		off := off
		name := "inlining=on"
		if off {
			name = "inlining=off"
		}
		b.Run(name, func(b *testing.B) {
			p, err := driver.Load(bench.Source)
			if err != nil {
				b.Fatal(err)
			}
			c, err := opt.Compile(p.Prog, opt.Options{Config: opt.CHA, DisableInlining: off})
			if err != nil {
				b.Fatal(err)
			}
			pr := &prepared{prog: p, comp: c, test: bench.Test}
			pr.measure(b, interp.MechPIC)
		})
	}
}

// BenchmarkAblationDispatchMech compares the run-time lookup mechanisms
// of §3.5 under the Base configuration (every send dispatches).
func BenchmarkAblationDispatchMech(b *testing.B) {
	bench, _ := programs.ByName("Richards")
	for _, mech := range []interp.Mechanism{interp.MechPIC, interp.MechGlobal, interp.MechTables} {
		mech := mech
		b.Run(mech.String(), func(b *testing.B) {
			pr := prepare(b, bench, opt.Base, specialize.Params{})
			res := pr.measure(b, mech)
			b.ReportMetric(float64(res.Counters.PICHits), "pic-hits")
		})
	}
}

// BenchmarkAblationReturnTypes measures the §6 future-work extension
// (return-value class propagation) on top of CHA.
func BenchmarkAblationReturnTypes(b *testing.B) {
	bench, _ := programs.ByName("Compiler")
	for _, on := range []bool{false, true} {
		on := on
		name := "return-types=off"
		if on {
			name = "return-types=on"
		}
		b.Run(name, func(b *testing.B) {
			p, err := driver.Load(bench.Source)
			if err != nil {
				b.Fatal(err)
			}
			c, err := opt.Compile(p.Prog, opt.Options{Config: opt.CHA, ReturnTypeAnalysis: on})
			if err != nil {
				b.Fatal(err)
			}
			pr := &prepared{prog: p, comp: c, test: bench.Test}
			pr.measure(b, interp.MechPIC)
		})
	}
}

// BenchmarkAblationInstantiation measures RTA-style instantiation
// analysis on top of CHA (a natural companion analysis: classes the
// program never creates stop blocking unique-target proofs).
func BenchmarkAblationInstantiation(b *testing.B) {
	bench, _ := programs.ByName("Richards")
	for _, on := range []bool{false, true} {
		on := on
		name := "instantiation=off"
		if on {
			name = "instantiation=on"
		}
		b.Run(name, func(b *testing.B) {
			p, err := driver.Load(bench.Source)
			if err != nil {
				b.Fatal(err)
			}
			c, err := opt.Compile(p.Prog, opt.Options{Config: opt.CHA, InstantiationAnalysis: on})
			if err != nil {
				b.Fatal(err)
			}
			pr := &prepared{prog: p, comp: c, test: bench.Test}
			pr.measure(b, interp.MechPIC)
		})
	}
}

// BenchmarkProfileCollection measures the overhead of gathering the
// weighted call graph (§3.7.2 reports 15-50% for PIC-based profiling).
func BenchmarkProfileCollection(b *testing.B) {
	bench, _ := programs.ByName("Typechecker")
	p, err := driver.Load(bench.Source)
	if err != nil {
		b.Fatal(err)
	}
	c, err := opt.Compile(p.Prog, opt.Options{Config: opt.Base})
	if err != nil {
		b.Fatal(err)
	}
	for _, profiling := range []bool{false, true} {
		profiling := profiling
		name := "instrumentation=off"
		if profiling {
			name = "instrumentation=on"
		}
		b.Run(name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ro := driver.RunOptions{Overrides: bench.Train}
				if profiling {
					ro.Profile = profile.NewCallGraph(p.Prog)
				}
				if _, err := driver.Execute(c, ro); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf []byte
	for n > 0 {
		buf = append([]byte{byte('0' + n%10)}, buf...)
		n /= 10
	}
	if neg {
		return "-" + string(buf)
	}
	return string(buf)
}
