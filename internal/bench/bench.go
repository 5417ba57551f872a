// Package bench is the experiment harness: it reruns the paper's
// evaluation (Section 4) — Table 1, Table 2, Figure 5 (dynamic
// dispatches and execution speed, normalized to Base) and Figure 6
// (compiled routines, statically and under dynamic compilation) — over
// the four embedded benchmarks, plus the §3.2 specialization-count
// statistics and the headline improvement numbers.
package bench

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selspec/internal/driver"
	"selspec/internal/interp"
	"selspec/internal/obs"
	"selspec/internal/opt"
	"selspec/internal/pipeline"
	"selspec/internal/programs"
	"selspec/internal/specialize"
)

// Result is one (benchmark, configuration) measurement.
type Result struct {
	Benchmark string
	Config    opt.Config

	Dispatches     uint64 // dynamically dispatched sends
	VersionSelects uint64
	Cycles         uint64 // abstract cost model ("execution speed")
	Steps          uint64 // interpreter steps charged (engine-independent)
	Wall           time.Duration
	Engine         driver.Engine // tier that ran

	StaticVersions  int // routines a static compile produces (Fig 6 left)
	InvokedVersions int // routines invoked at run time (Fig 6 right)
	IRNodes         int // compiled code size in IR nodes

	SpecStats *specialize.Stats // Selective only
}

// DynamicDispatches is the Figure 5 metric.
func (r *Result) DynamicDispatches() uint64 { return r.Dispatches + r.VersionSelects }

// StepsPerSec is the engine-comparable throughput metric of the perf
// trajectory: interpreter steps are charged identically by both
// execution tiers (the differential suites enforce it), so the ratio of
// two engines' StepsPerSec on the same cell is a pure wall-clock
// speedup, immune to the engines ever diverging on work done.
func (r *Result) StepsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Steps) / r.Wall.Seconds()
}

// Options tunes a harness run.
type Options struct {
	SpecParams specialize.Params
	// Quick shrinks measurement inputs (for tests); the shape survives.
	Quick     bool
	StepLimit uint64
	// DepthLimit bounds guest call depth per cell (0 = interpreter
	// default, negative = unlimited).
	DepthLimit int
	// Timeout is the per-cell wall-clock budget (0 = none): one
	// runaway cell cannot stall the whole grid.
	Timeout time.Duration
	// Context, when non-nil, cancels every cell when it is done — how
	// the paperbench CLI turns SIGINT/SIGTERM into a prompt, orderly
	// wind-down (cells fail with a cancellation error, the report and
	// failure summary still render) instead of a mid-write kill.
	Context context.Context
	// Metrics, when non-nil, collects the grid's dispatch/interpreter/
	// specializer counters; RunSuite snapshots them into Suite.Metrics
	// for the JSON trajectory's metrics block.
	Metrics *obs.Registry
	// Engine selects the execution tier for every cell (default
	// driver.EngineVM; driver.EngineTree is the reference interpreter).
	// The tier that ran is recorded per Result, and perfgate checks it.
	Engine driver.Engine
	// Reps re-executes each cell's measured run this many times and
	// keeps the fastest wall clock (<=1 means once). Execution is
	// deterministic, so every repetition produces identical counters and
	// output; only the wall time varies with scheduler and GC noise, and
	// best-of-N is the standard way to report the run least perturbed by
	// it. Profile collection (Selective) is never repeated.
	Reps int
	// Verify runs the bytecode verifier over every cell's compiled
	// module before (and, for lazily-compiled configurations, after)
	// execution. Verification happens outside the measured window, so
	// reported walls are comparable with unverified runs.
	Verify bool
	// Extra appends benchmarks (e.g. generated stress programs from
	// internal/gen) to the embedded suite: their cells flow through the
	// same grid, figures, failures and trajectory as the paper's four.
	Extra []programs.Benchmark
}

// suitePrograms is the benchmark list for one harness run: the embedded
// suite plus any Extra programs, in that order.
func (ho Options) suitePrograms() []programs.Benchmark {
	return append(programs.All(), ho.Extra...)
}

// Fault injection for degradation tests goes through the pipeline
// seam (pipeline.ArmFaults), not through per-cell option hooks: every
// Guard boundary in the grid is a named fault point, so tests poison
// exact (benchmark, config) cells without bench threading test-only
// closures through its options.

// runOptions assembles a cell's RunOptions for one input.
func (ho Options) runOptions(overrides map[string]int64) driver.RunOptions {
	return driver.RunOptions{
		Overrides:  overrides,
		Mechanism:  interp.MechPIC,
		StepLimit:  ho.StepLimit,
		DepthLimit: ho.DepthLimit,
		Timeout:    ho.Timeout,
		Context:    ho.Context,
		Metrics:    ho.Metrics,
		Engine:     ho.Engine,
		Verify:     ho.Verify,
	}
}

// Failure records one contained grid-cell fault: the cell (or whole
// benchmark, when Config is empty and loading failed), the pipeline
// stage that faulted when known, and the error text. A Failure in the
// grid never voids the other cells' results.
type Failure struct {
	Benchmark string `json:"benchmark"`
	Config    string `json:"config,omitempty"` // empty: benchmark-level (load) failure
	Stage     string `json:"stage,omitempty"`
	Error     string `json:"error"`
}

func (f Failure) String() string {
	cell := f.Benchmark
	if f.Config != "" {
		cell += "/" + f.Config
	}
	if f.Stage != "" {
		cell += " (" + f.Stage + ")"
	}
	return cell + ": " + f.Error
}

// failureOf builds a Failure from a cell error, pulling the stage name
// out of a contained *pipeline.StageError when one is in the chain.
func failureOf(bench, config string, err error) Failure {
	f := Failure{Benchmark: bench, Config: config, Error: err.Error()}
	var se *pipeline.StageError
	if errors.As(err, &se) {
		f.Stage = string(se.Stage)
	}
	return f
}

// Run executes one benchmark under one configuration and collects
// every metric the figures need.
func Run(b programs.Benchmark, cfg opt.Config, ho Options) (*Result, error) {
	p, err := driver.LoadNamed(b.Name, b.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	return RunOn(p, b, cfg, ho)
}

// RunOn is Run against an already-loaded pipeline (so a suite can reuse
// the lowering across configurations). Every stage runs inside the
// pipeline fault boundary, so an internal panic in any of them comes
// back as a structured error for this cell only.
func RunOn(p *driver.Pipeline, b programs.Benchmark, cfg opt.Config, ho Options) (*Result, error) {
	c, stats, err := prepare(p, b, opt.Options{Config: cfg}, ho)
	if err != nil {
		return nil, err
	}
	out, err := measure(c, b, ho)
	if err != nil {
		return nil, err
	}
	out.SpecStats = stats
	return out, nil
}

// prepare compiles one cell's program (see driver.Build) with every
// static version body built, since the figures report code space. The
// returned stats are non-nil only for Selective.
func prepare(p *driver.Pipeline, b programs.Benchmark, oo opt.Options, ho Options) (*opt.Compiled, *specialize.Stats, error) {
	c, stats, err := p.Build(driver.BuildOptions{
		Opt:   oo,
		Spec:  ho.SpecParams,
		Train: ho.runOptions(b.Train),
	})
	if err == nil {
		err = pipeline.CompileAll(p.Label, c)
	}
	if err != nil {
		return nil, nil, err
	}
	return c, stats, nil
}

// testInput is the measurement input: the benchmark's test input, or
// its training input under Quick.
func (ho Options) testInput(b programs.Benchmark) map[string]int64 {
	if ho.Quick {
		return b.Train
	}
	return b.Test
}

// runCell is one measured execution of a prepared cell.
func runCell(c *opt.Compiled, b programs.Benchmark, ho Options, rep int) (*driver.Result, error) {
	res, err := driver.Execute(c, ho.runOptions(ho.testInput(b)))
	if err != nil {
		return nil, fmt.Errorf("%s under %v (rep %d): %w", b.Name, c.Opts.Config, rep, err)
	}
	return res, nil
}

func measure(c *opt.Compiled, b programs.Benchmark, ho Options) (*Result, error) {
	res, err := runCell(c, b, ho, 0)
	if err != nil {
		return nil, err
	}
	for rep := 1; rep < ho.Reps; rep++ {
		again, err := runCell(c, b, ho, rep)
		if err != nil {
			return nil, err
		}
		if again.Wall < res.Wall {
			res = again
		}
	}
	return toResult(c, b, res), nil
}

func toResult(c *opt.Compiled, b programs.Benchmark, res *driver.Result) *Result {
	return &Result{
		Benchmark:       b.Name,
		Config:          c.Opts.Config,
		Dispatches:      res.Counters.Dispatches,
		VersionSelects:  res.Counters.VersionSelects,
		Cycles:          res.Counters.Cycles,
		Steps:           res.Steps,
		Wall:            res.Wall,
		Engine:          res.Engine,
		StaticVersions:  c.StaticVersionCount(),
		InvokedVersions: res.Invoked,
		IRNodes:         res.Stats.IRNodes,
	}
}

// Suite holds the full benchmark × configuration result matrix, plus
// the contained failures of cells that did not complete. A failed cell
// leaves a nil Result; the rendering helpers print FAIL there and keep
// every healthy cell's numbers.
type Suite struct {
	Results  map[string]map[opt.Config]*Result
	Names    []string
	Failures []Failure
	// Metrics is the name-sorted counter snapshot taken at the end of
	// RunSuite when Options.Metrics was set; nil otherwise. It feeds the
	// JSON trajectory's metrics block.
	Metrics []JSONMetric
}

// Failed reports whether any benchmark or cell failed.
func (s *Suite) Failed() bool { return len(s.Failures) > 0 }

// FailureSummary renders the contained failures, one per line.
func (s *Suite) FailureSummary(w io.Writer) {
	if len(s.Failures) == 0 {
		return
	}
	fmt.Fprintf(w, "%d contained failure(s):\n", len(s.Failures))
	for _, f := range s.Failures {
		fmt.Fprintf(w, "  %s\n", f)
	}
}

// RunSuite measures every benchmark under every configuration,
// fanning the (benchmark × configuration) grid out over a
// GOMAXPROCS-sized worker pool. Each benchmark's pipeline is loaded
// once and shared by its configurations (the hierarchy's lookup caches
// are concurrency-safe); every cell compiles and runs its own
// opt.Compiled, so runs never share mutable interpreter state. Cells
// land in fixed slots and the rendered figures iterate Names/Configs
// in Table-2 order, so the output is byte-identical to a serial run.
//
// Every cell runs inside the pipeline fault boundary: a panic or error
// in one cell — bad config, poisoned input, runaway program hitting a
// resource guard — is recorded in Suite.Failures and the remaining
// cells keep running. Failures are collected in deterministic
// (benchmark, config) grid order. The returned error is non-nil only
// when the harness itself cannot set up the grid.
func RunSuite(ho Options) (*Suite, error) {
	benches := ho.suitePrograms()
	cfgs := opt.Configs()
	s := &Suite{Results: make(map[string]map[opt.Config]*Result, len(benches))}
	for _, b := range benches {
		s.Names = append(s.Names, b.Name) // Table-2 order, single pass
		s.Results[b.Name] = make(map[opt.Config]*Result, len(cfgs))
	}

	// Load failures take the whole benchmark out of the grid but leave
	// every other benchmark running.
	pipes := make([]*driver.Pipeline, len(benches))
	for i, b := range benches {
		p, err := driver.LoadNamed(b.Name, b.Source)
		if err != nil {
			s.Failures = append(s.Failures, failureOf(b.Name, "", err))
			continue
		}
		pipes[i] = p
	}

	type cell struct{ bench, cfg int }
	cells := make([]cell, 0, len(benches)*len(cfgs))
	for i := range benches {
		if pipes[i] == nil {
			continue
		}
		for j := range cfgs {
			cells = append(cells, cell{i, j})
		}
	}
	results := make([]*Result, len(cells))
	errs := make([]error, len(cells))

	workers := runtime.GOMAXPROCS(0)
	if workers > len(cells) {
		workers = len(cells)
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(cells) {
					return
				}
				cl := cells[i]
				b, cfg := benches[cl.bench], cfgs[cl.cfg]
				// The harness-level guard is the cell's last line of
				// defense: panics in bench code (or injected at this
				// cell's named fault point) that no inner stage
				// boundary contained stop here, not the grid.
				results[i], errs[i] = pipeline.Guard(pipeline.StageHarness, b.Name, cfg.String(),
					func() (*Result, error) { return RunOn(pipes[cl.bench], b, cfg, ho) })
			}
		}()
	}
	wg.Wait()
	for i, cl := range cells { // grid order: deterministic failure list
		if errs[i] != nil {
			s.Failures = append(s.Failures, failureOf(benches[cl.bench].Name, cfgs[cl.cfg].String(), errs[i]))
			continue
		}
		s.Results[benches[cl.bench].Name][cfgs[cl.cfg]] = results[i]
	}
	s.Metrics = MetricRows(ho.Metrics)
	return s, nil
}

// prepared is one cell's compile product (stats non-nil for Selective).
type prepared struct {
	c  *opt.Compiled
	st *specialize.Stats
}

// RunSuitePair measures the whole grid under two engine configurations
// (typically tree and vm) in one process, interleaving the two engines'
// repetitions within every cell: rep k of engine A runs back-to-back
// with rep k of engine B, so both tiers sample the same host conditions
// and the per-cell steps/sec ratio is meaningful even on a noisy,
// shared box — the methodology behind the committed BENCH_baseline.json
// / BENCH_vm.json pair and the CI perf-ratio gate.
//
// Apart from the time interleaving, the two measurements are fully
// independent suites: each engine gets its own pipelines (so hierarchy
// lookup caches warm identically to a solo run), its own profile runs,
// and its own metrics registry — which is what keeps the two
// trajectories' metrics blocks byte-comparable: an engine pair that
// executes identically produces identical counter totals.
func RunSuitePair(a, b Options) (*Suite, *Suite, error) {
	benches := a.suitePrograms()
	cfgs := opt.Configs()
	opts := [2]Options{a, b}
	var suites [2]*Suite
	for e := range suites {
		suites[e] = &Suite{Results: make(map[string]map[opt.Config]*Result, len(benches))}
		for _, bm := range benches {
			suites[e].Names = append(suites[e].Names, bm.Name)
			suites[e].Results[bm.Name] = make(map[opt.Config]*Result, len(cfgs))
		}
	}

	// Per-engine pipelines: independent lookup-cache warmth.
	var pipes [2][]*driver.Pipeline
	for e := range pipes {
		pipes[e] = make([]*driver.Pipeline, len(benches))
		for i, bm := range benches {
			p, err := driver.LoadNamed(bm.Name, bm.Source)
			if err != nil {
				suites[e].Failures = append(suites[e].Failures, failureOf(bm.Name, "", err))
				continue
			}
			pipes[e][i] = p
		}
	}

	// The grid runs serially in deterministic order: pair mode exists to
	// control measurement noise, and a worker pool would reintroduce it.
	for i, bm := range benches {
		for _, cfg := range cfgs {
			var cs [2]*opt.Compiled
			var stats [2]*specialize.Stats
			var best [2]*driver.Result
			failed := false
			for e := range opts {
				if pipes[e][i] == nil {
					failed = true
					continue
				}
				pr, err := pipeline.Guard(pipeline.StageHarness, bm.Name, cfg.String(),
					func() (prepared, error) {
						c, st, err := prepare(pipes[e][i], bm, opt.Options{Config: cfg}, opts[e])
						return prepared{c, st}, err
					})
				if err != nil {
					suites[e].Failures = append(suites[e].Failures, failureOf(bm.Name, cfg.String(), err))
					failed = true
					continue
				}
				cs[e], stats[e] = pr.c, pr.st
			}
			if failed {
				continue
			}
			reps := max(1, opts[0].Reps)
			for rep := 0; rep < reps && !failed; rep++ {
				for e := range opts {
					res, err := pipeline.Guard(pipeline.StageHarness, bm.Name, cfg.String(),
						func() (*driver.Result, error) { return runCell(cs[e], bm, opts[e], rep) })
					if err != nil {
						suites[e].Failures = append(suites[e].Failures, failureOf(bm.Name, cfg.String(), err))
						failed = true
						break
					}
					if best[e] == nil || res.Wall < best[e].Wall {
						best[e] = res
					}
				}
			}
			if failed {
				continue
			}
			for e := range opts {
				out := toResult(cs[e], bm, best[e])
				out.SpecStats = stats[e]
				suites[e].Results[bm.Name][cfg] = out
			}
		}
	}
	for e := range opts {
		suites[e].Metrics = MetricRows(opts[e].Metrics)
	}
	return suites[0], suites[1], nil
}

// Table1 renders the compiler-configuration table (paper Table 1).
func Table1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: Compiler Configurations")
	rows := []struct{ name, desc string }{
		{"Base", "Intraprocedural class analysis, inlining, constant propagation & folding, dead-code elimination (closure elimination), hard-wired class prediction for primitives. One compiled version per source method."},
		{"Cust", "Base + simple customization: specialize each method for each inheriting class of the receiver argument (Self/Sather/Trellis)."},
		{"Cust-MM", "Base + customization extended to multi-methods: one version per combination of dispatched argument classes (lazy compilation only)."},
		{"CHA", "Base + class hierarchy analysis: dynamically-bound calls become statically bound when the hierarchy shows no overriding methods."},
		{"Selective", "CHA + the profile-guided selective specialization algorithm (threshold 1,000 invocations)."},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-9s  %s\n", r.name, r.desc)
	}
}

// Table2 renders the benchmark table (paper Table 2) with both the
// paper's sizes and this reproduction's program sizes.
func Table2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: Benchmarks")
	fmt.Fprintf(w, "  %-12s %-12s %-12s %s\n", "Program", "Paper lines", "Repro lines", "Description")
	for _, b := range programs.All() {
		lines := strings.Count(b.Source, "\n")
		fmt.Fprintf(w, "  %-12s %-12d %-12d %s\n", b.Name, b.PaperLines, lines, b.Description)
	}
}

// norm returns f(cell)/f(Base) for one cell, with ok=false when either
// cell is missing (contained failure) or the Base metric is zero.
func (s *Suite) norm(bench string, cfg opt.Config, f func(*Result) float64) (float64, bool) {
	base, r := s.Results[bench][opt.Base], s.Results[bench][cfg]
	if base == nil || r == nil || f(base) == 0 {
		return 0, false
	}
	return f(r) / f(base), true
}

// Figure5a renders the number of dynamic dispatches normalized to Base
// (left panel of the paper's Figure 5; lower is better).
func (s *Suite) Figure5a(w io.Writer) {
	fmt.Fprintln(w, "Figure 5 (left): Number of dynamic dispatches, normalized to Base")
	s.matrix(w, func(r *Result) float64 { return float64(r.DynamicDispatches()) }, false)
}

// Figure5b renders execution speed (Base cycles / config cycles)
// normalized to Base (right panel of Figure 5; higher is better).
func (s *Suite) Figure5b(w io.Writer) {
	fmt.Fprintln(w, "Figure 5 (right): Execution speed, normalized to Base (cycle model)")
	s.matrix(w, func(r *Result) float64 { return float64(r.Cycles) }, true)
}

// Figure6a renders compiled routines in a statically-compiled system,
// normalized to Base (left panel of Figure 6).
func (s *Suite) Figure6a(w io.Writer) {
	fmt.Fprintln(w, "Figure 6 (left): Compiled routines, static system, normalized to Base")
	s.matrix(w, func(r *Result) float64 { return float64(r.StaticVersions) }, false)
}

// Figure6b renders routines invoked (compiled) under dynamic
// compilation, normalized to Base (right panel of Figure 6).
func (s *Suite) Figure6b(w io.Writer) {
	fmt.Fprintln(w, "Figure 6 (right): Invoked routines, dynamic compilation, normalized to Base")
	s.matrix(w, func(r *Result) float64 { return float64(r.InvokedVersions) }, false)
}

// matrix prints one metric for every benchmark × config. invert=true
// reports base/val (speedups), otherwise val/base.
func (s *Suite) matrix(w io.Writer, f func(*Result) float64, invert bool) {
	fmt.Fprintf(w, "  %-12s", "Program")
	for _, cfg := range opt.Configs() {
		fmt.Fprintf(w, " %10s", cfg)
	}
	fmt.Fprintln(w)
	for _, name := range s.Names {
		fmt.Fprintf(w, "  %-12s", name)
		for _, cfg := range opt.Configs() {
			v, ok := s.norm(name, cfg, f)
			if !ok {
				fmt.Fprintf(w, " %10s", "FAIL")
				continue
			}
			if invert && v != 0 {
				v = 1 / v
			}
			fmt.Fprintf(w, " %10.2f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  (raw Base:")
	for _, name := range s.Names {
		if base := s.Results[name][opt.Base]; base != nil {
			fmt.Fprintf(w, " %s=%.0f", name, f(base))
		} else {
			fmt.Fprintf(w, " %s=FAIL", name)
		}
	}
	fmt.Fprintln(w, ")")
}

// SpecStats prints the §3.2 statistics ("an average of 1.9
// specializations per method receiving any specializations, with a
// maximum of 8").
func (s *Suite) SpecStats(w io.Writer) {
	fmt.Fprintln(w, "Specialization statistics (paper §3.2: avg 1.9 per specialized method, max 8)")
	totalAdded, totalMeth, max := 0, 0, 0
	for _, name := range s.Names {
		r := s.Results[name][opt.Selective]
		if r == nil || r.SpecStats == nil {
			continue
		}
		st := r.SpecStats
		fmt.Fprintf(w, "  %-12s methods=%d added=%d max=%d avg=%.2f cascades=%d\n",
			name, st.MethodsSpecialized, st.AddedSpecs, st.MaxPerMethod, st.AvgPerMethod, st.CascadeRequests)
		totalAdded += st.AddedSpecs
		totalMeth += st.MethodsSpecialized
		if st.MaxPerMethod > max {
			max = st.MaxPerMethod
		}
	}
	if totalMeth > 0 {
		fmt.Fprintf(w, "  %-12s avg=%.2f max=%d\n", "OVERALL", float64(totalAdded)/float64(totalMeth), max)
	}
}

// Headline prints the paper's abstract-level claims next to the
// measured equivalents.
func (s *Suite) Headline(w io.Writer) {
	fmt.Fprintln(w, "Headline comparison (paper abstract)")
	var selSpeedMin, selSpeedMax float64 = 1e9, 0
	var spaceMin, spaceMax float64 = 1e9, 0
	var vsCustSpeedMin, vsCustSpeedMax float64 = 1e9, 0
	var vsCustSpaceMin, vsCustSpaceMax float64 = 1e9, 0
	measured := 0
	for _, name := range s.Names {
		base := s.Results[name][opt.Base]
		cust := s.Results[name][opt.Cust]
		sel := s.Results[name][opt.Selective]
		if base == nil || cust == nil || sel == nil {
			fmt.Fprintf(w, "  %-12s FAIL (cell did not complete)\n", name)
			continue
		}
		measured++
		speed := float64(base.Cycles)/float64(sel.Cycles) - 1
		space := float64(sel.IRNodes)/float64(base.IRNodes) - 1
		vsCust := float64(cust.Cycles)/float64(sel.Cycles) - 1
		vsCustSpace := 1 - float64(sel.StaticVersions)/float64(cust.StaticVersions)
		fmt.Fprintf(w, "  %-12s speed vs Base %+.0f%%  space vs Base %+.0f%%  speed vs Cust %+.0f%%  versions vs Cust %.0f%% fewer\n",
			name, speed*100, space*100, vsCust*100, vsCustSpace*100)
		selSpeedMin, selSpeedMax = minf(selSpeedMin, speed), maxf(selSpeedMax, speed)
		spaceMin, spaceMax = minf(spaceMin, space), maxf(spaceMax, space)
		vsCustSpeedMin, vsCustSpeedMax = minf(vsCustSpeedMin, vsCust), maxf(vsCustSpeedMax, vsCust)
		vsCustSpaceMin, vsCustSpaceMax = minf(vsCustSpaceMin, vsCustSpace), maxf(vsCustSpaceMax, vsCustSpace)
	}
	if measured == 0 {
		fmt.Fprintln(w, "  (no benchmark completed all of Base, Cust and Selective)")
		return
	}
	fmt.Fprintf(w, "  measured: Selective speeds up programs %.0f%%..%.0f%% over Base (paper: 65%%..275%%)\n",
		selSpeedMin*100, selSpeedMax*100)
	fmt.Fprintf(w, "  measured: code space %+.0f%%..%+.0f%% vs Base (paper: +4%%..+10%%)\n",
		spaceMin*100, spaceMax*100)
	fmt.Fprintf(w, "  measured: %+.0f%%..%+.0f%% speed vs Cust (paper: +11%%..+67%%)\n",
		vsCustSpeedMin*100, vsCustSpeedMax*100)
	fmt.Fprintf(w, "  measured: %.0f%%..%.0f%% fewer versions than Cust (paper: 65%%..73%% fewer)\n",
		vsCustSpaceMin*100, vsCustSpaceMax*100)
}

// DispatchEliminationSummary prints, per configuration, the percentage
// of Base dispatches eliminated (the paper's 35-61% / 41-62% / 33-54% /
// 54-66% ranges).
func (s *Suite) DispatchEliminationSummary(w io.Writer) {
	fmt.Fprintln(w, "Dynamic dispatches eliminated vs Base (paper: Cust 35-61%, Cust-MM 41-62%, CHA 33-54%, Selective 54-66%)")
	for _, cfg := range []opt.Config{opt.Cust, opt.CustMM, opt.CHA, opt.Selective} {
		var lo, hi float64 = 1e9, -1e9
		for _, name := range s.Names {
			v, ok := s.norm(name, cfg, func(r *Result) float64 { return float64(r.DynamicDispatches()) })
			if !ok {
				continue
			}
			elim := 1 - v
			lo, hi = minf(lo, elim), maxf(hi, elim)
		}
		if lo > hi {
			fmt.Fprintf(w, "  %-9s FAIL\n", cfg)
			continue
		}
		fmt.Fprintf(w, "  %-9s %.0f%%..%.0f%%\n", cfg, lo*100, hi*100)
	}
}

// CSV writes the full result matrix in machine-readable form (one row
// per benchmark × configuration), for plotting the figures elsewhere.
func (s *Suite) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"benchmark", "config", "engine", "dispatches", "version_selects", "cycles",
		"static_versions", "invoked_versions", "ir_nodes", "steps", "wall_ns",
	}); err != nil {
		return err
	}
	for _, name := range s.Names {
		for _, cfg := range opt.Configs() {
			r := s.Results[name][cfg]
			if r == nil { // contained failure: the cell has no numbers
				continue
			}
			rec := []string{
				name, cfg.String(), r.Engine.String(),
				fmt.Sprint(r.Dispatches), fmt.Sprint(r.VersionSelects), fmt.Sprint(r.Cycles),
				fmt.Sprint(r.StaticVersions), fmt.Sprint(r.InvokedVersions), fmt.Sprint(r.IRNodes),
				fmt.Sprint(r.Steps), fmt.Sprint(r.Wall.Nanoseconds()),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Extensions measures the two post-paper analyses implemented beyond
// the published system (§6 return-type propagation and RTA-style
// instantiation analysis) on top of CHA and Selective, plus the
// Collections library workload that motivates them.
func Extensions(w io.Writer, ho Options) error {
	fmt.Fprintln(w, "Extensions (beyond the published system): return-type analysis + instantiation analysis")
	fmt.Fprintf(w, "  %-14s %-22s %12s %12s %10s\n", "Program", "config", "dispatches", "cycles", "versions")
	benches := append(programs.All(), programs.Collections())
	var failed []Failure
	for _, b := range benches {
		if err := extensionRows(w, b, ho); err != nil {
			f := failureOf(b.Name, "", err)
			failed = append(failed, f)
			fmt.Fprintf(w, "  %-14s FAIL: %v\n", b.Name, err)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d extension benchmarks failed", len(failed), len(benches))
	}
	return nil
}

// extensionRows measures one benchmark's extension rows inside the
// fault boundary, so a fault in one program degrades only its rows.
func extensionRows(w io.Writer, b programs.Benchmark, ho Options) error {
	_, err := pipeline.Guard(pipeline.StageHarness, b.Name, "", func() (struct{}, error) {
		return struct{}{}, extensionRowsRaw(w, b, ho)
	})
	return err
}

func extensionRowsRaw(w io.Writer, b programs.Benchmark, ho Options) error {
	p, err := driver.LoadNamed(b.Name, b.Source)
	if err != nil {
		return err
	}
	rows := []struct {
		name string
		cfg  opt.Config
		ext  bool
	}{
		{"Base", opt.Base, false},
		{"CHA", opt.CHA, false},
		{"CHA+ext", opt.CHA, true},
		{"Selective", opt.Selective, false},
		{"Selective+ext", opt.Selective, true},
	}
	for _, row := range rows {
		c, _, err := prepare(p, b, opt.Options{Config: row.cfg, ReturnTypeAnalysis: row.ext, InstantiationAnalysis: row.ext}, ho)
		if err != nil {
			return err
		}
		res, err := driver.Execute(c, ho.runOptions(ho.testInput(b)))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-14s %-22s %12d %12d %10d\n",
			b.Name, row.name, res.Counters.DynamicDispatches(), res.Counters.Cycles, res.Stats.Versions)
	}
	return nil
}

// Report renders everything.
func (s *Suite) Report(w io.Writer) {
	Table1(w)
	fmt.Fprintln(w)
	Table2(w)
	fmt.Fprintln(w)
	s.Figure5a(w)
	fmt.Fprintln(w)
	s.Figure5b(w)
	fmt.Fprintln(w)
	s.Figure6a(w)
	fmt.Fprintln(w)
	s.Figure6b(w)
	fmt.Fprintln(w)
	s.DispatchEliminationSummary(w)
	fmt.Fprintln(w)
	s.SpecStats(w)
	fmt.Fprintln(w)
	s.Headline(w)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
