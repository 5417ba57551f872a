// Command paperbench regenerates the evaluation of the paper (Section
// 4): Tables 1 and 2, both panels of Figures 5 and 6, the dispatch
// elimination ranges, the §3.2 specialization statistics and the
// headline improvement numbers, measured on this reproduction's four
// benchmarks.
//
// Usage:
//
//	paperbench              # full report
//	paperbench -table 1     # just Table 1
//	paperbench -table 2
//	paperbench -figure 5a   # one figure panel
//	paperbench -figure 6b
//	paperbench -stats       # §3.2 specialization statistics
//	paperbench -headline    # abstract-level claims
//	paperbench -quick       # smaller inputs (fast smoke run)
//	paperbench -json        # write the BENCH_paperbench.json perf trajectory
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"selspec/internal/bench"
	"selspec/internal/driver"
	"selspec/internal/gen"
	"selspec/internal/obs"
	"selspec/internal/pipeline"
	"selspec/internal/profdb"
	"selspec/internal/programs"
	"selspec/internal/specialize"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		table     = flag.String("table", "", "render one table: 1 or 2")
		figure    = flag.String("figure", "", "render one figure panel: 5a, 5b, 6a, 6b")
		stats     = flag.Bool("stats", false, "render the specialization statistics (§3.2)")
		headline  = flag.Bool("headline", false, "render the headline comparison")
		quick     = flag.Bool("quick", false, "use training-size inputs (fast)")
		exts      = flag.Bool("extensions", false, "measure the post-paper extensions (return types + instantiation analysis)")
		csvOut    = flag.Bool("csv", false, "emit the result matrix as CSV")
		jsonOut   = flag.Bool("json", false, "write the perf trajectory (wall, cycles, dispatches) to -out")
		outPath   = flag.String("out", "BENCH_paperbench.json", "output path for -json")
		threshold = flag.Int64("threshold", specialize.DefaultThreshold, "specialization threshold")
		steplimit = flag.Uint64("steplimit", 0, "per-cell interpreter step budget (0 = unlimited)")
		depth     = flag.Int("depthlimit", 0, "per-cell call-depth limit (0 = interpreter default, negative = unlimited)")
		timeout   = flag.Duration("timeout", 0, "per-cell wall-clock budget, e.g. 30s (0 = none)")
		trace     = flag.Bool("trace", false, "print per-stage span summaries (count, failures, wall time) to stderr at exit")
		engineFl  = flag.String("engine", "", "execution engine: vm (default), tree (the reference interpreter), or both; both measures the two tiers interleaved (requires -json) and writes -out plus -baseline-out")
		baseOut   = flag.String("baseline-out", "BENCH_baseline.json", "output path for the tree-tier trajectory in -engine both mode")
		reps      = flag.Int("reps", 1, "repeat each cell's measured run N times, keeping the fastest wall (counters are deterministic and identical across reps)")
		verify    = flag.Bool("verify", false, "run the bytecode verifier over every cell's compiled module (outside the measured window)")
		generated = flag.Int("generated", 0, "append N generated stress programs (internal/gen) to the grid")
		genSeed   = flag.Uint64("seed", 1, "base seed for -generated (program k uses seed+k)")
		genSize   = flag.Int("gen-classes", 40, "classes per generated program")
		probe     = flag.Bool("gen-probe", false, "run the generator scale probe (hierarchy + dispatch-table cost) instead of the grid; sized by -gen-classes/-seed")
	)
	flag.Parse()

	both := *engineFl == "both"
	var engine driver.Engine
	if !both {
		var err error
		if engine, err = driver.ParseEngine(*engineFl); err != nil {
			return err
		}
	}

	if *probe {
		rep, err := gen.Probe(gen.Config{Seed: *genSeed, Classes: *genSize, Methods: 4 * *genSize})
		if err != nil {
			return err
		}
		if *jsonOut {
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				return err
			}
			if err := profdb.WriteFileAtomic(*outPath, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *outPath)
			return nil
		}
		fmt.Println(rep)
		return nil
	}

	// Static tables need no measurements.
	switch *table {
	case "1":
		bench.Table1(os.Stdout)
		return nil
	case "2":
		bench.Table2(os.Stdout)
		return nil
	case "":
	default:
		return fmt.Errorf("unknown table %q", *table)
	}

	// Ctrl-C / SIGTERM flows into every grid cell through the same
	// context plumbing as the per-cell -timeout: cells wind down as
	// contained cancellation failures, the report and failure summary
	// still render, and files in -json mode are never torn mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Generated stress programs ride the grid like the embedded four:
	// program k is fully determined by seed+k, so a failing cell names
	// the exact seed to reproduce it with `selspec gen`.
	var extra []programs.Benchmark
	for k := 0; k < *generated; k++ {
		extra = append(extra, gen.New(gen.Config{
			Seed:    *genSeed + uint64(k),
			Classes: *genSize,
			Methods: 4 * *genSize,
		}).Benchmark())
	}

	ho := bench.Options{
		Quick:      *quick,
		SpecParams: specialize.Params{Threshold: *threshold},
		StepLimit:  *steplimit,
		DepthLimit: *depth,
		Timeout:    *timeout,
		Context:    ctx,
		Engine:     engine,
		Reps:       *reps,
		Verify:     *verify,
		Extra:      extra,
	}

	// -json runs carry the grid's counter snapshot in the trajectory's
	// metrics block; -trace aggregates every Guard boundary into the
	// per-stage summary printed at exit. Either arms the pipeline
	// observer; neither perturbs the measured cells beyond atomic bumps.
	// Pair mode keeps one registry per engine instead (wired inside the
	// both-branch below), so the two trajectories' metrics blocks stay
	// independently collected and byte-comparable.
	var tr *obs.Tracer
	if *jsonOut && !both {
		ho.Metrics = obs.NewRegistry()
	}
	if *trace {
		tr = obs.NewTracer(0)
		defer func() {
			fmt.Fprintln(os.Stderr, "paperbench: per-stage span summary")
			tr.WriteSummary(os.Stderr)
		}()
	}
	if ho.Metrics != nil || tr != nil {
		restore := pipeline.SetObserver(pipeline.NewObserver(ho.Metrics, tr))
		defer restore()
	}

	if *exts {
		if both {
			return fmt.Errorf("-engine both does not support -extensions")
		}
		return bench.Extensions(os.Stdout, ho)
	}

	if both {
		if !*jsonOut {
			return fmt.Errorf("-engine both requires -json")
		}
		hoTree, hoVM := ho, ho
		hoTree.Engine, hoTree.Metrics = driver.EngineTree, obs.NewRegistry()
		hoVM.Engine, hoVM.Metrics = driver.EngineVM, obs.NewRegistry()
		start := time.Now()
		treeSuite, vmSuite, err := bench.RunSuitePair(hoTree, hoVM)
		suiteWall := time.Since(start)
		if err != nil {
			return err
		}
		if err := writeTrajectory(*baseOut, treeSuite, suiteWall, *quick, *reps); err != nil {
			return err
		}
		if err := writeTrajectory(*outPath, vmSuite, suiteWall, *quick, *reps); err != nil {
			return err
		}
		fmt.Printf("wrote %s and %s (suite wall %s)\n", *baseOut, *outPath, suiteWall.Round(time.Millisecond))
		if treeSuite.Failed() || vmSuite.Failed() {
			treeSuite.FailureSummary(os.Stderr)
			vmSuite.FailureSummary(os.Stderr)
			return fmt.Errorf("grid cells failed: %d (tree), %d (vm)",
				len(treeSuite.Failures), len(vmSuite.Failures))
		}
		return nil
	}

	start := time.Now()
	suite, err := bench.RunSuite(ho)
	suiteWall := time.Since(start)
	if err != nil {
		return err
	}

	switch {
	case *jsonOut:
		if err := writeTrajectory(*outPath, suite, suiteWall, *quick, *reps); err != nil {
			return err
		}
		fmt.Printf("wrote %s (suite wall %s)\n", *outPath, suiteWall.Round(time.Millisecond))
	case *csvOut:
		if err := suite.CSV(os.Stdout); err != nil {
			return err
		}
	case *figure == "5a":
		suite.Figure5a(os.Stdout)
	case *figure == "5b":
		suite.Figure5b(os.Stdout)
	case *figure == "6a":
		suite.Figure6a(os.Stdout)
	case *figure == "6b":
		suite.Figure6b(os.Stdout)
	case *figure != "":
		return fmt.Errorf("unknown figure %q", *figure)
	case *stats:
		suite.SpecStats(os.Stdout)
	case *headline:
		suite.Headline(os.Stdout)
	default:
		suite.Report(os.Stdout)
	}

	// Contained per-cell failures degrade the report rather than abort
	// it, but the process still exits non-zero so CI notices.
	if suite.Failed() {
		suite.FailureSummary(os.Stderr)
		return fmt.Errorf("%d of %d grid cells failed", len(suite.Failures),
			len(suite.Failures)+countResults(suite))
	}
	return nil
}

func writeTrajectory(path string, s *bench.Suite, wall time.Duration, quick bool, reps int) error {
	// Render to memory first, then publish atomically: a crash mid-run
	// leaves the previous trajectory intact instead of a torn JSON file
	// that downstream tooling would choke on.
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf, wall, quick, reps); err != nil {
		return err
	}
	return profdb.WriteFileAtomic(path, buf.Bytes(), 0o644)
}

func countResults(s *bench.Suite) int {
	n := 0
	for _, row := range s.Results {
		for _, r := range row {
			if r != nil {
				n++
			}
		}
	}
	return n
}
