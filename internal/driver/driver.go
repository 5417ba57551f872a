// Package driver ties the pipeline together: parse → lower → (profile
// with an instrumented Base run) → selective specialization → compile
// under a configuration → execute and measure. It is the programmatic
// API behind the CLIs, the benchmark harness and the examples.
package driver

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"selspec/internal/hier"
	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/obs"
	"selspec/internal/opt"
	"selspec/internal/pipeline"
	"selspec/internal/profdb"
	"selspec/internal/profile"
	"selspec/internal/specialize"
	"selspec/internal/vm"
)

// Pipeline holds a loaded program; one Pipeline can be compiled and run
// under many configurations (the call sites and method identities stay
// stable, so profiles carry across).
type Pipeline struct {
	Prog *ir.Program
	// Label names the compilation unit in contained-fault diagnostics
	// (benchmark name, file path, ...); empty for anonymous sources.
	Label string
}

// Load parses and lowers source code. Every stage runs inside the
// pipeline fault boundary: an internal panic in the front end comes
// back as a *pipeline.StageError instead of crashing the process.
func Load(src string) (*Pipeline, error) {
	return LoadNamed("", src)
}

// LoadNamed is Load with a unit label for fault diagnostics.
func LoadNamed(label, src string) (*Pipeline, error) {
	prog, err := pipeline.Load(label, src)
	if err != nil {
		return nil, err
	}
	return &Pipeline{Prog: prog, Label: label}, nil
}

// MustLoad is Load for known-good embedded sources.
func MustLoad(src string) *Pipeline {
	p, err := Load(src)
	if err != nil {
		panic(fmt.Sprintf("driver.MustLoad: %v", err))
	}
	return p
}

// RunOptions controls one execution.
type RunOptions struct {
	// Overrides replaces named global variables after initialization
	// and before main() — how the harness switches between training and
	// measurement inputs without perturbing site/method identities.
	Overrides map[string]int64
	// CaptureOutput buffers print/println output into Result.Output.
	CaptureOutput bool
	// Out, when CaptureOutput is off, receives print/println output as
	// the program runs (nil discards it).
	Out io.Writer
	// Trace, when non-nil, receives one line per dynamic dispatch.
	Trace io.Writer
	// Label names the compilation unit in the run's and the verifier's
	// stage errors (benchmark name, file path, ...).
	Label string
	// Profile, when non-nil, records the weighted call graph.
	Profile *profile.CallGraph
	// Mechanism selects the dispatch mechanism (default PIC).
	Mechanism interp.Mechanism
	// StepLimit guards against runaway programs (0 = unlimited).
	StepLimit uint64
	// DepthLimit bounds the Mini-Cecil call depth (0 =
	// interp.DefaultDepthLimit, negative = unlimited): deep guest
	// recursion raises a positioned RuntimeError instead of fatally
	// overflowing the Go stack.
	DepthLimit int
	// Timeout aborts the run after this wall-clock duration (0 = no
	// timeout) — the per-cell guard the experiment grid uses.
	Timeout time.Duration
	// Context, when non-nil, cancels the run when it is done; composed
	// with Timeout when both are set.
	Context context.Context
	// Metrics, when non-nil, receives the run's dispatch and
	// interpreter counters (PIC hits, GF-cache hits, sends, steps, ...).
	// Registration is idempotent, so many runs may share one registry.
	// Each Execute re-resolves the instruments under the registry lock;
	// hot callers should register once with NewInstruments and set
	// Instruments instead.
	Metrics *obs.Registry
	// Instruments supplies pre-registered instrument bundles (see
	// NewInstruments) and takes precedence over Metrics, keeping the
	// registry mutex entirely off the per-request path.
	Instruments *Instruments
	// Engine selects the execution tier (default EngineVM). A bytecode
	// compile failure is an internal error, not a switch to the tree
	// tier.
	Engine Engine
	// Verify compiles every proc whose body exists and runs the
	// bytecode verifier (internal/vmcheck) over them before execution,
	// and — for the VM engine — again after the run so the versions
	// built lazily are covered too. A verifier finding aborts the run
	// with a positioned *pipeline.StageError. When the tree engine is
	// selected the bytecode module is still compiled and verified.
	Verify bool
}

// Instruments bundles the interpreter and dispatch-cache instruments
// pre-registered against one registry. A long-lived caller (the HTTP
// server) builds this once at construction and shares it across every
// Execute via RunOptions.Instruments, instead of paying ~10 registry
// mutex acquisitions per request to re-resolve the same shared series.
// Every field is backed by atomic counters, so one bundle may serve
// any number of concurrent runs.
type Instruments struct {
	Interp *interp.Metrics
	Lookup *hier.LookupMetrics
}

// NewInstruments registers (idempotently) the interpreter and
// GF-cache instruments in r. Returns nil on the nil registry — the
// disabled mode, which Execute treats as "no metrics".
func NewInstruments(r *obs.Registry) *Instruments {
	if r == nil {
		return nil
	}
	return &Instruments{
		Interp: interp.NewMetrics(r),
		Lookup: hier.NewLookupMetrics(r),
	}
}

// Result reports one execution.
type Result struct {
	Config   opt.Config
	Engine   Engine // tier that ran
	Value    string
	Output   string
	Counters interp.Counters
	Stats    opt.Stats
	Invoked  int    // distinct versions that ran
	Steps    uint64 // interpreter steps charged (engine-independent)
	Wall     time.Duration
}

// Execute runs an already-compiled program. The interpreter runs
// inside the pipeline fault boundary with the RunOptions resource
// guards applied: step limit, call-depth limit, and wall-clock
// timeout/cancellation. Mini-Cecil runtime errors come back as
// *interp.RuntimeError; interpreter-internal panics come back as
// *pipeline.StageError.
func Execute(c *opt.Compiled, ro RunOptions) (*Result, error) {
	in := interp.New(c)
	var buf bytes.Buffer
	in.Out = ro.Out
	if ro.CaptureOutput {
		in.Out = &buf
	}
	in.Trace = ro.Trace
	in.Mech = ro.Mechanism
	in.Profile = ro.Profile
	in.StepLimit = ro.StepLimit
	in.DepthLimit = ro.DepthLimit
	ins := ro.Instruments
	if ins == nil {
		ins = NewInstruments(ro.Metrics)
	}
	if ins != nil {
		in.Obs = ins.Interp
		if c.Prog.H != nil {
			c.Prog.H.SetLookupMetrics(ins.Lookup)
		}
	}

	ctx := ro.Context
	if ro.Timeout > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ro.Timeout)
		defer cancel()
	}
	in.Ctx = ctx

	// Apply global overrides after initialization: Run initializes
	// globals itself, so we pre-validate names here and patch the
	// initializer values. Overrides mutate c, so concurrent Executes
	// (the parallel harness) must each use their own Compiled.
	if len(ro.Overrides) > 0 {
		saved, err := overrideGlobals(c, ro.Overrides)
		if err != nil {
			return nil, err
		}
		defer restoreGlobals(c, saved)
	}

	cfg := c.Opts.Config.String()
	var mach *vm.Machine
	if ro.Engine == EngineVM || ro.Verify {
		var err error
		if mach, err = vm.New(in); err == nil && ro.Verify {
			err = mach.Module().CompileAll()
		}
		if err != nil {
			return nil, err
		}
	}
	if ro.Verify {
		if err := pipeline.VerifyMachine(ro.Label, cfg, mach); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	var val interp.Value
	var err error
	if ro.Engine == EngineVM {
		val, err = pipeline.RunVM(ro.Label, cfg, mach)
	} else {
		val, err = pipeline.RunInterp(ro.Label, cfg, in)
	}
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	// Lazy configurations compile procs mid-run; re-verify so every
	// specialized version that executed has been checked.
	if ro.Verify && ro.Engine == EngineVM {
		if err := pipeline.VerifyMachine(ro.Label, cfg, mach); err != nil {
			return nil, err
		}
	}
	return &Result{
		Config:   c.Opts.Config,
		Engine:   ro.Engine,
		Value:    val.String(),
		Output:   buf.String(),
		Counters: in.Counters,
		Stats:    c.Stats(),
		Invoked:  in.InvokedVersions(),
		Steps:    in.Steps(),
		Wall:     wall,
	}, nil
}

// overrideGlobals temporarily swaps the compiled initializers of the
// named globals for integer constants, returning the displaced
// initializers. The saved set stays on the caller's stack rather than
// in package state, so runs of different Compiled programs never
// contend.
func overrideGlobals(c *opt.Compiled, over map[string]int64) (map[int]ir.Node, error) {
	saved := map[int]ir.Node{}
	for name, val := range over {
		idx, ok := c.Prog.GlobalIdx[name]
		if !ok {
			return nil, fmt.Errorf("driver: override of unknown global %q", name)
		}
		saved[idx] = c.GlobalInits[idx]
		c.GlobalInits[idx] = &ir.Const{Kind: ir.KInt, Int: val}
	}
	return saved, nil
}

func restoreGlobals(c *opt.Compiled, saved map[int]ir.Node) {
	for idx, n := range saved {
		c.GlobalInits[idx] = n
	}
}

// BuildOptions describes one compile of a loaded program.
type BuildOptions struct {
	// Opt is the configuration and its ablation flags.
	Opt opt.Options
	// Spec tunes the specialization algorithm (Selective only).
	Spec specialize.Params
	// Train is the Selective training run, passed to Execute as is: its
	// overrides select the training input, and its guards, mechanism and
	// engine apply to the run. A non-nil Train.Profile receives the
	// recorded call graph, so the caller can keep it.
	Train RunOptions
	// Profile, when set, is an already-loaded profile (see ReadProfile)
	// that replaces the training run.
	Profile *profile.CallGraph
}

// Build compiles the program under bo.Opt.Config. For Selective it
// follows the paper's compile path (§3.7.2, Figure 4): profile the
// unspecialized program on the training input (or take bo.Profile), run
// the specialization algorithm, then compile with its directives. The
// returned stats are non-nil only for Selective.
func (p *Pipeline) Build(bo BuildOptions) (*opt.Compiled, *specialize.Stats, error) {
	oo := bo.Opt
	var stats *specialize.Stats
	if oo.Config == opt.Selective {
		cg := bo.Profile
		if cg == nil {
			var err error
			if cg, err = p.Profile(bo.Train); err != nil {
				return nil, nil, fmt.Errorf("training run: %w", err)
			}
		}
		res, err := pipeline.Specialize(p.Label, p.Prog, cg, bo.Spec)
		if err != nil {
			return nil, nil, err
		}
		oo.Specializations, stats = res.Specializations, &res.Stats
	}
	c, err := pipeline.Compile(p.Label, p.Prog, oo)
	if err != nil {
		return nil, nil, err
	}
	return c, stats, nil
}

// Profile compiles the program under Base and runs it with
// instrumentation as ro describes (its overrides select the training
// input), returning the weighted call graph recorded in ro.Profile or,
// when that is nil, in a new one. The paper gathers profiles the same
// way: an instrumented run of the unspecialized system (§3.7.2). The
// training compile is lazy: a Base body does not depend on compile
// order, so building only the bodies the run reaches records the same
// profile as an eager compile.
func (p *Pipeline) Profile(ro RunOptions) (*profile.CallGraph, error) {
	c, err := pipeline.Compile(p.Label, p.Prog, opt.Options{Config: opt.Base, Lazy: true})
	if err != nil {
		return nil, err
	}
	if ro.Profile == nil {
		ro.Profile = profile.NewCallGraph(p.Prog)
	}
	if _, err := Execute(c, ro); err != nil {
		return nil, err
	}
	return ro.Profile, nil
}

// ReadProfile loads a saved profile in place of a training run: the
// aggregate the profile database in dbDir holds for the benchmark named
// bench, or else the JSON file at path (as "selspec -profile" writes
// it). dbFlag names the database option in usage errors. It returns nil
// when neither source is set.
func (p *Pipeline) ReadProfile(path, dbDir, dbFlag, bench string) (*profile.CallGraph, error) {
	cg := profile.NewCallGraph(p.Prog)
	switch {
	case dbDir != "":
		// The database is keyed by benchmark name; a file program has no
		// stable identity to look up.
		if bench == "" {
			return nil, fmt.Errorf("%s requires -bench", dbFlag)
		}
		if path != "" {
			return nil, fmt.Errorf("%s and -use-profile are mutually exclusive", dbFlag)
		}
		// Open replays the WAL synchronously, so the export reflects
		// exactly the acked uploads — same bytes a restart would serve.
		db, err := profdb.Open(dbDir, profdb.Config{})
		if err != nil {
			return nil, fmt.Errorf("opening profile database: %w", err)
		}
		wire, err := db.Export(bench)
		db.Close()
		if err != nil {
			return nil, fmt.Errorf("profile database: %w", err)
		}
		if err := cg.LoadWire(wire); err != nil {
			return nil, fmt.Errorf("database profile does not match program: %w", err)
		}
	case path != "":
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if err := cg.UnmarshalInto(data); err != nil {
			return nil, err
		}
	default:
		return nil, nil
	}
	return cg, nil
}

// ConfigOptions describes one full configuration run.
type ConfigOptions struct {
	// Opt is the configuration and its ablation flags; Spec tunes the
	// specialization algorithm.
	Opt  opt.Options
	Spec specialize.Params
	// Train holds the training-input overrides for Selective's profile
	// run; Test the measurement input.
	Train map[string]int64
	Test  map[string]int64
	// Run is the guards, engine and capture settings of both runs. The
	// training run always dispatches through PICs, and Out and Trace
	// see only the measured run.
	Run RunOptions
}

// RunConfig executes the complete pipeline for one configuration: it
// builds the program (for Selective, after a training run on Train) and
// measures it on the test input.
func (p *Pipeline) RunConfig(co ConfigOptions) (*Result, error) {
	train := co.Run
	train.Overrides = co.Train
	train.Mechanism = interp.MechPIC
	train.Out, train.Trace = nil, nil
	c, _, err := p.Build(BuildOptions{Opt: co.Opt, Spec: co.Spec, Train: train})
	if err != nil {
		return nil, err
	}
	ro := co.Run
	ro.Overrides = co.Test
	return Execute(c, ro)
}
