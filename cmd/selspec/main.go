// Command selspec compiles and runs a Mini-Cecil program under one of
// the paper's five compiler configurations, printing the program output
// and (optionally) the dispatch/code-space statistics the paper
// evaluates. The check subcommand runs the static analyzer instead of
// the program.
//
// Usage:
//
//	selspec [flags] program.mc
//	selspec [flags] -bench Richards
//	selspec check [-format text|json] [-bench Name] program.mc...
//	selspec serve [-addr host:port] [-max-concurrent N] [-timeout 30s]
//	selspec fleet [-addr host:port] [-workers N] [-retries N]
//	selspec gen [-seed N] [-classes N] [-methods N] [-depth N] [-probe]
//
// Examples:
//
//	selspec -config Base prog.mc
//	selspec -config Selective -threshold 1000 -stats prog.mc
//	selspec -bench Richards -config Cust-MM -stats
//	selspec -profile out.json prog.mc        # write a training profile
//	selspec -use-profile out.json -config Selective prog.mc
//	selspec check -format json prog.mc       # static diagnostics as JSON
//	selspec serve -addr :8080                # fault-isolated HTTP service
//	selspec fleet -workers 4 -addr :8080     # supervised multi-process fleet
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"selspec/internal/check"
	"selspec/internal/driver"
	"selspec/internal/interp"
	"selspec/internal/obs"
	"selspec/internal/opt"
	"selspec/internal/pipeline"
	"selspec/internal/profdb"
	"selspec/internal/programs"
	"selspec/internal/specialize"
	"selspec/internal/vm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "selspec:", err)
		var ec interface{ ExitCode() int }
		if errors.As(err, &ec) {
			os.Exit(ec.ExitCode())
		}
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) > 1 && os.Args[1] == "check" {
		return runCheck(os.Args[2:])
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		return runServe(os.Args[2:])
	}
	if len(os.Args) > 1 && os.Args[1] == "fleet" {
		return runFleet(os.Args[2:])
	}
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		return runGen(os.Args[2:])
	}
	var (
		configName = flag.String("config", "Base", "compiler configuration: "+strings.Join(opt.ConfigNames(), ", "))
		benchName  = flag.String("bench", "", "run an embedded benchmark ("+strings.Join(programs.Names(), ", ")+") instead of a file")
		threshold  = flag.Int64("threshold", specialize.DefaultThreshold, "specialization threshold (arc invocations)")
		mechName   = flag.String("dispatch", "PIC", "dispatch mechanism: "+strings.Join(interp.MechanismNames(), ", "))
		engineName = flag.String("engine", "", "execution engine: "+strings.Join(driver.EngineNames(), ", ")+" (default vm; tree is the reference interpreter)")
		stats      = flag.Bool("stats", false, "print dispatch and code-space statistics")
		writeProf  = flag.String("profile", "", "run under Base with instrumentation and write the call-graph profile to this file")
		useProf    = flag.String("use-profile", "", "read a previously written profile instead of running a training pass (Selective)")
		profDBDir  = flag.String("profile-db", "", "read the aggregated profile for -bench from this profile database directory (Selective)")
		noInline   = flag.Bool("no-inline", false, "disable inlining")
		retTypes   = flag.Bool("return-types", false, "enable return-value class propagation (paper §6 extension)")
		rta        = flag.Bool("instantiation", false, "enable instantiation-aware (RTA-style) class analysis")
		lazy       = flag.Bool("lazy", false, "lazy (dynamic) compilation: compile method versions on first invocation")
		verify     = flag.Bool("verify", false, "compile every proc whose body exists and run the bytecode verifier over them before execution, then again over the procs the run built lazily")
		stepLimit  = flag.Uint64("step-limit", 0, "abort after this many interpreter steps (0 = unlimited)")
		depthLimit = flag.Int("depth-limit", 0, "abort beyond this call depth (0 = default limit, negative = unlimited)")
		timeout    = flag.Duration("timeout", 0, "abort after this wall-clock duration, e.g. 30s (0 = none)")
		traceDisp  = flag.Bool("trace", false, "trace every dynamic dispatch decision and print a per-stage span summary to stderr")
	)
	flag.Parse()

	// -trace also times every pipeline stage this invocation runs
	// (parse, lower, profile, specialize, compile, interp) and prints
	// the aggregated span summary on the way out.
	if *traceDisp {
		tr := obs.NewTracer(0)
		restore := pipeline.SetObserver(pipeline.NewObserver(nil, tr))
		defer restore()
		defer func() {
			fmt.Fprintln(os.Stderr, "selspec: per-stage span summary")
			tr.WriteSummary(os.Stderr)
		}()
	}

	cfg, err := opt.ParseConfig(*configName)
	if err != nil {
		return err
	}
	mech, err := interp.ParseMechanism(*mechName)
	if err != nil {
		return err
	}
	engine, err := driver.ParseEngine(*engineName)
	if err != nil {
		return err
	}

	// Resolve the program source.
	var src, label string
	var train, test map[string]int64
	switch {
	case *benchName != "":
		b, ok := programs.ByName(*benchName)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (valid: %s)", *benchName, strings.Join(programs.Names(), ", "))
		}
		src, train, test, label = b.Source, b.Train, b.Test, b.Name
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			return err
		}
		src, label = string(data), flag.Arg(0)
	default:
		flag.Usage()
		return fmt.Errorf("expected a program file or -bench name")
	}

	p, err := driver.LoadNamed(label, src)
	if err != nil {
		return err
	}
	// Ctrl-C / SIGTERM cancels the run through the same context
	// plumbing as -timeout: the interpreter winds down with a
	// positioned error and pending output (profile files, stats) is
	// either completely written or not started — never torn mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	guards := driver.RunOptions{StepLimit: *stepLimit, DepthLimit: *depthLimit, Timeout: *timeout, Context: ctx}

	// Profile-writing mode: an instrumented Base run on the training input.
	if *writeProf != "" {
		ro := guards
		ro.Overrides = train
		cg, err := p.Profile(ro)
		if err != nil {
			return err
		}
		data, err := cg.MarshalJSON()
		if err != nil {
			return err
		}
		// Atomic write: a crash (or Ctrl-C) mid-write never leaves a
		// torn profile behind — consumers see the old file or the new
		// one, never a prefix.
		if err := profdb.WriteFileAtomic(*writeProf, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d arcs (total weight %d) to %s\n", cg.Len(), cg.TotalWeight(), *writeProf)
		return nil
	}

	bo := driver.BuildOptions{
		Opt: opt.Options{Config: cfg, DisableInlining: *noInline, Lazy: *lazy,
			ReturnTypeAnalysis: *retTypes, InstantiationAnalysis: *rta},
		Spec:  specialize.Params{Threshold: *threshold},
		Train: guards,
	}
	bo.Train.Overrides = train
	if cfg == opt.Selective {
		if bo.Profile, err = p.ReadProfile(*useProf, *profDBDir, "-profile-db", *benchName); err != nil {
			return err
		}
	}
	c, spec, err := p.Build(bo)
	if err != nil {
		return err
	}
	if *stats && spec != nil {
		fmt.Fprintf(os.Stderr, "specialized %d methods (+%d versions, max %d, avg %.2f)\n",
			spec.MethodsSpecialized, spec.AddedSpecs, spec.MaxPerMethod, spec.AvgPerMethod)
	}
	ro := guards
	ro.Overrides, ro.Out, ro.Label = test, os.Stdout, label
	ro.Mechanism, ro.Engine, ro.Verify = mech, engine, *verify
	if *traceDisp {
		ro.Trace = os.Stderr
	}
	res, err := driver.Execute(c, ro)
	if err != nil {
		return err
	}
	fmt.Printf("=> %s\n", res.Value)

	if *stats {
		ct, st := res.Counters, res.Stats
		fmt.Fprintf(os.Stderr, "dispatches=%d (PIC hits=%d misses=%d) version-selects=%d static-calls=%d\n",
			ct.Dispatches, ct.PICHits, ct.PICMisses, ct.VersionSelects, ct.StaticCalls)
		fmt.Fprintf(os.Stderr, "cycles=%d method-entries=%d closure-calls=%d\n",
			ct.Cycles, ct.MethodEntries, ct.ClosureCalls)
		fmt.Fprintf(os.Stderr, "versions=%d (invoked %d) ir-nodes=%d inlined=%d static-bound=%d\n",
			st.Versions, res.Invoked, st.IRNodes, st.InlinedCalls, st.StaticBound)
	}
	return nil
}

// findingsError reports that the analyses produced diagnostics — the
// program is suspect, the analyzer is fine. Exit status 1.
type findingsError struct{ n int }

func (e *findingsError) Error() string {
	return fmt.Sprintf("check: %d diagnostic%s", e.n, pluralS(e.n))
}
func (e *findingsError) ExitCode() int { return 1 }

// checkInternalError reports that the analyzer itself failed (contained
// panic, unreadable input mid-run, encoder failure) — distinct from
// findings so CI can tell "program has issues" from "tool broke".
// Exit status 2.
type checkInternalError struct{ err error }

func (e *checkInternalError) Error() string { return "check: internal error: " + e.err.Error() }
func (e *checkInternalError) Unwrap() error { return e.err }
func (e *checkInternalError) ExitCode() int { return 2 }

// runCheck implements "selspec check": run the static analyses from
// internal/check over files and/or an embedded benchmark, plus the
// bytecode diagnostics from internal/vmcheck when the unit compiles,
// print the diagnostics, and fail when any were found. Exit status: 0
// clean, 1 findings, 2 internal analyzer error.
func runCheck(args []string) error {
	fs := flag.NewFlagSet("selspec check", flag.ContinueOnError)
	var (
		format    = fs.String("format", check.Formats()[0], "output format: "+strings.Join(check.Formats(), ", "))
		inst      = fs.Bool("instantiation", true, "sharpen class sets with instantiation (RTA-style) analysis")
		benchName = fs.String("bench", "", "check an embedded benchmark ("+strings.Join(programs.Names(), ", ")+") instead of a file")
		bytecode  = fs.Bool("bytecode", true, "also run the bytecode-level checks (unreachable code, dead stores) over the compiled program")
		list      = fs.Bool("checks", false, "list the available checks and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, info := range check.Catalog() {
			fmt.Printf("%-24s %s\n", info.ID, info.Description)
		}
		return nil
	}
	validFormat := false
	for _, f := range check.Formats() {
		validFormat = validFormat || f == *format
	}
	if !validFormat {
		return fmt.Errorf("unknown format %q (valid: %s)", *format, strings.Join(check.Formats(), ", "))
	}

	type unit struct{ label, src string }
	var units []unit
	if *benchName != "" {
		b, ok := programs.ByName(*benchName)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (valid: %s)", *benchName, strings.Join(programs.Names(), ", "))
		}
		units = append(units, unit{b.Name, b.Source})
	}
	for _, f := range fs.Args() {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		units = append(units, unit{f, string(data)})
	}
	if len(units) == 0 {
		fs.Usage()
		return fmt.Errorf("check: expected program files or a -bench name")
	}

	opts := check.Options{Instantiation: *inst}
	var all []check.Diagnostic
	for _, u := range units {
		// The boundary turns an analyzer panic into an error naming the
		// unit, instead of a crash that loses the other units' output.
		ds, err := pipeline.CheckSource(u.label, u.src, opts)
		if err != nil {
			return &checkInternalError{err}
		}
		if *bytecode {
			bds, err := bytecodeDiagnostics(u.label, u.src, len(ds) > 0)
			if err != nil {
				return &checkInternalError{err}
			}
			ds = append(ds, bds...)
		}
		all = append(all, ds...)
	}
	check.Sort(all)

	var werr error
	if *format == "json" {
		werr = check.WriteJSON(os.Stdout, all)
	} else {
		werr = check.WriteText(os.Stdout, all)
	}
	if werr != nil {
		return &checkInternalError{werr}
	}
	if len(all) > 0 {
		return &findingsError{len(all)}
	}
	return nil
}

// bytecodeDiagnostics compiles one unit under Base and runs the
// vm-level checks over the resulting module. A compilation failure on a
// unit the source-level analyses already flagged is skipped; a failure
// on a unit they called clean is an internal error.
func bytecodeDiagnostics(label, src string, hasSourceFindings bool) ([]check.Diagnostic, error) {
	skip := func(err error) ([]check.Diagnostic, error) {
		if hasSourceFindings {
			return nil, nil
		}
		return nil, err
	}
	prog, err := pipeline.Load(label, src)
	if err != nil {
		return skip(err)
	}
	c, err := pipeline.Compile(label, prog, opt.Options{Config: opt.Base})
	if err != nil {
		return skip(err)
	}
	m, err := vm.New(interp.New(c))
	if err == nil {
		err = m.Module().CompileAll()
	}
	if err != nil {
		return skip(err)
	}
	return pipeline.CheckBytecode(label, m)
}

func pluralS(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}
