// Package pipeline is the fault-containment boundary around the
// compilation pipeline (parse → lower → hierarchy → profile →
// specialize → compile → interpret → check). Every stage entry point is
// available here wrapped in a panic-recovering guard that converts
// internal panics into a structured *StageError — stage name, program
// label, configuration, source position when the fault carries one, and
// the goroutine stack — so drivers get diagnostics instead of crashes.
//
// The design follows interp.Run's long-standing RuntimeError recovery:
// a fault inside one compilation unit is an error value for that unit,
// never a process abort. The experiment harness (internal/bench) leans
// on this to keep a multi-minute benchmark grid alive when one cell is
// poisoned, in the spirit of Vortex-style compilers that contain faults
// per compilation unit and of profile-guided systems that treat a
// failed compilation as a recoverable, deoptimizable event.
//
// Errors returned by a stage in the ordinary way (parse errors, runtime
// errors, ...) pass through unchanged: they already carry context and
// callers match on their text and types. Only panics are converted.
package pipeline

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"selspec/internal/check"
	"selspec/internal/hier"
	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/lang"
	"selspec/internal/opt"
	"selspec/internal/profile"
	"selspec/internal/specialize"
	"selspec/internal/vm"
	"selspec/internal/vmcheck"
)

// Stage names one pipeline stage for diagnostics.
type Stage string

// The pipeline stages, in execution order.
const (
	StageParse      Stage = "parse"
	StageHierarchy  Stage = "hierarchy"
	StageLower      Stage = "lower"
	StageProfile    Stage = "profile"
	StageSpecialize Stage = "specialize"
	StageCompile    Stage = "compile"
	StageInterp     Stage = "interp"
	StageCheck      Stage = "check"
	// StageVerify is the load-time bytecode verifier (internal/vmcheck)
	// run over a compiled machine before (and, for lazily compiling
	// configurations, after) execution.
	StageVerify Stage = "verify"
	// StageHarness is the experiment harness itself: the outermost
	// per-cell guard in a benchmark grid, catching faults in harness
	// code and caller-supplied hooks that no inner stage boundary saw.
	StageHarness Stage = "harness"
)

// StageError is a contained pipeline fault: one stage of one
// compilation unit panicked (or, for wrapped errors, failed) and the
// boundary converted it into a value the caller can record and keep
// going from.
type StageError struct {
	Stage   Stage
	Program string   // unit label: benchmark name, file, ... (may be empty)
	Config  string   // compiler configuration (may be empty)
	Pos     lang.Pos // source position, when the fault carries one
	Err     error    // underlying cause
	Stack   []byte   // goroutine stack; non-nil only for recovered panics
}

func (e *StageError) Error() string {
	s := fmt.Sprintf("stage %s", e.Stage)
	if e.Program != "" {
		s += " [" + e.Program
		if e.Config != "" {
			s += "/" + e.Config
		}
		s += "]"
	}
	if e.Pos.Line > 0 {
		s += " at " + e.Pos.String()
	}
	if e.Stack != nil {
		s += " panicked"
	}
	return s + ": " + e.Err.Error()
}

func (e *StageError) Unwrap() error { return e.Err }

// positioned is any error that can report a source position.
// lang.Error and interp.RuntimeError both implement it.
type positioned interface{ Position() lang.Pos }

// posOf extracts a source position from an error chain, if any link
// carries one.
func posOf(err error) lang.Pos {
	var p positioned
	if errors.As(err, &p) {
		return p.Position()
	}
	return lang.Pos{}
}

// Guard runs fn inside the recovery boundary for one (stage, unit)
// pair. A panic in fn becomes a *StageError carrying the recovered
// value and the goroutine stack; ordinary errors pass through
// untouched. The zero value of T is returned alongside any error.
//
// Every Guard entry is also a named fault point: when an Injector is
// armed (tests, chaos mode — see fault.go), it may panic, fail, or
// delay the stage here, inside the recovery boundary, so injected
// faults are contained exactly like organic ones.
func Guard[T any](stage Stage, program, config string, fn func() (T, error)) (out T, err error) {
	obsv := observing.Load()
	var start time.Time
	if obsv != nil {
		start = time.Now()
	}
	defer func() {
		r := recover()
		if r != nil {
			cause, ok := r.(error)
			if !ok {
				cause = fmt.Errorf("panic: %v", r)
			}
			var zero T
			out = zero
			err = &StageError{
				Stage:   stage,
				Program: program,
				Config:  config,
				Pos:     posOf(cause),
				Err:     cause,
				Stack:   debug.Stack(),
			}
		}
		if obsv != nil {
			obsv.observe(stage, program, config, time.Since(start), r != nil, err != nil)
		}
	}()
	if ferr := inject(stage, program, config); ferr != nil {
		var zero T
		return zero, ferr
	}
	return fn()
}

// Parse runs the lexer and parser inside the boundary.
func Parse(label, src string) (*lang.Program, error) {
	return Guard(StageParse, label, "", func() (*lang.Program, error) {
		return lang.Parse(src)
	})
}

// Build constructs the class hierarchy inside the boundary.
func Build(label string, parsed *lang.Program) (*hier.Hierarchy, error) {
	return Guard(StageHierarchy, label, "", func() (*hier.Hierarchy, error) {
		return hier.Build(parsed)
	})
}

// Lower lowers a parsed program against a pre-built hierarchy inside
// the boundary.
func Lower(label string, parsed *lang.Program, h *hier.Hierarchy) (*ir.Program, error) {
	return Guard(StageLower, label, "", func() (*ir.Program, error) {
		return ir.LowerWith(parsed, h)
	})
}

// Load is the guarded front half of the pipeline: parse, build the
// hierarchy, lower. Each stage is contained separately so a fault names
// the stage that produced it.
func Load(label, src string) (*ir.Program, error) {
	parsed, err := Parse(label, src)
	if err != nil {
		return nil, err
	}
	h, err := Build(label, parsed)
	if err != nil {
		return nil, err
	}
	return Lower(label, parsed, h)
}

// Compile runs the optimizing middle end inside the boundary. The
// configuration is recorded on any contained fault. When observing,
// the optimizer counters take the initializers' counts now and each
// version body's where it is built, during a run or in CompileAll.
func Compile(label string, p *ir.Program, oo opt.Options) (*opt.Compiled, error) {
	c, err := Guard(StageCompile, label, oo.Config.String(), func() (*opt.Compiled, error) {
		return opt.Compile(p, oo)
	})
	if err == nil {
		if o := observing.Load(); o != nil {
			s := c.Stats() // Compile builds no version body
			o.observeCompile(s.StaticBound, s.InlinedCalls)
			c.OnBody(o.observeCompile)
		}
	}
	return c, err
}

// CompileAll builds every static version body of c
// (opt.Compiled.CompileAll) inside the boundary, as a compile stage.
func CompileAll(label string, c *opt.Compiled) error {
	_, err := Guard(StageCompile, label, c.Opts.Config.String(), func() (struct{}, error) {
		return struct{}{}, c.CompileAll()
	})
	return err
}

// Specialize runs the selective specialization algorithm inside the
// boundary (the algorithm itself returns no error; only a contained
// panic can produce one).
func Specialize(label string, p *ir.Program, cg *profile.CallGraph, params specialize.Params) (*specialize.Result, error) {
	res, err := Guard(StageSpecialize, label, opt.Selective.String(), func() (*specialize.Result, error) {
		return specialize.Run(p, cg, params), nil
	})
	if err == nil {
		if o := observing.Load(); o != nil {
			o.observeSpecialize(res.Stats)
		}
	}
	return res, err
}

// RunInterp executes a prepared interpreter inside the boundary.
// Mini-Cecil runtime errors come back as *interp.RuntimeError exactly
// as from in.Run; only interpreter-internal panics are converted.
func RunInterp(label, config string, in *interp.Interp) (interp.Value, error) {
	return Guard(StageInterp, label, config, func() (interp.Value, error) {
		return in.Run()
	})
}

// RunVM executes a prepared bytecode machine inside the same boundary
// (and under the same stage name) as RunInterp: the execution tier is
// an implementation detail of the interp stage, so contained-fault
// reports and stage metrics stay comparable across engines.
func RunVM(label, config string, m *vm.Machine) (interp.Value, error) {
	return Guard(StageInterp, label, config, func() (interp.Value, error) {
		return m.Run()
	})
}

// CheckSource runs the static analyzer over one source unit inside the
// boundary: the analyzer must never crash the process on a parseable
// program.
func CheckSource(label, src string, opts check.Options) ([]check.Diagnostic, error) {
	return Guard(StageCheck, label, "", func() ([]check.Diagnostic, error) {
		return check.Source(label, src, opts)
	})
}

// VerifyMachine runs the bytecode verifier over every proc the machine
// has compiled so far, inside the boundary. A verifier finding comes
// back as a positioned, stage-attributed *StageError wrapping the
// *vmcheck.Error.
func VerifyMachine(label, config string, m *vm.Machine) error {
	_, err := Guard(StageVerify, label, config, func() (struct{}, error) {
		return struct{}{}, vmcheck.Verify(m)
	})
	if err == nil {
		return nil
	}
	var se *StageError
	if errors.As(err, &se) {
		return err
	}
	return &StageError{Stage: StageVerify, Program: label, Config: config, Pos: posOf(err), Err: err}
}

// CheckBytecode runs the post-compile bytecode diagnostics (unreachable
// code, dead stores) over a compiled machine inside the boundary.
func CheckBytecode(label string, m *vm.Machine) ([]check.Diagnostic, error) {
	return Guard(StageCheck, label, "", func() ([]check.Diagnostic, error) {
		return vmcheck.Diagnose(m, label)
	})
}
