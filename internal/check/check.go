// Package check is the static-analysis layer of the reproduction: a
// reusable pass framework over the lowered IR that proves facts about
// message sends before running anything. It keeps
// no class analysis of its own: the dispatch checks read each send's
// argument class sets from the optimizer's intraprocedural class
// analysis (opt.SendArgSets, run under CHA with inlining off) and
// enumerate them with the same class-hierarchy machinery
// (hier.ApplicableClasses, cones, multi-method lookup) the
// selective-specialization optimizer binds sends with, optionally
// sharpened by the instantiation (RTA-style) analysis from
// internal/opt. Because that analysis folds constant conditions, sends
// in branches it proves dead are not reported.
//
// It ships five analyses, each with a stable check ID:
//
//	possible-mnu            a send with no applicable method for some
//	                        statically-possible class tuple
//	ambiguous-dispatch      a statically-possible class tuple with no
//	                        unique most-specific multi-method
//	dead-method             a method unreachable from the program's
//	                        entry points under RTA
//	arity-mismatch          a send whose argument count matches no
//	                        defined method or primitive, from the
//	                        calls the lowerer could not resolve
//	useless-specialization  a declared specialization whose class-set
//	                        tuple is empty or subsumed by overriders
//
// Diagnostics carry file:line:col positions, a severity and the check
// ID, and render deterministically in both text and JSON form.
package check

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"selspec/internal/hier"
	"selspec/internal/ir"
	"selspec/internal/lang"
	"selspec/internal/opt"
)

// Severity classifies a diagnostic.
type Severity string

// The two severity levels: errors are faults the program cannot avoid
// hitting if the flagged code runs; warnings are possible faults or
// code-quality findings.
const (
	SevError   Severity = "error"
	SevWarning Severity = "warning"
)

// Stable check identifiers. The vm-* checks are computed over compiled
// bytecode by internal/vmcheck and merged into the same diagnostic
// stream; their IDs live here so the catalog stays the single list.
const (
	CheckPossibleMNU   = "possible-mnu"
	CheckAmbiguous     = "ambiguous-dispatch"
	CheckDeadMethod    = "dead-method"
	CheckArityMismatch = "arity-mismatch"
	CheckUselessSpec   = "useless-specialization"
	CheckVMUnreachable = "vm-unreachable-code"
	CheckVMDeadStore   = "vm-dead-store"
)

// Info describes one analysis in the catalog.
type Info struct {
	ID          string
	Description string
}

// Catalog lists every analysis the checker runs, in stable order — the
// single source of truth for documentation and the CLI.
func Catalog() []Info {
	return []Info{
		{CheckPossibleMNU, "send with no applicable method for some statically-possible class tuple"},
		{CheckAmbiguous, "statically-possible class tuple with no unique most-specific multi-method"},
		{CheckDeadMethod, "method unreachable from the program's entry points under RTA"},
		{CheckArityMismatch, "send whose argument count matches no defined method or primitive"},
		{CheckUselessSpec, "declared specialization whose class-set tuple is empty or subsumed"},
		{CheckVMUnreachable, "compiled bytecode no path from entry reaches (code after an unconditional return)"},
		{CheckVMDeadStore, "frame-slot write in compiled bytecode that no path ever reads back"},
	}
}

// Diagnostic is one finding, positioned and machine-readable.
type Diagnostic struct {
	Check    string   `json:"check"`
	Severity Severity `json:"severity"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Message  string   `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s [%s]", d.File, d.Line, d.Col, d.Severity, d.Message, d.Check)
}

// Options configures an analysis run.
type Options struct {
	// Instantiation sharpens every class set with the instantiation
	// (RTA-style) analysis from internal/opt: classes the program never
	// creates are excluded, exactly as the compiler's
	// InstantiationAnalysis option does.
	Instantiation bool
	// ProductLimit bounds the number of concrete class tuples
	// enumerated per send; 0 selects the default. Sends whose product
	// exceeds the limit are skipped (never falsely reported).
	ProductLimit int
}

const defaultProductLimit = 4096

func (o Options) productLimit() int {
	if o.ProductLimit <= 0 {
		return defaultProductLimit
	}
	return o.ProductLimit
}

// Sort orders diagnostics deterministically: by file, position, check
// ID, then message — stable across runs for golden-file CI diffs.
func Sort(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// Source parses, builds and analyzes one Mini-Cecil compilation unit.
// The file name is used only to label diagnostics. Parse,
// class-hierarchy and lowering errors are returned as hard errors;
// everything the analyses find comes back as sorted diagnostics. When
// the lowerer met calls it could not resolve, the IR-level analyses
// are skipped and an arity-mismatch diagnostic for each such call is
// returned instead.
func Source(file, src string, opts Options) ([]Diagnostic, error) {
	parsed, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	h, err := hier.Build(parsed)
	if err != nil {
		return nil, err
	}
	prog, err := ir.LowerWith(parsed, h)
	if err != nil {
		var errs ir.Errors
		errors.As(err, &errs)
		var diags []Diagnostic
		for _, e := range errs {
			if uc, ok := e.(*ir.UnresolvedCall); ok {
				diags = append(diags, arityMismatch(file, h, uc))
			}
		}
		if len(diags) == 0 {
			return nil, err
		}
		// A field initializer is lowered once per class that inherits
		// it, so one call can be recorded more than once.
		Sort(diags)
		return slices.Compact(diags), nil
	}
	return Program(file, prog, opts)
}

// arityMismatch reports a call the lowerer could not resolve, listing
// the arities its name is defined with.
func arityMismatch(file string, h *hier.Hierarchy, uc *ir.UnresolvedCall) Diagnostic {
	msg := fmt.Sprintf("unknown selector %s/%d", uc.Name, uc.Arity)
	if uc.PrimArity >= 0 {
		msg = fmt.Sprintf("primitive %s takes %d arguments, got %d", uc.Name, uc.PrimArity, uc.Arity)
	} else if arities := h.Arities(uc.Name); len(arities) > 0 {
		defined := make([]string, len(arities))
		for i, a := range arities {
			defined[i] = fmt.Sprintf("%s/%d", uc.Name, a)
		}
		msg = fmt.Sprintf("no method %s/%d; defined: %s", uc.Name, uc.Arity, strings.Join(defined, ", "))
	}
	return Diagnostic{Check: CheckArityMismatch, Severity: SevError, File: file,
		Line: uc.Pos.Line, Col: uc.Pos.Col, Message: msg}
}

// Program runs the IR-level analyses over an already-lowered program:
// possible-mnu and ambiguous-dispatch over the argument class sets the
// optimizer's class analysis computes for every send
// (opt.SendArgSets), dead-method via RTA reachability, and
// useless-specialization via ApplicableClasses. The result is sorted.
// An error means the optimizer could not compile the program.
func Program(file string, prog *ir.Program, opts Options) ([]Diagnostic, error) {
	sends, err := opt.SendArgSets(prog, opts.Instantiation)
	if err != nil {
		return nil, err
	}
	pc := &progChecker{file: file, h: prog.H, opts: opts}
	if opts.Instantiation {
		pc.live = opt.InstantiatedClasses(prog)
	}
	pc.universe = pc.liveOnly(prog.H.AllClasses())

	r := analyzeReach(prog)
	pc.reportDeadMethods(r)
	pc.reportUselessSpecializations()
	for id, args := range sends {
		if args != nil { // nil: in a branch constant folding proved dead
			pc.checkSend(prog.Site(id), args)
		}
	}

	Sort(pc.diags)
	return pc.diags, nil
}

// report appends one diagnostic.
func (pc *progChecker) report(id string, sev Severity, pos lang.Pos, format string, args ...any) {
	pc.diags = append(pc.diags, Diagnostic{
		Check:    id,
		Severity: sev,
		File:     pc.File(),
		Line:     pos.Line,
		Col:      pos.Col,
		Message:  fmt.Sprintf(format, args...),
	})
}

// File returns the label diagnostics are filed under.
func (pc *progChecker) File() string { return pc.file }
