package vm

// Read-only module accessors for the bytecode analysis layer
// (internal/vmcheck): the verifier and the post-compile diagnostics
// walk every compiled proc with its provenance (method version, closure
// owner, initializer) without reaching into the module's private maps.

import (
	"selspec/internal/hier"
	"selspec/internal/ir"
	"selspec/internal/opt"
)

// Module returns the machine's compiled module.
func (m *Machine) Module() *Module { return m.mod }

// NumCheckMsgs is the number of truthy-check message kinds (the C
// operand space of OpBranch/OpCheckBool).
func NumCheckMsgs() int { return len(checkMsgs) }

// Compiled returns the opt.Compiled the module was built from — the
// verifier derives its global/call-site index bounds from it.
func (mod *Module) Compiled() *opt.Compiled { return mod.c }

// ProcInfo pairs one compiled proc with its provenance. Exactly one of
// the provenance shapes holds: a method version (Version non-nil), a
// closure body (Closure non-nil, Owner its lexically enclosing method —
// possibly nil for closures created in global initializers), or an
// initializer thunk (both nil).
type ProcInfo struct {
	Proc    *Proc
	Version *ir.Version     // method-version procs
	Closure *ir.ClosureCode // closure-body procs
	Owner   *hier.Method    // closure procs: lexically enclosing method
}

// Procs returns every proc compiled so far, in a deterministic order
// independent of map iteration: global initializers, field initializers
// (class declaration order), method versions (method then version
// order), and each proc's closures in creation order (recursively).
// Procs compile on first use (CompileAll compiles every one whose body
// exists), so the snapshot grows between calls; callers verifying a
// finished run see every proc that ever executed.
func (mod *Module) Procs() []ProcInfo {
	var out []ProcInfo
	seen := map[*Proc]bool{}
	var closuresOf func(p *Proc, owner *hier.Method)
	closuresOf = func(p *Proc, owner *hier.Method) {
		for _, code := range p.Closures {
			cp, ok := mod.closures[code]
			if !ok || seen[cp] {
				continue
			}
			seen[cp] = true
			o := owner
			if code.Owner != nil {
				o = code.Owner
			}
			out = append(out, ProcInfo{Proc: cp, Closure: code, Owner: o})
			closuresOf(cp, o)
		}
	}
	add := func(pi ProcInfo) {
		if pi.Proc == nil || seen[pi.Proc] {
			return
		}
		seen[pi.Proc] = true
		out = append(out, pi)
		closuresOf(pi.Proc, pi.Owner)
	}
	for _, p := range mod.globalInits {
		add(ProcInfo{Proc: p})
	}
	for _, cls := range mod.c.Prog.H.Classes() {
		for _, p := range mod.fieldInits[cls] {
			add(ProcInfo{Proc: p})
		}
	}
	for _, m := range mod.c.Prog.H.Methods() {
		if _, ok := mod.c.Prog.Bodies[m]; !ok {
			continue
		}
		for _, v := range mod.c.VersionsOf(m) {
			if p, ok := mod.procs[v]; ok {
				add(ProcInfo{Proc: p, Version: v, Owner: m})
			}
		}
	}
	return out
}
