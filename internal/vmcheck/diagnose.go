package vmcheck

import (
	"fmt"

	"selspec/internal/bits"
	"selspec/internal/check"
	"selspec/internal/interp"
	"selspec/internal/vm"
)

// scaffold marks opcodes the compiler emits as pure control/data glue.
// An unreachable region made only of these is compiler scaffolding
// (e.g. the join jump after an if whose branches both return), not user
// code, and is not worth a diagnostic.
var scaffold = map[vm.Op]bool{
	vm.OpJump:  true,
	vm.OpLoop:  true,
	vm.OpRet:   true,
	vm.OpRetNL: true,
	vm.OpConst: true,
	vm.OpMove:  true,
}

// Diagnose runs the post-compile bytecode diagnostics over every proc
// the machine has compiled and returns positioned findings for the
// `selspec check` surface:
//
//   - vm-unreachable-code: a basic block no path from entry reaches,
//     containing at least one non-scaffold instruction (user code after
//     an unconditional return).
//   - vm-dead-store: a frame-slot write no path ever reads back (the
//     variable's value is overwritten or the proc exits first). Reads
//     are modeled conservatively — captured frames and dynamic call
//     windows keep slots alive — so a report means the store is dead on
//     every path.
//
// Findings are positioned at the declaration the proc was compiled
// from; the message carries the proc name to disambiguate specialized
// versions of the same method.
// Specialized versions are skipped: they are the general body re-run
// through the optimizer under narrowed class assumptions, so any
// user-level finding already shows on the general version, while the
// extra static binding and inlining routinely orphan parameter-passing
// moves that no user edit can address.
//
// Diagnose compiles every proc whose body exists first
// (Module.CompileAll) and returns a compile failure as is.
func Diagnose(m *vm.Machine, file string) ([]check.Diagnostic, error) {
	if err := m.Module().CompileAll(); err != nil {
		return nil, err
	}
	var out []check.Diagnostic
	for _, pi := range m.Module().Procs() {
		if pi.Version != nil && !pi.Version.General {
			continue
		}
		out = append(out, diagnoseProc(pi, file)...)
	}
	return out, nil
}

func diagnoseProc(pi vm.ProcInfo, file string) []check.Diagnostic {
	p := pi.Proc
	pos := procPos(pi)
	var out []check.Diagnostic
	report := func(id, format string, args ...any) {
		out = append(out, check.Diagnostic{
			Check:    id,
			Severity: check.SevWarning,
			File:     file,
			Line:     pos.Line,
			Col:      pos.Col,
			Message:  fmt.Sprintf(format, args...),
		})
	}

	g := buildCFG(p)
	reach := g.reachable()

	// Unreachable bytecode. One finding per contiguous unreachable run
	// that holds real user code.
	reported := false
	for _, b := range g.blocks {
		if reach[b.id] {
			reported = false
			continue
		}
		if reported {
			continue // same unreachable run
		}
		for pc := b.start; pc < b.end; pc++ {
			if !scaffold[p.Code[pc].Op] {
				report(check.CheckVMUnreachable,
					"unreachable bytecode in %s: no path from entry reaches pc %d (%s)",
					p.Name, pc, p.Code[pc].Op)
				reported = true
				break
			}
		}
	}

	// Dead stores. Only frame slots (named variables) are candidates:
	// temporaries are compiler-managed and always consumed. Dedupe per
	// slot — `x := ...` inside an if compiles a write per arm. Two
	// exemptions keep the check about lost computations:
	//
	//   - stores of the nil constant: the language requires an
	//     initializer on every declaration, so `var s := nil;` followed
	//     by unconditional reassignment is the sentinel-declaration
	//     idiom, not a lost value;
	//   - register-to-register moves: parameter-passing glue from the
	//     inliner lands in frame slots and routinely goes dead when the
	//     grafted body is further optimized — and a dead copy loses no
	//     computed value in any case.
	if p.NumSlots > 0 {
		exempt := func(pc int) bool {
			i := p.Code[pc]
			return i.Op == vm.OpMove ||
				(i.Op == vm.OpConst && p.Consts[i.B].K == interp.KNil)
		}
		live := g.liveness()
		deadSlots := make([]int, p.NumSlots) // first dead-store pc + 1 per slot; 0 = none
		for _, b := range g.blocks {
			if !reach[b.id] {
				continue
			}
			live.liveOutAt(b.id, func(pc int, liveOut *bits.Set) {
				g.info[pc].writes.each(func(r int32) {
					if r >= int32(p.NumSlots) || liveOut.Has(int(r)) || exempt(pc) {
						return
					}
					if deadSlots[r] == 0 || pc+1 < deadSlots[r] {
						deadSlots[r] = pc + 1
					}
				})
			})
		}
		for r, pc1 := range deadSlots {
			if pc1 == 0 {
				continue
			}
			pc := pc1 - 1
			report(check.CheckVMDeadStore,
				"dead store in %s: the value written to slot r%d at pc %d (%s) is never read",
				p.Name, r, pc, p.Code[pc].Op)
		}
	}
	return out
}
