package check

import (
	"fmt"
	"strings"

	"selspec/internal/bits"
	"selspec/internal/hier"
	"selspec/internal/ir"
)

// This file turns the optimizer's class analysis into dispatch
// diagnostics. opt.SendArgSets reports, for every send, the argument
// class sets static binding sees. The optimizer binds a send when every
// class tuple in their product reaches one method; the checker
// enumerates the same product and asks multi-method Lookup which
// tuples fail — possible message-not-understood and ambiguous-dispatch
// findings.

// progChecker holds the whole-program state of one analysis run.
type progChecker struct {
	file     string
	h        *hier.Hierarchy
	opts     Options
	live     *bits.Set // instantiated classes, or nil
	universe *bits.Set // all classes a value can have: AllClasses ∩ live
	diags    []Diagnostic
}

// liveOnly sharpens a class set with the instantiation analysis,
// allocating rather than mutating (the input may be a shared memo).
func (pc *progChecker) liveOnly(s *bits.Set) *bits.Set {
	if pc.live == nil {
		return s
	}
	return bits.Intersect(s, pc.live)
}

// checkSend enumerates the concrete class tuples a send could dispatch
// with — the product of args, where args[i] is argument i's class set
// and nil is ⊤ — and diagnoses the ones multi-method Lookup rejects.
//
// One refinement keeps the flow-insensitive analysis useful on real
// programs: a failing tuple with Nil at a dispatched position whose set
// also admits other classes is skipped, not reported. Such Nils almost
// always flow from "not yet linked" fields and locals that the program
// guards with explicit nil tests the analysis cannot see (every linked
// structure in the benchmark suite does this). Nil is reported only
// when it is the *sole* possibility at a position — then no guard can
// save the send. Skipped tuples still suppress escalation to error.
func (pc *progChecker) checkSend(site *ir.CallSite, args []*bits.Set) {
	h := pc.h
	g := site.GF
	dpos := g.DispatchedPositions()
	if len(dpos) == 0 {
		return // at most one method (duplicate specializers are rejected)
	}

	nilID := h.Builtin(hier.NilName).ID
	size := 1
	for _, p := range dpos {
		in := args[p]
		if in == nil || pc.universe.SubsetOf(in) {
			// Top, or a set no sharper than "every class in the program":
			// the analysis has no actual information about this position,
			// so reporting would flag every send on an unconstrained
			// formal. Nothing to prove either way.
			return
		}
		n := in.Len()
		if n == 0 {
			return // dead code
		}
		size *= n
		if size > pc.opts.productLimit() {
			return
		}
	}

	classes := make([]*hier.Class, g.Arity)
	for i := range classes {
		classes[i] = h.Any()
	}
	elems := make([][]int, len(dpos))
	for i, p := range dpos {
		elems[i] = args[p].Elems()
	}

	var (
		successes, skipped int
		mnu, ambig         []string
		mnuCount, ambCount int
	)
	const maxExamples = 3
	render := func() string {
		parts := make([]string, g.Arity)
		for i := range parts {
			parts[i] = "_"
		}
		for _, p := range dpos {
			parts[p] = classes[p].Name
		}
		return fmt.Sprintf("%s(%s)", g.Name, strings.Join(parts, ", "))
	}

	idx := make([]int, len(dpos))
	for {
		for i, p := range dpos {
			classes[p] = h.Classes()[elems[i][idx[i]]]
		}
		_, derr := h.Lookup(g, classes...)
		switch {
		case derr == nil:
			successes++
		case derr.Ambiguous:
			ambCount++
			if len(ambig) < maxExamples {
				ambig = append(ambig, render())
			}
		default: // message not understood
			guardable := false
			for i, p := range dpos {
				if classes[p].ID == nilID && len(elems[i]) > 1 {
					guardable = true
					break
				}
			}
			if guardable {
				skipped++
			} else {
				mnuCount++
				if len(mnu) < maxExamples {
					mnu = append(mnu, render())
				}
			}
		}
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(elems[k]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}

	if mnuCount > 0 {
		sev := SevWarning
		if successes == 0 && ambCount == 0 && skipped == 0 {
			sev = SevError // every possible tuple fails: the send cannot succeed
		}
		pc.report(CheckPossibleMNU, sev, site.Pos,
			"no applicable method for %s: %s fails for %d of %d possible class tuple%s",
			g.Key(), exampleList(mnu, mnuCount), mnuCount, size, plural(size))
	}
	if ambCount > 0 {
		pc.report(CheckAmbiguous, SevWarning, site.Pos,
			"ambiguous dispatch for %s: %s has no unique most-specific method (%d of %d possible class tuple%s)",
			g.Key(), exampleList(ambig, ambCount), ambCount, size, plural(size))
	}
}

func exampleList(examples []string, total int) string {
	s := strings.Join(examples, ", ")
	if total > len(examples) {
		s += fmt.Sprintf(", ... (%d total)", total)
	}
	return s
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}
