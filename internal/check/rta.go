package check

import (
	"selspec/internal/bits"
	"selspec/internal/hier"
	"selspec/internal/ir"
)

// This file holds the two hierarchy-level analyses: dead-method, a
// rapid-type-analysis-style reachability fixpoint over (live classes ×
// called generic functions), and useless-specialization, a direct
// application of the paper's ApplicableClasses computation.

// reach is the result of the reachability fixpoint.
type reach struct {
	hasEntry  bool // a main/0 generic function exists
	reachable map[*hier.Method]bool
}

// analyzeReach computes which methods the program can ever invoke,
// RTA-style: starting from the main/0 methods and the global
// initializers, track the set of classes instantiated by reachable
// code and the set of generic functions it sends to; a method becomes
// reachable when its generic function is called and every specializer
// cone contains a live class. Field initializers join in only when
// their class becomes live.
func analyzeReach(p *ir.Program) reach {
	h := p.H
	r := reach{reachable: map[*hier.Method]bool{}}
	if p.Main == nil {
		return r // no entry point: reachability is undefined, report nothing
	}
	r.hasEntry = true

	live := bits.New(h.NumClasses())
	for _, c := range h.BuiltinClasses() {
		live.Add(c.ID)
	}
	called := map[*hier.GF]bool{}

	var scan func(body ir.Node)
	addClass := func(c *hier.Class) {
		if live.Has(c.ID) {
			return
		}
		live.Add(c.ID)
		for _, init := range p.FieldInits[c] {
			if init != nil {
				scan(init)
			}
		}
	}
	scan = func(body ir.Node) {
		ir.Walk(body, func(n ir.Node) bool {
			switch n := n.(type) {
			case *ir.New:
				addClass(n.Class)
			case *ir.Send:
				called[n.Site.GF] = true
			}
			return true
		})
	}

	// Globals always initialize, in order, before main runs.
	for _, g := range p.Globals {
		scan(g.Init)
	}

	markReachable := func(m *hier.Method) {
		if r.reachable[m] {
			return
		}
		r.reachable[m] = true
		if b := p.Bodies[m]; b != nil {
			scan(b.Code)
		}
	}
	for _, m := range p.Main.Methods {
		markReachable(m)
	}

	// applicable: some live class lies in every specializer's cone, so a
	// dispatch could select (or need) this method. Per-position is a
	// sound over-approximation of tuple existence.
	applicable := func(m *hier.Method) bool {
		for _, s := range m.Specs {
			if !s.Cone().Intersects(live) {
				return false
			}
		}
		return true
	}

	for changed := true; changed; {
		changed = false
		for g := range called {
			for _, m := range g.Methods {
				if !r.reachable[m] && applicable(m) {
					markReachable(m)
					changed = true
				}
			}
		}
	}
	return r
}

// reportDeadMethods flags every source method the reachability analysis
// proves the program can never invoke.
func (pc *progChecker) reportDeadMethods(r reach) {
	if !r.hasEntry {
		return
	}
	for _, m := range pc.h.Methods() {
		if r.reachable[m] || m.Decl == nil {
			continue
		}
		pc.report(CheckDeadMethod, SevWarning, m.Decl.Pos,
			"method %s is unreachable from main", m.Name())
	}
}

// reportUselessSpecializations flags declared specializations whose
// ApplicableClasses set is empty at some specialized position: no
// dispatch can ever select the method there, because every class in
// the specializer's cone either binds to an overriding method or (with
// instantiation analysis) is never created.
func (pc *progChecker) reportUselessSpecializations() {
	h := pc.h
	for _, m := range h.Methods() {
		if m.Decl == nil {
			continue
		}
		specialized := false
		for i := range m.Specs {
			if m.SpecializesOn(i, h) {
				specialized = true
				break
			}
		}
		if !specialized {
			continue
		}
		app, exact := h.ApplicableClassesExact(m)
		if !exact {
			continue // conservative fallback under-approximates: unreliable here
		}
		for i := range m.Specs {
			if !m.SpecializesOn(i, h) {
				continue
			}
			if !app[i].Empty() && pc.liveOnly(app[i]).Empty() {
				pc.report(CheckUselessSpec, SevWarning, m.Decl.Pos,
					"specialization %s is useless: no class that could invoke it at position %d (@%s) is ever instantiated",
					m.Name(), i+1, m.Specs[i].Name)
				continue
			}
			if app[i].Empty() {
				pc.report(CheckUselessSpec, SevWarning, m.Decl.Pos,
					"specialization %s is useless: every class in the cone of @%s at position %d binds to an overriding method",
					m.Name(), m.Specs[i].Name, i+1)
			}
		}
	}
}
