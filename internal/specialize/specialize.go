// Package specialize implements the goal-directed selective
// specialization algorithm of Dean, Chambers & Grove (PLDI'95),
// Figure 4: given a weighted dynamic call graph and the class
// hierarchy's ApplicableClasses information, it decides which methods
// to specialize for which tuples of argument class sets.
//
// The three routines mirror the paper directly:
//
//   - specializeMethod visits each high-weight, pass-through,
//     information-adding ("specializable") arc leaving a method and
//     requests a specialization for the classes that would let the arc
//     be statically bound (neededInfoForArc);
//   - addSpecialization combines a new tuple with every existing one by
//     pairwise intersection, keeping the specialization set closed
//     under intersection so the runtime can always pick a unique most
//     specific version (§3.2);
//   - cascadeSpecializations ripples specializations up statically
//     bound pass-through caller chains so callers can still statically
//     bind to the specialized callee (§3.3).
package specialize

import (
	"fmt"
	"sort"
	"strings"

	"selspec/internal/hier"
	"selspec/internal/ir"
	"selspec/internal/profile"
)

// DefaultThreshold is the paper's SpecializationThreshold: "in our
// implementation, the specializationThreshold is 1,000 invocations."
const DefaultThreshold = 1000

// Params tunes the algorithm; the zero value gives the paper's setup.
type Params struct {
	// Threshold is the minimum Weight(arc) for an arc to be considered
	// for specialization; 0 selects DefaultThreshold. Set to -1 to
	// consider every arc (useful in tests).
	Threshold int64

	// DisableCascade turns off cascadeSpecializations (§3.3 ablation):
	// statically-bound callers of specialized methods then fall back to
	// run-time version selection.
	DisableCascade bool

	// DisableCombination turns off the §3.2 tuple combination: arc
	// tuples are added directly without closing under intersection.
	// This can leave the runtime without a unique most-specific version
	// for some calls; selection then conservatively uses the general
	// version for ambiguous cases.
	DisableCombination bool

	// UseTupleProfiles enables the §3.2 extension: "the set of actual
	// [argument class] tuples encountered during the profiling run
	// could be used to see which of the specializations would actually
	// be invoked". Specialization tuples containing no observed
	// argument tuple are dropped, curbing combination blow-up. Requires
	// a profile with RecordEntry data; methods without a sample (or
	// with an overflowed one) keep every tuple.
	UseTupleProfiles bool

	// SpaceBudget, when positive, switches to the §3.4 alternative
	// heuristic: visit specializable arcs in decreasing weight order
	// (ignoring the threshold) and specialize until the budget — a
	// program-wide cap on added specializations — is consumed.
	SpaceBudget int
}

func (p Params) threshold() int64 {
	switch {
	case p.Threshold == 0:
		return DefaultThreshold
	case p.Threshold < 0:
		return 0
	default:
		return p.Threshold
	}
}

// Stats summarizes an algorithm run.
type Stats struct {
	ArcsTotal          int
	ArcsSpecializable  int
	ArcsAboveThreshold int
	CascadeRequests    int

	MethodsSpecialized int // methods with at least one added specialization
	AddedSpecs         int // specializations beyond the general version
	MaxPerMethod       int // max added specializations on one method
	AvgPerMethod       float64
}

// Result is the algorithm's output: the specialization tuples per
// method (the general tuple first, then added specializations) plus
// statistics.
type Result struct {
	Specializations map[*hier.Method][]hier.Tuple
	Stats           Stats
}

type runner struct {
	h      *hier.Hierarchy
	prog   *ir.Program
	cg     *profile.CallGraph
	params Params

	specs   map[*hier.Method][]hier.Tuple
	general map[*hier.Method]hier.Tuple
	inArcs  map[*hier.Method][]*profile.Arc
	outArcs map[*hier.Method][]*profile.Arc // by caller; nil key = global initializers
	stats   Stats
}

// Run executes the algorithm over the call graph.
func Run(p *ir.Program, cg *profile.CallGraph, params Params) *Result {
	r := &runner{
		h:       p.H,
		prog:    p,
		cg:      cg,
		params:  params,
		specs:   map[*hier.Method][]hier.Tuple{},
		general: map[*hier.Method]hier.Tuple{},
		inArcs:  map[*hier.Method][]*profile.Arc{},
		outArcs: map[*hier.Method][]*profile.Arc{},
	}

	// specializeProgram: initialize Specializations[meth] with the
	// method's general tuple.
	for _, m := range p.H.Methods() {
		g := r.generalFor(m)
		r.general[m] = g
		r.specs[m] = []hier.Tuple{g}
	}
	// One sorted pass indexes the arcs both ways, so each index lists
	// its arcs in (site, callee) order.
	for _, a := range cg.Arcs() {
		r.stats.ArcsTotal++
		r.inArcs[a.Callee] = append(r.inArcs[a.Callee], a)
		r.outArcs[a.Caller()] = append(r.outArcs[a.Caller()], a)
	}

	if params.SpaceBudget > 0 {
		r.specializeWithBudget()
	} else {
		for _, m := range p.H.Methods() {
			r.specializeMethod(m)
		}
	}

	r.finishStats()
	return &Result{Specializations: r.specs, Stats: r.stats}
}

// generalFor returns the base tuple for a method: its exact
// ApplicableClasses, or the always-safe specializer-cone tuple when the
// exact projection was not computable.
func (r *runner) generalFor(m *hier.Method) hier.Tuple {
	if app, exact := r.h.ApplicableClassesExact(m); exact {
		return app.Clone()
	}
	return r.h.GeneralTuple(m)
}

// specializeWithBudget is the §3.4 alternative cost/benefit heuristic:
// "the algorithm could be provided with a fixed space budget, and could
// visit arcs in decreasing order of weight, specializing until the
// space budget was consumed."
func (r *runner) specializeWithBudget() {
	arcs := r.cg.Arcs()
	sort.SliceStable(arcs, func(i, j int) bool { return arcs[i].Weight > arcs[j].Weight })
	for _, arc := range arcs {
		if r.addedTotal() >= r.params.SpaceBudget {
			return
		}
		if arc.Caller() == nil || !r.isSpecializableArc(arc) {
			continue
		}
		r.stats.ArcsSpecializable++
		r.stats.ArcsAboveThreshold++
		r.addSpecialization(arc.Caller(), r.neededInfoForArc(arc))
	}
}

func (r *runner) addedTotal() int {
	n := 0
	for _, specs := range r.specs {
		n += len(specs) - 1
	}
	return n
}

// specializeMethod is the paper's routine of the same name.
func (r *runner) specializeMethod(meth *hier.Method) {
	for _, arc := range r.outArcs[meth] {
		if !r.isSpecializableArc(arc) {
			continue
		}
		r.stats.ArcsSpecializable++
		if arc.Weight > r.params.threshold() {
			r.stats.ArcsAboveThreshold++
			r.addSpecialization(meth, r.neededInfoForArc(arc))
		}
	}
}

// isSpecializableArc: PassThroughArgs[CallSite(arc)] ≠ ∅ and
// ApplicableClasses[Caller(arc)] ≠ neededInfoForArc(arc).
func (r *runner) isSpecializableArc(arc *profile.Arc) bool {
	if arc.Caller() == nil || len(arc.Site.PassThrough) == 0 {
		return false
	}
	return !r.general[arc.Caller()].Equal(r.neededInfoForArc(arc))
}

// neededInfoForArc computes the most general class-set tuple for the
// caller's formals that statically binds the arc to its callee: the
// callee's ApplicableClasses mapped back through the call site's
// pass-through argument mapping.
func (r *runner) neededInfoForArc(arc *profile.Arc) hier.Tuple {
	return r.neededInfoFor(arc, r.general[arc.Callee])
}

// neededInfoFor is the two-argument form used by cascading: it maps an
// arbitrary callee tuple back to the caller's formals.
func (r *runner) neededInfoFor(arc *profile.Arc, calleeInfo hier.Tuple) hier.Tuple {
	needed := r.general[arc.Caller()].Clone()
	for _, pp := range arc.Site.PassThrough {
		needed[pp.Formal].RetainAll(calleeInfo[pp.ArgPos])
	}
	return needed
}

func (r *runner) hasSpec(meth *hier.Method, t hier.Tuple) bool {
	for _, e := range r.specs[meth] {
		if e.Equal(t) {
			return true
		}
	}
	return false
}

// addSpecialization combines the new tuple with all existing
// specializations by pairwise intersection (dropping tuples with empty
// components), then cascades the new tuple to the method's callers.
func (r *runner) addSpecialization(meth *hier.Method, specTuple hier.Tuple) {
	var toAdd []hier.Tuple
	if r.params.DisableCombination {
		if !specTuple.HasEmpty() && !r.hasSpec(meth, specTuple) && r.observed(meth, specTuple) {
			toAdd = append(toAdd, specTuple)
		}
	} else {
		for _, existing := range r.specs[meth] {
			inter := existing.Intersect(specTuple)
			if inter.HasEmpty() || r.hasSpec(meth, inter) || !r.observed(meth, inter) {
				continue
			}
			dup := false
			for _, t := range toAdd {
				if t.Equal(inter) {
					dup = true
					break
				}
			}
			if !dup {
				toAdd = append(toAdd, inter)
			}
		}
	}
	r.specs[meth] = append(r.specs[meth], toAdd...)

	if r.params.DisableCascade {
		return
	}
	for _, arc := range r.inArcs[meth] {
		r.cascadeSpecializations(arc, specTuple)
	}
}

// cascadeSpecializations specializes statically-bound pass-through
// high-weight callers of a newly-specialized method, so that they can
// statically bind to the specialized version instead of falling back
// to a run-time version selection (§3.3).
func (r *runner) cascadeSpecializations(arc *profile.Arc, calleeSpec hier.Tuple) {
	if arc.Caller() == nil || len(arc.Site.PassThrough) == 0 {
		return
	}
	// "The call arc was statically bound (with respect to the
	// pass-through arguments)": the caller's general information
	// already pins the callee.
	if !r.general[arc.Caller()].Equal(r.neededInfoForArc(arc)) {
		return
	}
	if arc.Weight <= r.params.threshold() {
		return
	}
	callerSpec := r.neededInfoFor(arc, calleeSpec)
	if callerSpec.HasEmpty() || r.hasSpec(arc.Caller(), callerSpec) || !r.observed(arc.Caller(), callerSpec) {
		return
	}
	r.stats.CascadeRequests++
	r.addSpecialization(arc.Caller(), callerSpec)
}

// observed reports whether at least one argument-class tuple recorded
// for the method during profiling lies inside the candidate
// specialization tuple (§3.2 extension). Without tuple profiling, or
// for methods whose sample overflowed, everything passes.
func (r *runner) observed(meth *hier.Method, t hier.Tuple) bool {
	if !r.params.UseTupleProfiles {
		return true
	}
	sample := r.cg.Entries(meth)
	if sample == nil || sample.Overflow {
		return true
	}
	for _, ids := range sample.Tuples {
		if t.ContainsIDs(ids) {
			return true
		}
	}
	return false
}

func (r *runner) finishStats() {
	total := 0
	for _, m := range r.h.Methods() {
		added := len(r.specs[m]) - 1
		if added <= 0 {
			continue
		}
		r.stats.MethodsSpecialized++
		total += added
		if added > r.stats.MaxPerMethod {
			r.stats.MaxPerMethod = added
		}
	}
	r.stats.AddedSpecs = total
	if r.stats.MethodsSpecialized > 0 {
		r.stats.AvgPerMethod = float64(total) / float64(r.stats.MethodsSpecialized)
	}
}

// Describe renders the directives human-readably (for the specialize
// CLI and debugging), sorted by method name.
func (res *Result) Describe(h *hier.Hierarchy) string {
	type entry struct {
		name   string
		tuples []hier.Tuple
	}
	var entries []entry
	for m, tuples := range res.Specializations {
		if len(tuples) <= 1 {
			continue
		}
		entries = append(entries, entry{m.Name(), tuples})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	var b strings.Builder
	fmt.Fprintf(&b, "%d methods specialized, %d added specializations (max %d, avg %.2f)\n",
		res.Stats.MethodsSpecialized, res.Stats.AddedSpecs, res.Stats.MaxPerMethod, res.Stats.AvgPerMethod)
	for _, e := range entries {
		fmt.Fprintf(&b, "%s:\n", e.name)
		for i, t := range e.tuples {
			tag := "spec"
			if i == 0 {
				tag = "general"
			}
			fmt.Fprintf(&b, "  [%s] %s\n", tag, t.String(h))
		}
	}
	return b.String()
}
