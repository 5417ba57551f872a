package hier

import "selspec/internal/bits"

// ApplicableClasses is the paper's ApplicableClasses[meth]: "the tuple
// of the set of classes for each formal argument for which the method
// meth could be invoked (excluding classes that bind to overriding
// methods)".
//
// For singly-dispatched generic functions this is straightforward. For
// multi-methods we compute the exact projection of the set of concrete
// dispatch tuples when the product of specializer cones over the
// dispatched positions is small enough (enumBudget), and fall back to
// a conservative per-position approximation otherwise — the fallback
// under-approximates, which is safe here because the runtime always
// retains a fully general fallback version (see internal/opt).
//
// The result is memoized; Freeze must have been called.
func (h *Hierarchy) ApplicableClasses(m *Method) Tuple {
	t, _ := h.ApplicableClassesExact(m)
	return t
}

// ApplicableClassesExact is ApplicableClasses plus a flag reporting
// whether the result is exact (true) or the conservative per-position
// fallback (false). Clients that use the tuple as analysis truth for a
// method's general version must fall back to GeneralTuple when exact is
// false.
func (h *Hierarchy) ApplicableClassesExact(m *Method) (Tuple, bool) {
	if !h.frozen {
		panic("hier: ApplicableClasses before Freeze")
	}
	// Single-flight under the mutex: the computation is deterministic,
	// so holding the lock through it keeps the memo consistent for
	// concurrent compilations sharing this hierarchy.
	h.applicableMu.Lock()
	defer h.applicableMu.Unlock()
	if t, ok := h.applicableMemo[m]; ok {
		return t, h.applicableExact[m]
	}
	if h.applicableExact == nil {
		h.applicableExact = map[*Method]bool{}
	}
	// One shared enumeration answers ApplicableClasses for every method
	// of the generic function at once; fall back to the per-method path
	// when the GF's dispatch space is too large to enumerate.
	if h.batchApplicable(m.GF) {
		return h.applicableMemo[m], h.applicableExact[m]
	}
	t, exact := h.computeApplicable(m)
	h.applicableMemo[m] = t
	h.applicableExact[m] = exact
	return t, exact
}

// productLimit caps enumBudget.
const productLimit = 1 << 20

// enumBudget is the per-generic-function budget that chooses between
// the exact and the approximate ApplicableClasses. It is measured in
// concrete class tuples, the product of cone (or union-of-cones) sizes
// over the dispatched positions, and scales with the hierarchy, capped
// at productLimit. The work done on the exact path is the much smaller
// product of pole counts (see Poles); the budget stays in class tuples
// so that every method keeps the exact or approximate answer it has
// always had. Spaces over budget take the conservative
// approximateApplicable path, which is safe (see ApplicableClassesExact
// callers) and O(methods²).
func (h *Hierarchy) enumBudget() int {
	b := 16 * h.NumClasses()
	if b < 1<<16 {
		b = 1 << 16
	}
	if b > productLimit {
		b = productLimit
	}
	return b
}

// batchApplicable computes exact ApplicableClasses for every method of
// g in a single enumeration of g's dispatch space (every pole at every
// dispatched position — a superset of each method's own cone product,
// so per-method projections agree with what computeApplicable would
// produce). Fills the memo and returns true, or returns false untouched
// when the space exceeds the enumeration budget (caller then goes
// per-method). Called with applicableMu held.
func (h *Hierarchy) batchApplicable(g *GF) bool {
	dpos := g.DispatchedPositions()
	if len(dpos) == 0 {
		return false
	}
	size := 1
	for _, p := range dpos {
		u := bits.New(h.NumClasses())
		for _, m := range g.Methods {
			u.AddAll(m.Specs[p].Cone())
		}
		size *= u.Len()
		if size == 0 || size > h.enumBudget() {
			return false
		}
	}

	space := make([][]int, len(dpos))
	for i, p := range dpos {
		space[i] = make([]int, len(h.Poles(g, p).Reps))
		for k := range space[i] {
			space[i][k] = k
		}
	}
	out := make(map[*Method]Tuple, len(g.Methods))
	for _, m := range g.Methods {
		out[m] = h.projectionBase(m, dpos)
	}
	h.projectWinners(g, dpos, space, out)
	for _, m := range g.Methods {
		h.applicableMemo[m] = out[m]
		h.applicableExact[m] = true
	}
	return true
}

func (h *Hierarchy) computeApplicable(m *Method) (Tuple, bool) {
	g := m.GF
	dpos := g.DispatchedPositions()

	// Undispatched positions keep the cones of the specializers: no
	// method constrains them, so the cone (all classes when the
	// specializer is Any) is exact.
	if len(dpos) == 0 {
		return h.GeneralTuple(m), true
	}

	// Exact enumeration, over the poles inside m's cones: a cone is a
	// union of poles, since m's own specializer is one of the tests
	// that define them. For singly-dispatched generic functions this
	// costs one lookup per pole; it also correctly excludes classes
	// whose lookup is ambiguous (possible under multiple inheritance),
	// which a cone-minus-overriders shortcut would keep.
	size := 1
	for _, p := range dpos {
		size *= m.Specs[p].Cone().Len()
		if size > h.enumBudget() {
			return h.approximateApplicable(m, dpos), false
		}
	}
	space := make([][]int, len(dpos))
	for i, p := range dpos {
		for k, r := range h.Poles(g, p).Reps {
			if r.IsSubclassOf(m.Specs[p]) {
				space[i] = append(space[i], k)
			}
		}
	}
	out := h.projectionBase(m, dpos)
	h.projectWinners(g, dpos, space, map[*Method]Tuple{m: out})
	return out, true
}

// projectionBase is m's general tuple with the dispatched positions
// emptied, for projectWinners to fill.
func (h *Hierarchy) projectionBase(m *Method, dpos []int) Tuple {
	t := h.GeneralTuple(m)
	for _, p := range dpos {
		t[p].Clear()
	}
	return t
}

// projectWinners enumerates the product of poles over g's dispatched
// positions (space[i] lists the pole indices to visit at dpos[i]),
// looks up one representative class tuple per pole tuple, and adds the
// winning poles' members into the winner's tuple in out, when out has
// one. Every class tuple inside a pole tuple has the same applicable
// methods, hence the same lookup result, so this projects exactly the
// class tuples each method wins.
func (h *Hierarchy) projectWinners(g *GF, dpos []int, space [][]int, out map[*Method]Tuple) {
	poles := make([]*Poles, len(dpos))
	for i, p := range dpos {
		poles[i] = h.Poles(g, p)
	}
	classes := make([]*Class, g.Arity)
	for i := range classes {
		classes[i] = h.any // undispatched positions never matter
	}
	idx := make([]int, len(dpos))
	for {
		for i, p := range dpos {
			classes[p] = poles[i].Reps[space[i][idx[i]]]
		}
		// Bypass the lookup cache: the representatives are not the
		// classes a running program dispatches on.
		if won, err := h.lookupSlow(g, classes); err == nil {
			if t := out[won]; t != nil {
				for i, p := range dpos {
					t[p].AddAll(poles[i].Members[space[i][idx[i]]])
				}
			}
		}
		// Advance the odometer.
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(space[k]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}
}

// approximateApplicable is the conservative per-position fallback for
// very large products: position p keeps the classes of cone(spec_p(m))
// not covered by any strictly overriding method at p. It may
// under-approximate the true projection for partially-overlapping
// multi-methods, which only makes specializations narrower (safe).
func (h *Hierarchy) approximateApplicable(m *Method, dpos []int) Tuple {
	out := h.GeneralTuple(m)
	for _, p := range dpos {
		for _, n := range m.GF.Methods {
			if n.Overrides(m) && n.Specs[p] != m.Specs[p] {
				out[p].RemoveAll(n.Specs[p].Cone())
			}
		}
	}
	return out
}

// GeneralTuple returns the always-safe tuple for a method: the cones of
// its specializers. Every invocation that dispatches to m lies inside
// this product, so a version compiled against it is valid for any
// caller. (ApplicableClasses ⊆ GeneralTuple componentwise.)
func (h *Hierarchy) GeneralTuple(m *Method) Tuple {
	out := make(Tuple, len(m.Specs))
	for i, s := range m.Specs {
		out[i] = s.Cone().Clone()
	}
	return out
}
