package dispatch

import (
	"fmt"

	"selspec/internal/hier"
)

// SingleTable is a dense dispatch table for a singly-dispatched generic
// function: one slot per class, holding the most-specific method (nil =
// message not understood). This models the vtable-style dispatching of
// C++/Modula-3 mentioned in §3.7.2.
type SingleTable struct {
	GF      *hier.GF
	pos     int
	methods []*hier.Method // indexed by class ID
}

// NewSingleTable builds the table; the GF must dispatch on exactly one
// position.
func NewSingleTable(h *hier.Hierarchy, g *hier.GF) (*SingleTable, error) {
	dpos := g.DispatchedPositions()
	if len(dpos) != 1 {
		return nil, fmt.Errorf("dispatch: %s dispatches on %d positions, want 1", g.Key(), len(dpos))
	}
	t := &SingleTable{GF: g, pos: dpos[0], methods: make([]*hier.Method, h.NumClasses())}
	classes := make([]*hier.Class, g.Arity)
	for i := range classes {
		classes[i] = h.Any()
	}
	for _, c := range h.Classes() {
		classes[t.pos] = c
		if m, err := h.Lookup(g, classes...); err == nil {
			t.methods[c.ID] = m
		}
	}
	return t, nil
}

// Lookup dispatches on the receiver class; nil means "not understood".
func (t *SingleTable) Lookup(classes []*hier.Class) *hier.Method {
	return t.methods[classes[t.pos].ID]
}

// MMTable is a compressed multi-method dispatch table. For each
// dispatched argument position, classes are first grouped into "poles"
// (hier.Poles): two classes share a pole iff every method of the GF
// treats them identically at that position. The dense table is
// then indexed by pole numbers rather than class IDs, which compresses
// its size from |classes|^n to |poles_1|×…×|poles_n| (Amiel et al. 94,
// Chen et al. 94).
type MMTable struct {
	GF        *hier.GF
	positions []int
	poleOf    [][]int // per dispatched position: class ID → pole index (-1: never applicable)
	dims      []int   // number of poles per position
	table     []*hier.Method
	ambiguous []bool
}

// NewMMTable builds the compressed table for any GF with at least one
// dispatched position.
func NewMMTable(h *hier.Hierarchy, g *hier.GF) (*MMTable, error) {
	positions := g.DispatchedPositions()
	if len(positions) == 0 {
		return nil, fmt.Errorf("dispatch: %s dispatches on no positions", g.Key())
	}
	t := &MMTable{GF: g, positions: positions}

	// Poles come from the hierarchy, shared with ApplicableClasses.
	reps := make([][]*hier.Class, len(positions)) // one representative class per pole
	for pi, p := range positions {
		poles := h.Poles(g, p)
		poleOf := make([]int, h.NumClasses())
		for i := range poleOf {
			poleOf[i] = -1
		}
		for k, members := range poles.Members {
			members.ForEach(func(c int) bool {
				poleOf[c] = k
				return true
			})
		}
		t.poleOf = append(t.poleOf, poleOf)
		t.dims = append(t.dims, len(poles.Reps))
		reps[pi] = poles.Reps
	}

	// Fill the dense pole-indexed table using one representative class
	// per pole (classes in a pole are dispatch-equivalent by
	// construction).
	size := 1
	for _, d := range t.dims {
		size *= d
	}
	t.table = make([]*hier.Method, size)
	t.ambiguous = make([]bool, size)

	classes := make([]*hier.Class, g.Arity)
	for i := range classes {
		classes[i] = h.Any()
	}
	idx := make([]int, len(positions))
	for flat := 0; flat < size; flat++ {
		rem := flat
		for pi := len(positions) - 1; pi >= 0; pi-- {
			idx[pi] = rem % t.dims[pi]
			rem /= t.dims[pi]
		}
		for pi, p := range positions {
			classes[p] = reps[pi][idx[pi]]
		}
		m, err := h.Lookup(g, classes...)
		if err != nil {
			t.ambiguous[flat] = err.Ambiguous
			continue
		}
		t.table[flat] = m
	}
	return t, nil
}

// Lookup dispatches on the argument classes. It returns (nil, false)
// for "message not understood" and (nil, true) for ambiguity.
func (t *MMTable) Lookup(classes []*hier.Class) (m *hier.Method, ambiguous bool) {
	flat := 0
	for pi, p := range t.positions {
		pole := t.poleOf[pi][classes[p].ID]
		if pole < 0 {
			return nil, false
		}
		flat = flat*t.dims[pi] + pole
	}
	return t.table[flat], t.ambiguous[flat]
}

// Size returns the number of dense table entries (the compression
// metric reported in the ablation).
func (t *MMTable) Size() int { return len(t.table) }

// UncompressedSize returns what a class-indexed n-dimensional table
// would need.
func (t *MMTable) UncompressedSize(h *hier.Hierarchy) int {
	size := 1
	for range t.positions {
		size *= h.NumClasses()
	}
	return size
}
