package hier

import (
	"strings"

	"selspec/internal/bits"
)

// Tuple is a tuple of class sets, one set per formal argument position —
// the paper's unit of specialization ("a method can be specialized for
// a tuple of class sets, one class set per formal argument").
type Tuple []*bits.Set

// NewTuple builds a tuple from per-position sets (aliases, not copies).
func NewTuple(sets ...*bits.Set) Tuple { return Tuple(sets) }

// Clone deep-copies a tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	for i, s := range t {
		c[i] = s.Clone()
	}
	return c
}

// Intersect returns the pairwise intersection t ∩ u (the paper's "set
// operations on tuples are defined to operate pairwise").
func (t Tuple) Intersect(u Tuple) Tuple {
	if len(t) != len(u) {
		panic("hier: Tuple.Intersect arity mismatch")
	}
	out := make(Tuple, len(t))
	for i := range t {
		out[i] = bits.Intersect(t[i], u[i])
	}
	return out
}

// HasEmpty reports whether any component is empty ("tuples containing
// empty class sets are dropped").
func (t Tuple) HasEmpty() bool {
	for _, s := range t {
		if s.Empty() {
			return true
		}
	}
	return false
}

// Equal reports component-wise set equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// SubsetOf reports component-wise ⊆.
func (t Tuple) SubsetOf(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].SubsetOf(u[i]) {
			return false
		}
	}
	return true
}

// Intersects reports whether every component pair overlaps; because
// tuples denote products of class sets, this is exactly "the two
// products share at least one concrete class tuple".
func (t Tuple) Intersects(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Intersects(u[i]) {
			return false
		}
	}
	return true
}

// ContainsClasses reports whether the concrete class tuple is inside
// the product denoted by t.
func (t Tuple) ContainsClasses(classes []*Class) bool {
	if len(classes) != len(t) {
		return false
	}
	for i, c := range classes {
		if !t[i].Has(c.ID) {
			return false
		}
	}
	return true
}

// ContainsIDs is ContainsClasses over raw class IDs.
func (t Tuple) ContainsIDs(ids []int) bool {
	if len(ids) != len(t) {
		return false
	}
	for i, id := range ids {
		if !t[i].Has(id) {
			return false
		}
	}
	return true
}

// Size returns the number of concrete class tuples in the product
// (capped at cap to avoid overflow; returns cap if exceeded).
func (t Tuple) Size(cap int) int {
	n := 1
	for _, s := range t {
		n *= s.Len()
		if n >= cap || n < 0 {
			return cap
		}
	}
	return n
}

// Hash returns a content hash suitable for dedup maps.
func (t Tuple) Hash() uint64 {
	var h uint64 = 14695981039346656037
	for _, s := range t {
		h ^= s.Hash()
		h *= 1099511628211
	}
	return h
}

// String renders the tuple with class names resolved via h, e.g.
// "<{ListSet HashSet}, {HashSet}>".
func (t Tuple) String(h *Hierarchy) string {
	var b strings.Builder
	b.WriteByte('<')
	for i, s := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('{')
		first := true
		s.ForEach(func(id int) bool {
			if !first {
				b.WriteByte(' ')
			}
			first = false
			b.WriteString(h.classes[id].Name)
			return true
		})
		b.WriteByte('}')
	}
	b.WriteByte('>')
	return b.String()
}

// ShortKey packs the full 32-bit IDs of at most two classes into a
// nonzero key, unique within an arity; a wider tuple gets 0.
func ShortKey(classes []*Class) uint64 {
	switch len(classes) {
	case 0:
		return 1 << 63
	case 1:
		return 1<<63 | uint64(uint32(classes[0].ID))
	case 2:
		return 1<<63 | uint64(uint32(classes[0].ID)) | uint64(uint32(classes[1].ID))<<32
	}
	return 0
}
