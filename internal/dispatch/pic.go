// Package dispatch implements the run-time method lookup mechanisms
// discussed in §3.5 of the paper: polymorphic inline caches (Hölzle,
// Chambers & Ungar), dense single-dispatch tables, and compressed
// multi-method dispatch tables (in the style of Amiel et al. / Chen et
// al.), all extended to select among specialized method versions.
package dispatch

import (
	"selspec/internal/hier"
	"selspec/internal/ir"
	"selspec/internal/obs"
)

// Target is the result of a dispatch: the most-specific method and the
// specialized version selected for the actual argument classes.
type Target struct {
	Method  *hier.Method
	Version *ir.Version
}

// DefaultPICSize is the default entry bound of a polymorphic inline
// cache; beyond it the site is treated as megamorphic and entries are
// no longer added.
const DefaultPICSize = 8

type picEntry struct {
	classes []*hier.Class
	target  Target
}

// PICMetrics is the observability hook of a PIC: shared counters
// (typically one set for every PIC of an interpreter, registered in an
// obs.Registry) bumped on each lookup. The zero value — all-nil
// counters — is the disabled mode and adds only nil checks to the hit
// path; see the overhead guard in bench_test.go.
type PICMetrics struct {
	Hits       *obs.Counter
	Misses     *obs.Counter
	Promotions *obs.Counter // hits behind the front entry moved to front
}

// NewPICMetrics registers the shared PIC counters (zero value when the
// registry is nil).
func NewPICMetrics(r *obs.Registry) PICMetrics {
	if r == nil {
		return PICMetrics{}
	}
	return PICMetrics{
		Hits:       r.Counter("selspec_dispatch_pic_hits_total"),
		Misses:     r.Counter("selspec_dispatch_pic_misses_total"),
		Promotions: r.Counter("selspec_dispatch_pic_promotions_total"),
	}
}

// PIC is a call-site-specific polymorphic inline cache: an association
// list mapping actual argument class tuples to dispatch targets. The
// key covers every argument position because specialized versions may
// constrain positions the generic function itself does not dispatch on.
type PIC struct {
	entries []picEntry
	max     int

	Hits   uint64
	Misses uint64

	// M carries the optional shared obs counters. A value (not a
	// pointer) so the zero PIC needs no extra allocation and the
	// disabled cost is a nil check per counter.
	M PICMetrics
}

// NewPIC returns a PIC bounded to max entries (0 = DefaultPICSize).
func NewPIC(max int) *PIC {
	if max <= 0 {
		max = DefaultPICSize
	}
	return &PIC{max: max}
}

// match compares an entry's class tuple against the actuals. The
// common arities are unrolled so a monomorphic site costs one (or two)
// pointer compares instead of a counted loop.
func (e *picEntry) match(classes []*hier.Class) bool {
	k := e.classes
	if len(k) != len(classes) {
		return false
	}
	switch len(k) {
	case 1:
		return k[0] == classes[0]
	case 2:
		return k[0] == classes[0] && k[1] == classes[1]
	case 3:
		return k[0] == classes[0] && k[1] == classes[1] && k[2] == classes[2]
	default:
		for j, c := range k {
			if c != classes[j] {
				return false
			}
		}
		return true
	}
}

// Lookup searches the cache for the class tuple. Hits behind the front
// entry move to the front (preserving the relative order of the rest),
// so a site's hottest tuple is always the first — monomorphic and
// phase-stable sites pay a single arity-specialized compare.
func (p *PIC) Lookup(classes []*hier.Class) (Target, bool) {
	if len(p.entries) > 0 && p.entries[0].match(classes) {
		p.Hits++
		p.M.Hits.Inc()
		return p.entries[0].target, true
	}
	for i := 1; i < len(p.entries); i++ {
		if p.entries[i].match(classes) {
			p.PromoteAt(i)
			return p.entries[0].target, true
		}
	}
	p.Misses++
	p.M.Misses.Inc()
	return Target{}, false
}

// Entry exposes the i'th cache entry (tuple and target) for engines
// that mirror the cache's hottest entries into faster structures; ok
// is false past the live entries. The returned tuple slice is owned by
// the PIC and must not be mutated.
func (p *PIC) Entry(i int) ([]*hier.Class, Target, bool) {
	if i < 0 || i >= len(p.entries) {
		return nil, Target{}, false
	}
	return p.entries[i].classes, p.entries[i].target, true
}

// PromoteAt replays the bookkeeping of a Lookup that matched entry i
// (i >= 1) — hit counters, promotion counter, and the move-to-front
// that preserves the relative order of the entries it displaces — for
// an engine-side cache that matched a mirrored entry itself. The caller
// guarantees the cache currently has more than i entries and that entry
// i is the matched one, so PIC state stays identical to a run that took
// Lookup.
func (p *PIC) PromoteAt(i int) {
	// Element moves, not copy: a promotion shifts at most a few entries,
	// and copy would be a runtime.typedslicecopy call on every hit
	// behind the front.
	e := p.entries[i]
	for k := i; k > 0; k-- {
		p.entries[k] = p.entries[k-1]
	}
	p.entries[0] = e
	p.Hits++
	p.M.Hits.Inc()
	p.M.Promotions.Inc()
}

// NoteMiss replays the bookkeeping of a Lookup that misses — the miss
// counters — for an engine that already knows the tuple is absent: a
// full cache never changes its tuples, so a tuple that missed it once
// misses it every time.
func (p *PIC) NoteMiss() {
	p.Misses++
	p.M.Misses.Inc()
}

// Add inserts an entry unless the cache is megamorphic (full).
func (p *PIC) Add(classes []*hier.Class, t Target) {
	if len(p.entries) >= p.max {
		return
	}
	cp := make([]*hier.Class, len(classes))
	copy(cp, classes)
	p.entries = append(p.entries, picEntry{classes: cp, target: t})
}

// Len returns the number of cached entries.
func (p *PIC) Len() int { return len(p.entries) }

// Megamorphic reports whether the cache has hit its entry bound.
func (p *PIC) Megamorphic() bool { return len(p.entries) >= p.max }

// Entries returns the cached targets (for profile-style inspection: the
// paper gathers its call graph from PIC counters, §3.7.2).
func (p *PIC) Entries() []Target {
	out := make([]Target, len(p.entries))
	for i, e := range p.entries {
		out[i] = e.target
	}
	return out
}
