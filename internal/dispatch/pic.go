// Package dispatch implements the run-time method lookup mechanisms
// discussed in §3.5 of the paper: polymorphic inline caches (Hölzle,
// Chambers & Ungar), dense single-dispatch tables, and compressed
// multi-method dispatch tables (in the style of Amiel et al. / Chen et
// al.), all extended to select among specialized method versions.
package dispatch

import (
	"cmp"
	"slices"

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
// no longer added. MaxPICSize is the largest bound a PIC takes.
const DefaultPICSize, MaxPICSize = 8, 16

// Entry is one PIC entry: an argument class tuple and the target it
// dispatches to. One- and two-argument tuples are held inline so an
// engine can compare them without building a tuple slice: they are
// 99.7% of the dynamic sends of the paper programs under Base, Cust,
// Cust-MM and CHA, and 71.5% of those of 200-class generated programs
// under CHA, Cust-MM and Selective (six seeds), whose remaining 28.5%
// have three or more arguments. Those wider tuples keep a slice
// behind a pointer, which holds an entry at 64 bytes; an engine
// compares them with Find. Entries never move once added: the cache
// keeps its move-to-front order in a separate index.
type Entry struct {
	Target

	// Payload belongs to the engine that probes the cache: the bytecode
	// VM keeps the entry's compiled proc here, resolved on its first hit
	// through the entry. The tree tier leaves it nil.
	Payload any

	c0, c1 *hier.Class    // the tuple when n <= 2 (nil past n)
	n      int32          // the tuple's arity
	wide   *[]*hier.Class // the tuple when n > 2
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
// The zero PIC is an empty cache of DefaultPICSize entries.
type PIC struct {
	entries []Entry
	// order indexes entries, front first: a promotion rotates these
	// bytes, not the entries, whose pointers make a move a typed copy.
	order [MaxPICSize]uint8
	max   int

	Hits   uint64
	Misses uint64

	// M carries the optional shared obs counters. A value (not a
	// pointer) so the zero PIC needs no extra allocation and the
	// disabled cost is a nil check per counter.
	M PICMetrics
}

// NewPIC returns a PIC of max entries (0 = DefaultPICSize), MaxPICSize at most.
func NewPIC(max int) *PIC {
	if max <= 0 {
		max = DefaultPICSize
	}
	return &PIC{max: min(max, MaxPICSize)}
}

// Is reports whether e caches the tuple of arity n <= 2 whose classes
// are c0 and c1 (nil past n). Wide tuples are compared with Find.
func (e *Entry) Is(c0, c1 *hier.Class, n int32) bool {
	return e.n == n && e.c0 == c0 && e.c1 == c1
}

// match compares an entry's class tuple against the actuals.
func (e *Entry) match(classes []*hier.Class) bool {
	switch n := len(classes); {
	case n > 2:
		return e.n == int32(n) && slices.Equal(*e.wide, classes)
	case n == 2:
		return e.Is(classes[0], classes[1], 2)
	case n == 1:
		return e.Is(classes[0], nil, 1)
	}
	return e.n == 0
}

// Classes returns a copy of the entry's class tuple.
func (e *Entry) Classes() []*hier.Class {
	if e.n > 2 {
		return slices.Clone(*e.wide)
	}
	return []*hier.Class{e.c0, e.c1}[:e.n]
}

// Lookup searches the cache for the class tuple. Hits behind the front
// entry move to the front (preserving the relative order of the rest),
// so a site's hottest tuple is always the first — monomorphic and
// phase-stable sites pay a single compare.
func (p *PIC) Lookup(classes []*hier.Class) (Target, bool) {
	if e := p.Find(classes); e != nil {
		return e.Target, true
	}
	p.NoteMiss()
	return Target{}, false
}

// Find is Lookup for an engine that resolves a hit through the entry
// itself: a match is counted as a hit (and, behind the front, moved to
// the front and counted as a promotion) and returned. A miss returns
// nil and counts nothing; the caller's full dispatch counts it.
func (p *PIC) Find(classes []*hier.Class) *Entry {
	for k := range p.entries {
		if e := &p.entries[p.order[k]]; e.match(classes) {
			if k == 0 {
				p.HitFront()
			} else {
				p.promote(k)
			}
			return e
		}
	}
	return nil
}

// Front returns the front entry, the one Lookup compares first, or nil
// when the cache is empty. An engine that matches it itself counts the
// hit with HitFront.
func (p *PIC) Front() *Entry {
	if len(p.entries) == 0 {
		return nil
	}
	return &p.entries[p.order[0]]
}

// HitFront counts a hit on the front entry.
func (p *PIC) HitFront() {
	p.Hits++
	p.M.Hits.Inc()
}

// Promote is Lookup behind the front entry for a one- or two-argument
// tuple (see Entry.Is), for an engine that has already compared the
// front entry itself: a match moves to the front, is counted as a hit
// and a promotion, and is returned. A miss returns nil and counts
// nothing; the caller's full dispatch counts it.
func (p *PIC) Promote(c0, c1 *hier.Class, n int32) *Entry {
	for k := 1; k < len(p.entries); k++ {
		if e := &p.entries[p.order[k]]; e.Is(c0, c1, n) {
			p.promote(k)
			return e
		}
	}
	return nil
}

// promote moves the entry at order position k >= 1 to the front, keeping
// the others' relative order, and counts the hit and promotion.
func (p *PIC) promote(k int) {
	i := p.order[k]
	copy(p.order[1:k+1], p.order[:k])
	p.order[0] = i
	p.HitFront()
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
	if p.Megamorphic() {
		return
	}
	e := Entry{Target: t, n: int32(len(classes))}
	switch {
	case e.n > 2:
		wide := slices.Clone(classes)
		e.wide = &wide
	case e.n == 2:
		e.c0, e.c1 = classes[0], classes[1]
	case e.n == 1:
		e.c0 = classes[0]
	}
	p.order[len(p.entries)] = uint8(len(p.entries))
	p.entries = append(p.entries, e)
}

// Len returns the number of cached entries.
func (p *PIC) Len() int { return len(p.entries) }

// Megamorphic reports whether the cache has hit its entry bound.
func (p *PIC) Megamorphic() bool { return len(p.entries) >= cmp.Or(p.max, DefaultPICSize) }

// Entries returns a copy of the cached entries, front first (for
// profile-style inspection: the paper gathers its call graph from PIC
// counters, §3.7.2).
func (p *PIC) Entries() (out []Entry) {
	for _, i := range p.order[:len(p.entries)] {
		out = append(out, p.entries[i])
	}
	return out
}
