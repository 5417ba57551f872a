package hier

import "selspec/internal/bits"

// Poles is the dispatch-equivalence partition of one argument position
// of a generic function: the "poles" of the compressed dispatch table
// literature (Amiel et al. 94, Chen et al. 94). Two classes share a
// pole iff c ⊑ m.Specs[p] has the same answer for every method m of
// the GF, so a lookup cannot tell them apart at that position. Only
// classes that some method applies to at p belong to a pole. Poles are
// numbered in the order of their lowest class ID, which is also their
// representative.
type Poles struct {
	Reps    []*Class    // per pole: its lowest-ID class
	Members []*bits.Set // per pole: the IDs of its classes
}

// Poles returns the memoized pole partition of position p of g. It is
// shared by ApplicableClasses and the dispatch package's compressed
// tables. Freeze must have been called; safe for concurrent use.
func (h *Hierarchy) Poles(g *GF, p int) *Poles {
	if !h.frozen {
		panic("hier: Poles before Freeze")
	}
	h.polesMu.Lock()
	defer h.polesMu.Unlock()
	if g.poles == nil {
		g.poles = make([]*Poles, g.Arity)
	}
	if g.poles[p] == nil {
		g.poles[p] = h.computePoles(g, p)
	}
	return g.poles[p]
}

// computePoles sweeps the classes in ID order, which puts parents
// before children. A class's signature, the set of specializers at p
// it falls under, is the union of its parents' signatures plus itself
// when it is one. So a class that is no specializer and whose parents
// all sit in one pole joins that pole without building a signature;
// only specializers and multiple-inheritance joins are interned.
func (h *Hierarchy) computePoles(g *GF, p int) *Poles {
	if h.poleBuf == nil {
		h.poleBuf = make([]int, 2*len(h.classes))
	}
	// poleOf maps class ID → pole (-1: no method applies); bitOf maps a
	// distinct specializer at p to 1 + its signature bit, and is zeroed
	// again on return.
	poleOf, bitOf := h.poleBuf[:len(h.classes)], h.poleBuf[len(h.classes):]
	nbits := 0
	for _, m := range g.Methods {
		if s := m.Specs[p]; bitOf[s.ID] == 0 {
			nbits++
			bitOf[s.ID] = nbits
		}
	}
	defer func() {
		for _, m := range g.Methods {
			bitOf[m.Specs[p].ID] = 0
		}
	}()

	ps := &Poles{}
	var sigs []*bits.Set
	byHash := map[uint64][]int{}
	sig := bits.New(nbits)
	for _, c := range h.classes {
		b := bitOf[c.ID] - 1
		pole := -1
		if len(c.Parents) > 0 {
			pole = poleOf[c.Parents[0].ID]
		}
		same := b < 0
		for _, q := range c.Parents {
			same = same && poleOf[q.ID] == pole
		}
		if !same {
			sig.Clear()
			if b >= 0 {
				sig.Add(b)
			}
			for _, q := range c.Parents {
				if k := poleOf[q.ID]; k >= 0 {
					sig.AddAll(sigs[k])
				}
			}
			pole = -1
			hash := sig.Hash()
			for _, k := range byHash[hash] {
				if sigs[k].Equal(sig) {
					pole = k
					break
				}
			}
			if pole < 0 {
				pole = len(sigs)
				sigs = append(sigs, sig.Clone())
				byHash[hash] = append(byHash[hash], pole)
				ps.Reps = append(ps.Reps, c)
				ps.Members = append(ps.Members, bits.New(len(h.classes)))
			}
		}
		poleOf[c.ID] = pole
		if pole >= 0 {
			ps.Members[pole].Add(c.ID)
		}
	}
	return ps
}
