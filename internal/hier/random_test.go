package hier_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"selspec/internal/bits"
	"selspec/internal/dispatch"
	"selspec/internal/hier"
	"selspec/internal/lang"
)

// randomHierarchy builds a random class DAG of up to 16 classes, with
// frequent multiple inheritance, and random multi-methods of arity up
// to 3 over one generic function. At that size diamonds and ambiguous
// tuples land inside poles of several classes.
func randomHierarchy(t *testing.T, rng *rand.Rand) (*hier.Hierarchy, *hier.GF) {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		var b strings.Builder
		n := 4 + rng.Intn(13)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "class R%d", i)
			if i > 0 && rng.Intn(4) > 0 {
				p1 := rng.Intn(i)
				fmt.Fprintf(&b, " isa R%d", p1)
				if p2 := rng.Intn(i); p2 != p1 && rng.Intn(3) == 0 {
					fmt.Fprintf(&b, ", R%d", p2)
				}
			}
			b.WriteString("\n")
		}
		arity := 1 + rng.Intn(3)
		nm := 1 + rng.Intn(6)
		seen := map[string]bool{}
		count := 0
		for k := 0; k < nm; k++ {
			specs := make([]string, arity)
			names := make([]string, arity)
			for p := range specs {
				specs[p] = fmt.Sprintf("R%d", rng.Intn(n))
				names[p] = fmt.Sprintf("x%d@%s", p, specs[p])
			}
			key := strings.Join(specs, "/")
			if seen[key] {
				continue
			}
			seen[key] = true
			fmt.Fprintf(&b, "method f(%s) { %d; }\n", strings.Join(names, ", "), k)
			count++
		}
		if count == 0 {
			continue
		}
		prog, err := lang.Parse(b.String())
		if err != nil {
			t.Fatalf("generator emitted unparseable source: %v\n%s", err, b.String())
		}
		h, err := hier.Build(prog)
		if err != nil {
			continue // duplicate parents etc. — try again
		}
		g, ok := h.GF("f", arity)
		if !ok {
			continue
		}
		return h, g
	}
	t.Skip("could not generate a hierarchy after 20 attempts")
	return nil, nil
}

// TestRandomApplicableClassesInvariants checks, over random
// hierarchies, the properties the specializer and the dispatch tables
// rely on:
//
//  1. soundness: lookup(c⃗)=m  ⇒  ∀i: c_i ∈ ApplicableClasses[m][i];
//  2. exactness (exact mode): on every dispatched position,
//     ApplicableClasses[m] is exactly the projection of the class
//     tuples m wins;
//  3. the compressed dispatch table agrees with Lookup on every class
//     tuple.
func TestRandomApplicableClassesInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	for round := 0; round < 60; round++ {
		h, g := randomHierarchy(t, rng)
		arity := g.Arity
		table, err := dispatch.NewMMTable(h, g)
		if err != nil {
			t.Fatal(err)
		}

		// Enumerate every concrete tuple, record winners, and check
		// the table against Lookup.
		winners := map[*hier.Method][][]*hier.Class{}
		classes := make([]*hier.Class, arity)
		var rec func(pos int)
		rec = func(pos int) {
			if pos == arity {
				m, err := h.Lookup(g, classes...)
				got, amb := table.Lookup(classes)
				if got != m || (err != nil && amb != err.Ambiguous) || (err == nil && amb) {
					t.Fatalf("round %d: table %v (ambiguous %t), Lookup %v, %v on %v",
						round, got, amb, m, err, classes)
				}
				if err == nil {
					cp := make([]*hier.Class, arity)
					copy(cp, classes)
					winners[m] = append(winners[m], cp)
				}
				return
			}
			for _, c := range h.Classes() {
				classes[pos] = c
				rec(pos + 1)
			}
		}
		rec(0)

		for _, m := range g.Methods {
			app, exact := h.ApplicableClassesExact(m)
			// 1. Soundness.
			for _, win := range winners[m] {
				for i, c := range win {
					if !app[i].Has(c.ID) {
						t.Fatalf("round %d: lookup %v wins %s but Applicable %v misses pos %d",
							round, win, m.Name(), app.String(h), i)
					}
				}
			}
			if !exact {
				continue
			}
			// 2. Exactness on dispatched positions.
			for _, p := range g.DispatchedPositions() {
				covered := bits.New(h.NumClasses())
				for _, win := range winners[m] {
					covered.Add(win[p].ID)
				}
				if !app[p].Equal(covered) {
					t.Fatalf("round %d: Applicable[%s][%d] = %v, want the winning projection %v",
						round, m.Name(), p, app[p], covered)
				}
			}
		}
	}
}

// TestRandomLookupMostSpecific: whenever lookup succeeds, the winner is
// applicable and pointwise ⊑ every other applicable method.
func TestRandomLookupMostSpecific(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for round := 0; round < 60; round++ {
		h, g := randomHierarchy(t, rng)
		classes := make([]*hier.Class, g.Arity)
		var rec func(pos int)
		rec = func(pos int) {
			if pos == g.Arity {
				m, err := h.Lookup(g, classes...)
				var applicable []*hier.Method
			outer:
				for _, cand := range g.Methods {
					for i, s := range cand.Specs {
						if !classes[i].IsSubclassOf(s) {
							continue outer
						}
					}
					applicable = append(applicable, cand)
				}
				if err != nil {
					if !err.Ambiguous && len(applicable) != 0 {
						t.Fatalf("round %d: MNU with %d applicable methods", round, len(applicable))
					}
					if err.Ambiguous && len(applicable) < 2 {
						t.Fatalf("round %d: ambiguity with %d applicable", round, len(applicable))
					}
					return
				}
				for _, o := range applicable {
					if !m.PointwiseLE(o) {
						t.Fatalf("round %d: winner %s not ⊑ applicable %s", round, m.Name(), o.Name())
					}
				}
				return
			}
			for _, c := range h.Classes() {
				classes[pos] = c
				rec(pos + 1)
			}
		}
		rec(0)
	}
}
