package opt

import (
	"testing"

	"selspec/internal/hier"
	"selspec/internal/ir"
	"selspec/internal/lang"
)

// TestVersionKeysFullWidth: the Cust/Cust-MM version keys carry every
// bit of a class ID, so IDs 1 and 65,537 — equal in their low 16 bits —
// select different versions.
func TestVersionKeysFullWidth(t *testing.T) {
	lo, hi := &hier.Class{ID: 1}, &hier.Class{ID: 65_537}
	if string(appendClassID(nil, lo.ID)) == string(appendClassID(nil, hi.ID)) {
		t.Error("class IDs 1 and 65537 share a version key")
	}
	pair := func(a, b *hier.Class) string {
		return string(classesKey(nil, []int{0, 1}, []*hier.Class{a, b}))
	}
	if pair(lo, hi) == pair(hi, lo) || pair(lo, lo) == pair(hi, hi) {
		t.Error("two-position version keys collide on IDs 1 and 65537")
	}
}

const versionKeySrc = `
class A
class B isa A
class C isa A
method m(x@A) { 1; }
method m(x@B) { 2; }
method r(x@A, y@A) { 3; }
method r(x@B, y@C) { 4; }
method main() { m(new C()); r(new B(), new C()); }
`

// TestSelectVersionAllocFree: once a tuple's version exists, selecting
// it again under Cust, Cust-MM and Selective allocates nothing.
func TestSelectVersionAllocFree(t *testing.T) {
	cases := []struct {
		gf      string
		classes []string
	}{
		{"m", []string{"C"}},
		{"r", []string{"B", "C"}},
	}
	for _, cfg := range []Config{Cust, CustMM, Selective} {
		prog, err := ir.Lower(lang.MustParse(versionKeySrc))
		if err != nil {
			t.Fatal(err)
		}
		h := prog.H
		tuples := make([][]*hier.Class, len(cases))
		for k, tc := range cases {
			for _, n := range tc.classes {
				cl, _ := h.Class(n)
				tuples[k] = append(tuples[k], cl)
			}
		}
		opts := Options{Config: cfg}
		if cfg == Selective {
			// Each case's method gets its general tuple plus one version
			// specialized on exactly the classes selected below.
			opts.Specializations = map[*hier.Method][]hier.Tuple{}
			for k, tc := range cases {
				m := methodIn(t, h, tc.gf)
				gen := h.ApplicableClasses(m).Clone()
				spec := gen.Clone()
				for p, cl := range tuples[k] {
					spec[p].Clear()
					spec[p].Add(cl.ID)
				}
				opts.Specializations[m] = []hier.Tuple{gen, spec}
			}
		}
		c, err := Compile(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k, tc := range cases {
			m := methodByName(t, c, tc.gf, "A")
			classes := tuples[k]
			v := c.SelectVersion(m, classes) // Cust-MM defines it here
			if again := c.SelectVersion(m, classes); again != v {
				t.Fatalf("%v %s: a seen tuple selected %v, then %v", cfg, tc.gf, v, again)
			}
			if cfg == Selective && v.General {
				t.Fatalf("Selective %s: selected the general version, not the specialization", tc.gf)
			}
			if n := testing.AllocsPerRun(100, func() { c.SelectVersion(m, classes) }); n != 0 {
				t.Errorf("%v %s: SelectVersion on a seen tuple made %.0f allocs, want 0", cfg, tc.gf, n)
			}
		}
	}
}

// methodIn returns gf's method specialized on A in h.
func methodIn(t *testing.T, h *hier.Hierarchy, gf string) *hier.Method {
	t.Helper()
	for _, m := range h.Methods() {
		if m.GF.Name == gf && m.Specs[0].Name == "A" {
			return m
		}
	}
	t.Fatalf("no method %s@A", gf)
	return nil
}
