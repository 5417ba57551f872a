package opt

import (
	"testing"

	"selspec/internal/hier"
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
// it again under Cust and Cust-MM allocates nothing.
func TestSelectVersionAllocFree(t *testing.T) {
	for _, cfg := range []Config{Cust, CustMM} {
		c := compile(t, versionKeySrc, Options{Config: cfg})
		h := c.Prog.H
		b, _ := h.Class("B")
		cc, _ := h.Class("C")
		for _, tc := range []struct {
			gf      string
			classes []*hier.Class
		}{
			{"m", []*hier.Class{cc}},
			{"r", []*hier.Class{b, cc}},
		} {
			m := methodByName(t, c, tc.gf, "A")
			v := c.SelectVersion(m, tc.classes) // Cust-MM defines it here
			if again := c.SelectVersion(m, tc.classes); again != v {
				t.Fatalf("%v %s: a seen tuple selected %v, then %v", cfg, tc.gf, v, again)
			}
			if n := testing.AllocsPerRun(100, func() { c.SelectVersion(m, tc.classes) }); n != 0 {
				t.Errorf("%v %s: SelectVersion on a seen tuple made %.0f allocs, want 0", cfg, tc.gf, n)
			}
		}
	}
}
