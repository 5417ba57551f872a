package hier_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"selspec/internal/dispatch"
	"selspec/internal/gen"
	"selspec/internal/hier"
	"selspec/internal/lang"
	"selspec/internal/programs"
)

// renderApplicable renders one line per program: the sha256 over every
// method's Name, exact flag and ApplicableClasses tuple, and the
// compressed MMTable size of every GF that dispatches on some position.
// Inputs are the four paper benchmarks, generated seeds 1–5 at 200
// classes, and the 1k-class scale program.
func renderApplicable(t *testing.T) string {
	t.Helper()
	type input struct {
		name string
		prog *lang.Program
	}
	var ins []input
	parse := func(name, src string) {
		p, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ins = append(ins, input{name, p})
	}
	for _, bm := range programs.All() {
		parse(bm.Name, bm.Source)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		bm := gen.New(gen.Config{Seed: seed, Classes: 200}).Benchmark()
		parse(bm.Name, bm.Source)
	}
	ins = append(ins, input{"scale-1k", scaleProgram(t, 1_000)})

	var out strings.Builder
	for _, in := range ins {
		h, err := hier.Build(in.prog)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		h.Freeze()
		d := sha256.New()
		for _, g := range h.GFs() {
			for _, m := range g.Methods {
				tup, exact := h.ApplicableClassesExact(m)
				fmt.Fprintf(d, "%s %t %s\n", m.Name(), exact, tup.String(h))
			}
			if len(g.DispatchedPositions()) == 0 {
				continue
			}
			tbl, err := dispatch.NewMMTable(h, g)
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			fmt.Fprintf(d, "table %s %d\n", g.Key(), tbl.Size())
		}
		fmt.Fprintf(&out, "%s %x\n", in.name, d.Sum(nil))
	}
	return out.String()
}

// TestApplicableClassesMatchGolden pins ApplicableClasses (tuple and
// exact flag) and the compressed dispatch-table sizes to
// testdata/applicable.golden, recorded when both enumerated concrete
// class tuples rather than dispatch-equivalence poles.
func TestApplicableClassesMatchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/applicable.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := renderApplicable(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, want %d", len(gl), len(wl))
}

// TestConcurrentPolesAndApplicable shares one frozen hierarchy between
// goroutines that compute ApplicableClasses and build MMTables (both
// fill the pole memo) in different GF orders, and checks every answer
// against a serial run on an identical hierarchy. Run under -race.
func TestConcurrentPolesAndApplicable(t *testing.T) {
	prog := genProgram(t, gen.Config{Seed: 1, Classes: 200})
	build := func() *hier.Hierarchy {
		h, err := hier.Build(prog)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	// answer renders what one GF yields: its methods' tuples and exact
	// flags, then its table size.
	answer := func(h *hier.Hierarchy, g *hier.GF) (string, error) {
		var b strings.Builder
		for _, m := range g.Methods {
			tup, exact := h.ApplicableClassesExact(m)
			fmt.Fprintf(&b, "%s %t %s\n", m.Name(), exact, tup.String(h))
		}
		if len(g.DispatchedPositions()) > 0 {
			tbl, err := dispatch.NewMMTable(h, g)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "table %d\n", tbl.Size())
		}
		return b.String(), nil
	}
	ref := build()
	want := make([]string, len(ref.GFs()))
	for i, g := range ref.GFs() {
		a, err := answer(ref, g)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a
	}

	h := build()
	gfs := h.GFs()
	const goroutines = 4
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range gfs {
				i := (k + w*len(gfs)/goroutines) % len(gfs)
				got, err := answer(h, gfs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("goroutine %d, %s: concurrent answer differs from serial", w, gfs[i].Key())
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
