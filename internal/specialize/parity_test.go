package specialize_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"selspec/internal/driver"
	"selspec/internal/gen"
	"selspec/internal/opt"
	"selspec/internal/profile"
	"selspec/internal/programs"
	"selspec/internal/specialize"
)

// parityParams covers the paper's default run plus the ablations that
// take the other paths through the runner: every arc, tuple pruning,
// and the space-budget heuristic.
var parityParams = []struct {
	name string
	p    specialize.Params
}{
	{"default", specialize.Params{}},
	{"all-arcs", specialize.Params{Threshold: -1}},
	{"tuples", specialize.Params{Threshold: -1, UseTupleProfiles: true}},
	{"budget", specialize.Params{SpaceBudget: 8}},
}

// renderParity trains every paper benchmark and five 200-class
// generated programs, runs the algorithm under each parityParams entry,
// and renders one line pair per run: the sha256 of Describe's text and
// every Stats field.
func renderParity(t *testing.T) string {
	t.Helper()
	progs := programs.All()
	for seed := uint64(1); seed <= 5; seed++ {
		progs = append(progs, gen.New(gen.Config{Seed: seed, Classes: 200}).Benchmark())
	}
	var b strings.Builder
	for _, bm := range progs {
		p, err := driver.LoadNamed(bm.Name, bm.Source)
		if err != nil {
			t.Fatal(err)
		}
		cg := profile.NewCallGraph(p.Prog)
		if _, _, err := p.Build(driver.BuildOptions{
			Opt:   opt.Options{Config: opt.Selective},
			Train: driver.RunOptions{Overrides: bm.Train, Profile: cg},
		}); err != nil {
			t.Fatal(err)
		}
		for _, pp := range parityParams {
			res := specialize.Run(p.Prog, cg, pp.p)
			fmt.Fprintf(&b, "%s/%s %x\n%+v\n", bm.Name, pp.name,
				sha256.Sum256([]byte(res.Describe(p.Prog.H))), res.Stats)
		}
	}
	return b.String()
}

// TestSpecializationsMatchGolden pins the algorithm's output: the
// specializations (Describe text, by digest, since the all-arcs runs on
// generated programs describe thousands of tuples) and every Stats
// field must equal testdata/parity.golden, which was recorded before
// the runner indexed out-arcs once per run instead of re-sorting the
// call graph for every method.
func TestSpecializationsMatchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/parity.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := renderParity(t)
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
