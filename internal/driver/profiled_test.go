package driver_test

import (
	"testing"
	"time"

	"selspec/internal/driver"
	"selspec/internal/opt"
	"selspec/internal/profile"
	"selspec/internal/programs"
)

// baseRun is a training run without the service: a Base build of p and
// a VM run on the train input, recording into a fresh call graph when
// profiled (nil otherwise).
func baseRun(tb testing.TB, p *driver.Pipeline, train map[string]int64, profiled bool) *profile.CallGraph {
	ro := driver.RunOptions{Overrides: train}
	if profiled {
		ro.Profile = profile.NewCallGraph(p.Prog)
	}
	c, err := opt.Compile(p.Prog, opt.Options{Config: opt.Base})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := driver.Execute(c, ro); err != nil {
		tb.Fatal(err)
	}
	return ro.Profile
}

// BenchmarkProfiledRun measures what profiling adds to a training run:
// a Base build and VM run of Typechecker and Compiler on their training
// inputs, with and without a call graph recording it. Each iteration
// times one run of each, alternating which goes first, so neither side
// pays alone for running first; one untimed run of each beforehand
// grows the heap and fills the hierarchy's lookup caches. It reports
// both times and their ratio.
func BenchmarkProfiledRun(b *testing.B) {
	for _, name := range []string{"Typechecker", "Compiler"} {
		bench, _ := programs.ByName(name)
		p, err := driver.LoadNamed(bench.Name, bench.Source)
		if err != nil {
			b.Fatal(err)
		}
		baseRun(b, p, bench.Train, true)
		baseRun(b, p, bench.Train, false)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var ns [2]time.Duration // unprofiled, profiled
			for i := 0; i < b.N; i++ {
				for _, profiled := range [2]bool{i%2 == 0, i%2 != 0} {
					start := time.Now()
					baseRun(b, p, bench.Train, profiled)
					if profiled {
						ns[1] += time.Since(start)
					} else {
						ns[0] += time.Since(start)
					}
				}
			}
			b.ReportMetric(float64(ns[1].Nanoseconds())/float64(b.N), "profiled-ns/op")
			b.ReportMetric(float64(ns[0].Nanoseconds())/float64(b.N), "unprofiled-ns/op")
			b.ReportMetric(float64(ns[1])/float64(ns[0]), "profiled/unprofiled")
		})
	}
}

// profiledAllocSlack covers what a profiled run allocates once rather
// than per arc, tuple or site: the call graph itself, its per-method
// sample table, and the growth of its maps and of the run's arc list.
const profiledAllocSlack = 64

// TestProfiledRunAllocs bounds what recording a profile allocates: at
// most one allocation per distinct arc, distinct entry tuple and site
// touched, plus profiledAllocSlack, above the same run unprofiled. A
// send or method entry that allocates would add one per call.
func TestProfiledRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two training inputs five times each")
	}
	for _, b := range programs.All() {
		p, err := driver.LoadNamed(b.Name, b.Source)
		if err != nil {
			t.Fatal(err)
		}
		cg := baseRun(t, p, b.Train, true)
		sites := map[int]bool{}
		for _, a := range cg.Arcs() {
			sites[a.Site.ID] = true
		}
		tuples := 0
		for _, m := range p.Prog.H.Methods() {
			if s := cg.Entries(m); s != nil {
				tuples += len(s.Tuples)
			}
		}
		profiled := testing.AllocsPerRun(2, func() { baseRun(t, p, b.Train, true) })
		unprofiled := testing.AllocsPerRun(2, func() { baseRun(t, p, b.Train, false) })
		limit := unprofiled + float64(cg.Len()+tuples+len(sites)+profiledAllocSlack)
		t.Logf("%s: profiled %.0f, unprofiled %.0f allocs; %d arcs, %d tuples, %d sites",
			b.Name, profiled, unprofiled, cg.Len(), tuples, len(sites))
		if profiled > limit {
			t.Errorf("%s: profiled run allocates %.0f, want at most %.0f (unprofiled %.0f + %d arcs + %d tuples + %d sites + %d)",
				b.Name, profiled, limit, unprofiled, cg.Len(), tuples, len(sites), profiledAllocSlack)
		}
	}
}
