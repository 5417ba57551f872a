// Scale benchmarks for the ApplicableClasses closure over generated
// mega-hierarchies (package hier_test so it can import internal/gen;
// the gen->hier edge only exists in test code, so there is no cycle).
//
// Run with:
//
//	go test ./internal/hier -bench ApplicableClasses -benchtime 3x
//
// Each iteration rebuilds the hierarchy outside the timer so the
// memoized closure is computed cold every time — the number being
// measured is the per-program analysis cost the specializer pays, not
// a cache hit.
package hier_test

import (
	"sync"
	"testing"

	"selspec/internal/gen"
	"selspec/internal/hier"
	"selspec/internal/lang"
)

var (
	scaleMu    sync.Mutex
	scaleProgs = map[gen.Config]*lang.Program{}
)

// genProgram parses (once per config) a generated program.
func genProgram(tb testing.TB, cfg gen.Config) *lang.Program {
	tb.Helper()
	scaleMu.Lock()
	defer scaleMu.Unlock()
	if p, ok := scaleProgs[cfg]; ok {
		return p
	}
	p, err := lang.Parse(gen.New(cfg).Source())
	if err != nil {
		tb.Fatalf("parse generated program: %v", err)
	}
	scaleProgs[cfg] = p
	return p
}

// scaleProgram is the generated program with the given class count
// and 4x methods, at depth 32+.
func scaleProgram(tb testing.TB, classes int) *lang.Program {
	return genProgram(tb, gen.Config{Seed: 7, Classes: classes, Methods: 4 * classes, Depth: 32})
}

func benchApplicable(b *testing.B, prog *lang.Program) {
	methods := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h, err := hier.Build(prog)
		if err != nil {
			b.Fatal(err)
		}
		h.Freeze()
		b.StartTimer()
		methods = 0
		for _, gf := range h.GFs() {
			for _, m := range gf.Methods {
				h.ApplicableClasses(m)
				methods++
			}
		}
	}
	b.ReportMetric(float64(methods), "methods")
}

// BenchmarkApplicableClassesGen200 is the program shape of the
// gen-unique selbench workload: 200 classes at generator defaults.
func BenchmarkApplicableClassesGen200(b *testing.B) {
	benchApplicable(b, genProgram(b, gen.Config{Seed: 7, Classes: 200}))
}

func BenchmarkApplicableClasses1k(b *testing.B)  { benchApplicable(b, scaleProgram(b, 1_000)) }
func BenchmarkApplicableClasses10k(b *testing.B) { benchApplicable(b, scaleProgram(b, 10_000)) }

// BenchmarkHierBuild1k isolates hierarchy construction (topological
// numbering, cone bitsets, GF indexing) from the closure computation.
func BenchmarkHierBuild1k(b *testing.B) {
	prog := scaleProgram(b, 1_000)
	for i := 0; i < b.N; i++ {
		h, err := hier.Build(prog)
		if err != nil {
			b.Fatal(err)
		}
		h.Freeze()
	}
}
