package opt_test

import (
	"testing"

	"selspec/internal/driver"
	"selspec/internal/gen"
	"selspec/internal/opt"
)

// BenchmarkOptBodiesGen200 is the optimizer alone on gen-unique's
// program shape: opt.Compile plus CompileAll of a 200-class generated
// program (seed 1) under CHA and Cust, with the front end outside the
// timer. It reports the bodies built per iteration next to B/op. The
// lowered program is shared by every iteration: building bodies never
// changes it.
func BenchmarkOptBodiesGen200(b *testing.B) {
	bench := gen.New(gen.Config{Seed: 1, Classes: 200}).Benchmark()
	p, err := driver.LoadNamed(bench.Name, bench.Source)
	if err != nil {
		b.Fatal(err)
	}
	var bodies int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bodies = 0
		for _, cfg := range []opt.Config{opt.CHA, opt.Cust} {
			c, err := opt.Compile(p.Prog, opt.Options{Config: cfg})
			if err == nil {
				err = c.CompileAll()
			}
			if err != nil {
				b.Fatal(err)
			}
			bodies += c.Stats().CompiledBodies
		}
	}
	b.ReportMetric(float64(bodies), "bodies/op")
}
