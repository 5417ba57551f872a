package driver_test

import (
	"testing"

	"selspec/internal/driver"
	"selspec/internal/gen"
	"selspec/internal/opt"
)

// BenchmarkBuildRunGen200 is one gen-unique request without the
// service: a 200-class generated program (seed 1) loaded, built and
// run under CHA, Cust-MM and Selective (with its training run). It
// reports the optimizer bodies built per request next to allocs/op; a
// run builds only the bodies it reaches.
func BenchmarkBuildRunGen200(b *testing.B) {
	g := gen.New(gen.Config{Seed: 1, Classes: 200})
	bench := g.Benchmark()
	cfgs := []opt.Config{opt.CHA, opt.CustMM, opt.Selective}
	var bodies int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bodies = 0
		for _, cfg := range cfgs {
			p, err := driver.LoadNamed(bench.Name, bench.Source)
			if err != nil {
				b.Fatal(err)
			}
			c, _, err := p.Build(driver.BuildOptions{
				Opt:   opt.Options{Config: cfg},
				Train: driver.RunOptions{Overrides: bench.Train},
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := driver.Execute(c, driver.RunOptions{Overrides: bench.Test, CaptureOutput: true})
			if err != nil {
				b.Fatal(err)
			}
			bodies += res.Stats.CompiledBodies
		}
	}
	b.ReportMetric(float64(bodies), "bodies/op")
}
