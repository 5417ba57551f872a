package driver_test

import (
	"runtime"
	"testing"

	"selspec/internal/driver"
	"selspec/internal/opt"
	"selspec/internal/programs"
)

// paperRun is one paper-dispatch cell without the service: load, build
// under cfg and a VM run on the test input.
func paperRun(tb testing.TB, b programs.Benchmark, cfg opt.Config) {
	p, err := driver.LoadNamed(b.Name, b.Source)
	if err != nil {
		tb.Fatal(err)
	}
	c, _, err := p.Build(driver.BuildOptions{Opt: opt.Options{Config: cfg}})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := driver.Execute(c, driver.RunOptions{Overrides: b.Test, CaptureOutput: true}); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkPaperRun is the four paper programs under Base and CHA as
// the paper-dispatch workload requests them: load, build and a VM run
// on the test input. Its B/op is what the run feeds the collector.
func BenchmarkPaperRun(b *testing.B) {
	for _, bench := range programs.All() {
		for _, cfg := range []opt.Config{opt.Base, opt.CHA} {
			b.Run(bench.Name+"/"+cfg.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					paperRun(b, bench, cfg)
				}
			})
		}
	}
}

// instSchedRunBytes bounds what a Base VM run of InstSched on its test
// input allocates. Its integer arrays (succs, preds, height, ...) hold
// 8 bytes per element unboxed; boxed as Values they took about 5 MB.
const instSchedRunBytes = 3 << 20

// TestInstSchedRunAllocBytes pins the unboxed integer arrays: a run
// that boxed them again would allocate well past instSchedRunBytes.
func TestInstSchedRunAllocBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs InstSched on its test input")
	}
	b, _ := programs.ByName("InstSched")
	p, err := driver.LoadNamed(b.Name, b.Source)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := p.Build(driver.BuildOptions{Opt: opt.Options{Config: opt.Base}})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := driver.Execute(c, driver.RunOptions{Overrides: b.Test, CaptureOutput: true}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > instSchedRunBytes {
		t.Errorf("InstSched Base run allocated %d bytes, want at most %d", n, instSchedRunBytes)
	} else {
		t.Logf("InstSched Base run allocated %d bytes", n)
	}
}
