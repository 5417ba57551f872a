// Quickstart: compile and run a small Mini-Cecil program under the
// Base configuration and under profile-guided selective specialization,
// and compare the dynamic-dispatch counts — the paper's headline
// metric, on ten lines of code.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"selspec/internal/driver"
	"selspec/internal/opt"
	"selspec/internal/specialize"
)

// A miniature shape hierarchy: area is dispatched, total passes its
// formal straight into the dispatched send — the pass-through pattern
// selective specialization feeds on.
const program = `
class Shape
class Square isa Shape { field side : Int := 0; }
class Rect isa Shape { field w : Int := 0; field h : Int := 0; }

method area(s@Square) { s.side * s.side; }
method area(s@Rect) { s.w * s.h; }

-- sumAreas passes its shape formal to the dispatched area send inside
-- a loop: a specialization target.
method sumAreas(s@Shape, n@Int) {
  var total := 0;
  var i := 0;
  while i < n { total := total + s.area(); i := i + 1; }
  total;
}

method main() {
  var shapes := newarray(2);
  aput(shapes, 0, new Square(3));
  aput(shapes, 1, new Rect(2, 5));
  var total := 0;
  var k := 0;
  while k < 2000 {
    total := total + sumAreas(aget(shapes, k % 2), 10);
    k := k + 1;
  }
  println("grand total area: " + str(total));
  total;
}
`

func main() {
	p, err := driver.Load(program)
	if err != nil {
		log.Fatal(err)
	}

	run := func(cfg opt.Config) *driver.Result {
		res, err := p.RunConfig(driver.ConfigOptions{
			Opt:  opt.Options{Config: cfg},
			Spec: specialize.Params{Threshold: 1000},
			Run:  driver.RunOptions{CaptureOutput: true},
		})
		if err != nil {
			log.Fatalf("%v: %v", cfg, err)
		}
		return res
	}

	base := run(opt.Base)
	sel := run(opt.Selective)

	fmt.Print(base.Output)
	fmt.Printf("\n%-10s %12s %12s %10s\n", "config", "dispatches", "cycles", "versions")
	for _, r := range []*driver.Result{base, sel} {
		fmt.Printf("%-10s %12d %12d %10d\n",
			r.Config, r.Counters.DynamicDispatches(), r.Counters.Cycles, r.Stats.Versions)
	}
	fmt.Printf("\nselective specialization removed %.0f%% of dynamic dispatches\n",
		100*(1-float64(sel.Counters.DynamicDispatches())/float64(base.Counters.DynamicDispatches())))
}
