// Sets runs the paper's §2 motivating example — the Set hierarchy with
// overlaps/includes/do factored into an abstract superclass — under all
// five compiler configurations of Table 1 and prints the comparison the
// paper's §2 narrates: customization specializes the receiver (do binds
// inside overlaps) but under-specializes set2; selective specialization
// also specializes the non-receiver argument so includes binds too.
//
//	go run ./examples/sets
package main

import (
	"fmt"
	"log"

	"selspec/internal/driver"
	"selspec/internal/opt"
	"selspec/internal/programs"
	"selspec/internal/specialize"
)

func main() {
	b := programs.Sets()
	p, err := driver.Load(b.Source)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("The paper's Set example (overlaps/includes/do), all configurations:")
	fmt.Printf("\n%-10s %12s %14s %12s %10s %10s\n",
		"config", "dispatches", "vsn-selects", "cycles", "versions", "result")

	var baseDispatch uint64
	for _, cfg := range opt.Configs() {
		res, err := p.RunConfig(driver.ConfigOptions{
			Opt:   opt.Options{Config: cfg},
			Spec:  specialize.Params{Threshold: 200},
			Train: b.Train,
			Test:  b.Test,
			Run:   driver.RunOptions{CaptureOutput: true},
		})
		if err != nil {
			log.Fatalf("%v: %v", cfg, err)
		}
		if cfg == opt.Base {
			baseDispatch = res.Counters.DynamicDispatches()
		}
		fmt.Printf("%-10s %12d %14d %12d %10d %10s\n",
			cfg, res.Counters.DynamicDispatches(), res.Counters.VersionSelects,
			res.Counters.Cycles, res.Stats.Versions, res.Value)
	}

	fmt.Printf("\n(Base performs %d dynamic dispatches; every other row should shrink that,\n", baseDispatch)
	fmt.Println(" with Selective combining CHA's static binding and argument specialization.)")
}
