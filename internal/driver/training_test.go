package driver_test

import (
	"encoding/json"
	"testing"

	"selspec/internal/driver"
	"selspec/internal/gen"
	"selspec/internal/opt"
	"selspec/internal/pipeline"
	"selspec/internal/profile"
	"selspec/internal/programs"
)

// TestLazyTrainingProfileMatchesEager: Selective's training run compiles
// the Base program lazily, building only the bodies the run reaches. A
// Base body does not depend on compile order, so the recorded profile
// must be byte-identical to one recorded over an eager Base compile, on
// the paper programs and on generated ones.
func TestLazyTrainingProfileMatchesEager(t *testing.T) {
	if testing.Short() {
		t.Skip("trains nine programs twice")
	}
	benches := programs.All()
	for seed := uint64(1); seed <= 5; seed++ {
		benches = append(benches, gen.New(gen.Config{Seed: seed, Classes: 200}).Benchmark())
	}
	wire := func(cg *profile.CallGraph) string {
		b, err := json.Marshal(cg.Wire())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, b := range benches {
		p, err := driver.LoadNamed(b.Name, b.Source)
		if err != nil {
			t.Fatal(err)
		}
		train := driver.RunOptions{Overrides: b.Train, StepLimit: 2_000_000_000}

		lazy := train
		lazy.Profile = profile.NewCallGraph(p.Prog)
		if _, _, err := p.Build(driver.BuildOptions{Opt: opt.Options{Config: opt.Selective}, Train: lazy}); err != nil {
			t.Fatalf("%s: lazy training: %v", b.Name, err)
		}

		c, err := pipeline.Compile(b.Name, p.Prog, opt.Options{Config: opt.Base})
		if err != nil {
			t.Fatal(err)
		}
		eager := train
		eager.Profile = profile.NewCallGraph(p.Prog)
		if _, err := driver.Execute(c, eager); err != nil {
			t.Fatalf("%s: eager training: %v", b.Name, err)
		}

		if got, want := wire(lazy.Profile), wire(eager.Profile); got != want {
			t.Errorf("%s: lazy training profile differs from the eager one:\n lazy: %.300s\neager: %.300s", b.Name, got, want)
		}
	}
}
