package programs_test

import (
	"bytes"
	"testing"

	"selspec/internal/driver"
	"selspec/internal/gen"
	"selspec/internal/interp"
	"selspec/internal/opt"
	"selspec/internal/profile"
	"selspec/internal/programs"
)

// TestTrainingProfileIgnoresEngineAndMechanism backs the server's
// profile memo, whose key leaves out the request's engine and dispatch
// mechanism: the training profile of every paper benchmark and of five
// 200-class generated programs must be byte-identical under every
// engine × mechanism pair. A difference here means that field belongs
// in the key.
func TestTrainingProfileIgnoresEngineAndMechanism(t *testing.T) {
	progs := programs.All()
	for seed := uint64(1); seed <= 5; seed++ {
		progs = append(progs, gen.New(gen.Config{Seed: seed, Classes: 200}).Benchmark())
	}
	for _, b := range progs {
		p, err := driver.LoadNamed(b.Name, b.Source)
		if err != nil {
			t.Fatal(err)
		}
		var ref []byte
		var refName string
		for _, eng := range []driver.Engine{driver.EngineVM, driver.EngineTree} {
			for _, name := range interp.MechanismNames() {
				mech, err := interp.ParseMechanism(name)
				if err != nil {
					t.Fatal(err)
				}
				cg := profile.NewCallGraph(p.Prog)
				if _, _, err := p.Build(driver.BuildOptions{
					Opt: opt.Options{Config: opt.Selective},
					Train: driver.RunOptions{
						Overrides: b.Train, Engine: eng, Mechanism: mech,
						StepLimit: 2_000_000_000, Profile: cg,
					},
				}); err != nil {
					t.Fatalf("%s %s/%s: %v", b.Name, eng, name, err)
				}
				got, err := cg.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				cell := eng.String() + "/" + name
				if ref == nil {
					ref, refName = got, cell
					continue
				}
				if !bytes.Equal(got, ref) {
					t.Errorf("%s: training profile under %s differs from %s", b.Name, cell, refName)
				}
			}
		}
	}
}
