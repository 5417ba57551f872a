// Richards runs the operating-system task-queue simulation benchmark
// end to end the way the paper's toolchain would be used day to day:
//
//  1. an instrumented Base run on the training input writes a profile
//     to disk (the paper's "persistent internal database of profile
//     information", §3.7.2);
//
//  2. the selective specialization algorithm turns the reloaded profile
//     into specialization directives;
//
//  3. the program is recompiled with the directives and measured on a
//     different input.
//
//     go run ./examples/richards
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"selspec/internal/driver"
	"selspec/internal/interp"
	"selspec/internal/opt"
	"selspec/internal/profdb"
	"selspec/internal/profile"
	"selspec/internal/programs"
	"selspec/internal/specialize"
)

func main() {
	b := programs.Richards()
	p, err := driver.Load(b.Source)
	if err != nil {
		log.Fatal(err)
	}

	// 1. An instrumented Base run on the training input, persisted to
	// disk.
	base, _, err := p.Build(driver.BuildOptions{Opt: opt.Options{Config: opt.Base}})
	if err != nil {
		log.Fatal(err)
	}
	cg := profile.NewCallGraph(p.Prog)
	if _, err := driver.Execute(base, driver.RunOptions{Overrides: b.Train, Profile: cg}); err != nil {
		log.Fatal(err)
	}
	profPath := filepath.Join(os.TempDir(), "richards-profile.json")
	data, err := cg.MarshalJSON()
	if err != nil {
		log.Fatal(err)
	}
	if err := profdb.WriteFileAtomic(profPath, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training profile: %d arcs, total weight %d → %s\n",
		cg.Len(), cg.TotalWeight(), profPath)

	// 2. Reload the profile (as a later compilation session would), run
	// the algorithm and compile with its directives.
	reloaded, err := p.ReadProfile(profPath, "", "", "")
	if err != nil {
		log.Fatal(err)
	}
	sel, st, err := p.Build(driver.BuildOptions{Opt: opt.Options{Config: opt.Selective}, Profile: reloaded})
	if err != nil {
		log.Fatal(err)
	}
	directives := &specialize.Result{Specializations: sel.Opts.Specializations, Stats: *st}
	fmt.Printf("\nspecialization directives (threshold %d):\n%s\n",
		specialize.DefaultThreshold, directives.Describe(p.Prog.H))

	// 3. Measure Base and Selective on the test input.
	for _, c := range []*opt.Compiled{base, sel} {
		res, err := driver.Execute(c, driver.RunOptions{
			Overrides:     b.Test,
			Mechanism:     interp.MechPIC,
			CaptureOutput: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %s   dispatches=%d cycles=%d versions=%d wall=%v\n",
			c.Opts.Config, res.Output[:len(res.Output)-1],
			res.Counters.DynamicDispatches(), res.Counters.Cycles, res.Stats.Versions, res.Wall)
	}
	_ = os.Remove(profPath)
}
