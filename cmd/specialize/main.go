// Command specialize runs the selective specialization algorithm on a
// Mini-Cecil program and prints the resulting specialization directives
// — the compiler-facing output of the paper's Figure 4 algorithm. The
// profile is either gathered by an instrumented training run or read
// from a file written by "selspec -profile".
//
// Usage:
//
//	specialize [flags] program.mc
//	specialize [flags] -bench Typechecker
//
// Flags:
//
//	-threshold N     specialization threshold (default 1000)
//	-use-profile F   read the call-graph profile from F
//	-from-db D       read the decayed aggregate from a profile database (requires -bench)
//	-no-cascade      disable cascading specializations (§3.3 ablation)
//	-no-combine      disable tuple combination (§3.2 ablation)
//	-arcs            also dump the weighted call graph
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"selspec/internal/driver"
	"selspec/internal/opt"
	"selspec/internal/profile"
	"selspec/internal/programs"
	"selspec/internal/specialize"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "specialize:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		benchName = flag.String("bench", "", "use an embedded benchmark ("+strings.Join(programs.Names(), ", ")+") instead of a file")
		threshold = flag.Int64("threshold", specialize.DefaultThreshold, "specialization threshold (arc invocations)")
		useProf   = flag.String("use-profile", "", "read a call-graph profile from this file")
		fromDB    = flag.String("from-db", "", "read the aggregated profile for -bench from this profile database directory")
		noCascade = flag.Bool("no-cascade", false, "disable cascadeSpecializations")
		noCombine = flag.Bool("no-combine", false, "disable tuple combination")
		dumpArcs  = flag.Bool("arcs", false, "dump the weighted call graph")
		stepLimit = flag.Uint64("step-limit", 0, "abort the training run after this many steps")
	)
	flag.Parse()

	var src string
	var train map[string]int64
	switch {
	case *benchName != "":
		b, ok := programs.ByName(*benchName)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (valid: %s)", *benchName, strings.Join(programs.Names(), ", "))
		}
		src, train = b.Source, b.Train
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			return err
		}
		src = string(data)
	default:
		flag.Usage()
		return fmt.Errorf("expected a program file or -bench name")
	}

	p, err := driver.Load(src)
	if err != nil {
		return err
	}

	cg, err := p.ReadProfile(*useProf, *fromDB, "-from-db", *benchName)
	if err != nil {
		return err
	}
	bo := driver.BuildOptions{
		Opt: opt.Options{Config: opt.Selective},
		Spec: specialize.Params{
			Threshold:          *threshold,
			DisableCascade:     *noCascade,
			DisableCombination: *noCombine,
		},
		Train:   driver.RunOptions{Overrides: train, StepLimit: *stepLimit},
		Profile: cg,
	}
	if cg == nil {
		// Keep the training run's call graph for -arcs.
		cg = profile.NewCallGraph(p.Prog)
		bo.Train.Profile = cg
	}
	c, st, err := p.Build(bo)
	if err != nil {
		return err
	}

	if *dumpArcs {
		fmt.Printf("call graph: %d arcs, total weight %d\n", cg.Len(), cg.TotalWeight())
		for _, a := range cg.Arcs() {
			fmt.Printf("  %s  pass-through=%v\n", a, a.Site.PassThrough)
		}
		fmt.Println()
	}

	res := &specialize.Result{Specializations: c.Opts.Specializations, Stats: *st}
	fmt.Printf("arcs: %d total, %d specializable, %d above threshold %d, %d cascade requests\n",
		res.Stats.ArcsTotal, res.Stats.ArcsSpecializable, res.Stats.ArcsAboveThreshold,
		*threshold, res.Stats.CascadeRequests)
	fmt.Print(res.Describe(p.Prog.H))
	return nil
}
