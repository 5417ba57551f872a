package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"selspec/internal/driver"
	"selspec/internal/gen"
	"selspec/internal/opt"
	"selspec/internal/pipeline"
	"selspec/internal/programs"
	"selspec/internal/server"
)

// A workload is a seeded sequence of POST /run requests, sent in rounds.
// Every round of a workload has the same shape, so per-request averages
// over whole rounds do not depend on how many rounds a run sends.
type workload struct {
	name string
	why  string
	// roundsPerSecond is the rate at which the reference machine (2 vCPU,
	// both clients busy) completes rounds. A run of -seconds s sends
	// ceil(seconds × roundsPerSecond) rounds, so a run lasts about that
	// long there and both commits of a comparison send identical requests.
	roundsPerSecond float64
	plan            func(seed uint64, rounds int) *plan
}

var workloads = []workload{
	{
		name:            "paper-dispatch",
		why:             "paper benchmarks under Base, Cust, Cust-MM and CHA: run-dominated, nothing profiled or specialized",
		roundsPerSecond: 2,
		plan:            paperPlan(opt.Base, opt.Cust, opt.CustMM, opt.CHA),
	},
	{
		name:            "paper-selective",
		why:             "the four paper programs requested repeatedly under Selective: the training run dominates",
		roundsPerSecond: 3.2,
		plan:            paperPlan(opt.Selective),
	},
	{
		name:            "gen-unique",
		why:             "a new 200-class generated program per request: front end, specialize and compile dominate",
		roundsPerSecond: 1.7,
		plan:            genPlan,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rounds is the number of rounds a run of the given length sends.
func (w workload) rounds(seconds int) int {
	return max(1, int(math.Ceil(float64(seconds)*w.roundsPerSecond)))
}

// genClasses is the size of every generated program of gen-unique.
const genClasses = 200

// program is one distinct input program of a workload.
type program struct {
	name    string
	bench   string // embedded benchmark, posted as RunRequest.Bench
	genSeed uint64 // generated program, posted as RunRequest.Source
	source  string
	// input is what the server runs the program on: the benchmark's
	// measurement input, or the generated source's own defaults.
	input map[string]int64
	want  answer // the oracle's result on input
}

// answer is the part of a /run response the oracle checks.
type answer struct{ Value, Output string }

// request is one POST /run of a plan.
type request struct {
	id     int
	prog   *program
	config string
	cell   string // latency is summarized per cell
	body   []byte
}

// plan is a workload instance: the warm-up requests, one per distinct
// cell, and the measured sequence of rounds.
type plan struct {
	programs  []*program
	warm, seq []*request
	perRound  int // requests in one round of seq
}

func (pl *plan) add(dst *[]*request, p *program, config, cell string) {
	*dst = append(*dst, &request{id: len(pl.warm) + len(pl.seq), prog: p, config: config, cell: cell})
}

// segments splits the measured sequence into at most n parts of whole
// rounds, as equal as the round count allows.
func (pl *plan) segments(n int) [][]*request {
	rounds := len(pl.seq) / pl.perRound
	n = min(n, rounds)
	out := make([][]*request, n)
	for i := range out {
		out[i] = pl.seq[i*rounds/n*pl.perRound : (i+1)*rounds/n*pl.perRound]
	}
	return out
}

// paperPlan builds rounds of every (paper benchmark, config) cell, each
// round in its own seeded order.
func paperPlan(configs ...opt.Config) func(seed uint64, rounds int) *plan {
	return func(seed uint64, rounds int) *plan {
		type cell struct {
			p   *program
			cfg string
		}
		pl := &plan{}
		var cells []cell
		for _, b := range programs.All() {
			p := &program{name: b.Name, bench: b.Name, source: b.Source, input: b.Test}
			pl.programs = append(pl.programs, p)
			for _, c := range configs {
				cells = append(cells, cell{p, c.String()})
			}
		}
		pl.perRound = len(cells)
		for _, c := range cells {
			pl.add(&pl.warm, c.p, c.cfg, c.p.name+"/"+c.cfg)
		}
		rng := rand.New(rand.NewPCG(seed, 0))
		for range rounds {
			rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
			for _, c := range cells {
				pl.add(&pl.seq, c.p, c.cfg, c.p.name+"/"+c.cfg)
			}
		}
		return pl
	}
}

// genConfigs are gen-unique's configurations. Base is left out on
// purpose: every Base-config stage then belongs to a Selective training
// run, which is how the traced run attributes profile.train_ms.
var genConfigs = []opt.Config{opt.CHA, opt.CustMM, opt.Selective}

// genPlan builds rounds of three new generated programs, one per
// configuration in a seeded order. The warm-up uses three more programs
// whose seeds no measured program shares.
func genPlan(seed uint64, rounds int) *plan {
	rng := rand.New(rand.NewPCG(seed, 1))
	seen := map[uint64]bool{}
	newProgram := func() *program {
		s := rng.Uint64()
		for seen[s] {
			s = rng.Uint64()
		}
		seen[s] = true
		return &program{name: fmt.Sprintf("Gen-%d", s), genSeed: s}
	}
	pl := &plan{perRound: len(genConfigs)}
	cfgs := make([]string, len(genConfigs))
	for i, c := range genConfigs {
		cfgs[i] = c.String()
	}
	for _, c := range cfgs {
		p := newProgram()
		pl.programs = append(pl.programs, p)
		pl.add(&pl.warm, p, c, c)
	}
	for range rounds {
		rng.Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
		for _, c := range cfgs {
			p := newProgram()
			pl.programs = append(pl.programs, p)
			pl.add(&pl.seq, p, c, c)
		}
	}
	return pl
}

// parallel runs f over every program on at most two goroutines, the
// benchmark's CPU budget.
func parallel(progs []*program, f func(*program) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil || i >= len(progs)
				mu.Unlock()
				if stop {
					return
				}
				if err := f(progs[i]); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// generate renders every generated program of the plan and encodes
// every request body.
func (pl *plan) generate() error {
	err := parallel(pl.programs, func(p *program) error {
		if p.bench == "" {
			p.source = gen.New(gen.Config{Seed: p.genSeed, Classes: genClasses}).Source()
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, rs := range [][]*request{pl.warm, pl.seq} {
		for _, r := range rs {
			rr := server.RunRequest{Bench: r.prog.bench, Config: r.config, Label: fmt.Sprintf("r%d", r.id)}
			if r.prog.bench == "" {
				rr.Source = r.prog.source
			}
			if r.body, err = json.Marshal(rr); err != nil {
				return err
			}
		}
	}
	return nil
}

// runOracle runs every program once on the tree tier under Base, on the
// input the server will use; responses must match these answers. The
// tree interpreter and the unspecialized configuration are independent
// of the bytecode engine and the specializer the service runs.
func (pl *plan) runOracle() error {
	return parallel(pl.programs, func(p *program) error {
		lp, err := driver.LoadNamed(p.name, p.source)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", p.name, err)
		}
		c, err := pipeline.Compile(p.name, lp.Prog, opt.Options{Config: opt.Base})
		if err != nil {
			return fmt.Errorf("oracle %s: %w", p.name, err)
		}
		res, err := driver.Execute(c, driver.RunOptions{Engine: driver.EngineTree, CaptureOutput: true, Overrides: p.input})
		if err != nil {
			return fmt.Errorf("oracle %s: %w", p.name, err)
		}
		p.want = answer{res.Value, res.Output}
		return nil
	})
}

// configs is the set of configurations the measured sequence requests.
func (pl *plan) configs() map[string]bool {
	out := map[string]bool{}
	for _, r := range pl.seq {
		out[r.config] = true
	}
	return out
}
