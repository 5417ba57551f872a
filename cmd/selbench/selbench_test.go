package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"selspec/internal/driver"
	"selspec/internal/obs"
	"selspec/internal/opt"
	"selspec/internal/pipeline"
	"selspec/internal/programs"
	"selspec/internal/server"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json these
// tests compare the code against.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// specNames renders metric specs as sorted "name unit" strings.
func specNames(specs []metricSpec) []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name+" "+s.unit)
	}
	slices.Sort(out)
	return out
}

// emitted renders a result's metrics as sorted "name unit" strings.
func emitted(r result) []string {
	var out []string
	for name, m := range r.Metrics {
		out = append(out, name+" "+m.Unit)
	}
	slices.Sort(out)
	return out
}

func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var wls, e2e, layers []string
	for _, w := range b.Workloads {
		wls = append(wls, w.Name+": "+w.Why)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	if !slices.Equal(wls, want) {
		t.Errorf("BENCHMARK.json workloads %q, code has %q", wls, want)
	}
	slices.Sort(e2e)
	slices.Sort(layers)
	if want := specNames(endToEnd); !slices.Equal(e2e, want) {
		t.Errorf("BENCHMARK.json end_to_end %q, code has %q", e2e, want)
	}
	if want := specNames(perLayer); !slices.Equal(layers, want) {
		t.Errorf("BENCHMARK.json per_layer %q, code has %q", layers, want)
	}
}

func smoke(w workload) options {
	return options{workload: w, seed: 1, rounds: 1, cutoff: time.Minute}
}

// testLog routes a run's diagnostics to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// TestWorkloadsRunClean sends one round of every workload through the
// same code path as a full run: every response matches the oracle and
// the emitted metrics are exactly the end-to-end set.
func TestWorkloadsRunClean(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runE2E(smoke(w), testLog{t})
			if err != nil {
				t.Fatal(err)
			}
			if r := rep.res; !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d", r.Correct, r.Failed, r.Attempted)
			}
			if got, want := emitted(rep.res), specNames(endToEnd); !slices.Equal(got, want) {
				t.Errorf("emitted %q, want %q", got, want)
			}
			for name, m := range rep.res.Metrics {
				if m.Value <= 0 || math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
					t.Errorf("%s = %v, want a positive number", name, m.Value)
				}
			}
		})
	}
}

func TestTracedRun(t *testing.T) {
	if err := flag.Set("test.benchtime", "20ms"); err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("paper-selective")
	o := smoke(w)
	o.traceFile = filepath.Join(t.TempDir(), "trace.json")
	rep, err := runTraced(o, testLog{t})
	if err != nil {
		t.Fatal(err)
	}
	if r := rep.res; !r.Correct || r.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", r.Correct, r.Failed)
	}
	if got, want := emitted(rep.res), specNames(perLayer); !slices.Equal(got, want) {
		t.Errorf("emitted %q, want %q", got, want)
	}
	data, err := os.ReadFile(o.traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Requests, Stages []json.RawMessage }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Requests) != len(rep.cells) || len(doc.Stages) == 0 {
		t.Errorf("trace file has %d requests and %d stage spans, want %d and some", len(doc.Requests), len(doc.Stages), len(rep.cells))
	}
}

// sequence is a plan's measured requests as (program hash, config).
func sequence(t *testing.T, w workload, seed uint64) []string {
	t.Helper()
	pl := w.plan(seed, 3)
	if err := pl.generate(); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range pl.seq {
		out = append(out, server.ProgramKey(r.prog.source, r.prog.bench)+" "+r.config)
	}
	return out
}

func TestSeedFixesSequence(t *testing.T) {
	for _, w := range workloads {
		a, b, c := sequence(t, w, 1), sequence(t, w, 1), sequence(t, w, 2)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different sequences", w.name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", w.name)
		}
	}
}

func TestGenUniqueNeverRepeatsAProgram(t *testing.T) {
	w, _ := workloadByName("gen-unique")
	pl := w.plan(7, 4)
	seen := map[uint64]bool{}
	for _, r := range append(pl.warm, pl.seq...) {
		if seen[r.prog.genSeed] {
			t.Fatalf("program seed %d requested twice", r.prog.genSeed)
		}
		seen[r.prog.genSeed] = true
	}
}

// TestSegmentsSplitWholeRounds keeps every segment of a window a run of
// whole rounds, in order, covering the sequence once.
func TestSegmentsSplitWholeRounds(t *testing.T) {
	w, _ := workloadByName("paper-selective")
	for _, rounds := range []int{1, 3, 7, 64} {
		pl := w.plan(1, rounds)
		segs := pl.segments(windowSegments)
		if want := min(rounds, windowSegments); len(segs) != want {
			t.Errorf("%d rounds: %d segments, want %d", rounds, len(segs), want)
		}
		var joined []*request
		for _, s := range segs {
			if len(s) == 0 || len(s)%pl.perRound != 0 {
				t.Errorf("%d rounds: segment of %d requests, want a positive multiple of %d", rounds, len(s), pl.perRound)
			}
			joined = append(joined, s...)
		}
		if !slices.Equal(joined, pl.seq) {
			t.Errorf("%d rounds: segments do not cover the sequence in order", rounds)
		}
	}
}

func span(stage pipeline.Stage, detail string, d time.Duration) obs.Span {
	return obs.Span{Name: string(stage), Detail: string(stage) + " [" + detail + "]", D: d * time.Millisecond}
}

// TestDeriveLayers checks the attribution rules on made-up spans: a
// Selective request's Base-config stages are its training run, harness
// self time is what the nested stages leave, and the HTTP residual is
// what the harness leaves of client latency.
func TestDeriveLayers(t *testing.T) {
	spans := []obs.Span{
		span(pipeline.StageParse, "r0", 1),
		span(pipeline.StageHierarchy, "r0", 2),
		span(pipeline.StageLower, "r0", 3),
		span(pipeline.StageCompile, "r0/Base", 4),
		span(pipeline.StageInterp, "/Base", 20),
		span(pipeline.StageSpecialize, "r0/Selective", 5),
		span(pipeline.StageCompile, "r0/Selective", 6),
		span(pipeline.StageInterp, "/Selective", 30),
		span(pipeline.StageHarness, "r0/Selective", 100),
		span(pipeline.StageParse, "r1", 1),
		span(pipeline.StageHierarchy, "r1", 1),
		span(pipeline.StageLower, "r1", 1),
		span(pipeline.StageCompile, "r1/CHA", 7),
		span(pipeline.StageInterp, "/CHA", 35),
		span(pipeline.StageHarness, "r1/CHA", 50),
	}
	client := 166 * time.Millisecond
	got := deriveLayers(spans, map[string]bool{"Selective": true, "CHA": true}, 2, client)
	want := map[string]float64{
		"lang.parse_ms": 1, "hier.build_ms": 1.5, "ir.lower_ms": 2,
		"profile.train_ms": 12, "specialize.run_ms": 2.5, "opt.compile_ms": 6.5, "vm.run_ms": 32.5,
		"server.harness_self_ms": 17, "server.http_ms": 8,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("derived %d layers, want %d", len(got), len(want))
	}

	// When a request asks for Base itself, Base-config stages are that
	// request's own compile and run, never training.
	got = deriveLayers(spans, map[string]bool{"Base": true, "CHA": true}, 2, client)
	if got["profile.train_ms"] != 0 || got["opt.compile_ms"] != 8.5 || got["vm.run_ms"] != 42.5 {
		t.Errorf("with Base requested: train %v, compile %v, run %v; want 0, 8.5, 42.5",
			got["profile.train_ms"], got["opt.compile_ms"], got["vm.run_ms"])
	}
}

// TestSpanConfigReadsObserverDetail keeps spanConfig in step with the
// span detail the pipeline observer writes.
func TestSpanConfigReadsObserverDetail(t *testing.T) {
	tr := obs.NewTracer(0)
	restore := pipeline.SetObserver(pipeline.NewObserver(nil, tr))
	lp, err := driver.LoadNamed("r3", programs.Richards().Source)
	if err == nil {
		var c *opt.Compiled
		if c, err = pipeline.Compile(lp.Label, lp.Prog, opt.Options{Config: opt.CHA}); err == nil {
			_, err = driver.Execute(c, driver.RunOptions{Overrides: programs.Richards().Train})
		}
	}
	restore()
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]string{}
	for _, s := range tr.Spans() {
		configs[s.Name] = spanConfig(s.Detail)
	}
	want := map[string]string{"parse": "", "hierarchy": "", "lower": "", "compile": "CHA", "interp": "CHA"}
	for stage, cfg := range want {
		if got, ok := configs[stage]; !ok || got != cfg {
			t.Errorf("%s span: config %q (seen %v), want %q", stage, got, ok, cfg)
		}
	}
}
