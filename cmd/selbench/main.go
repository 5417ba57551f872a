// Command selbench is the end-to-end benchmark of the specialization
// service. It serves server.New's handler on a loopback listener in its
// own process, sends POST /run requests from a closed loop of two
// clients following a seeded request sequence, checks every response
// against a tree-tier Base oracle, and prints what a caller of the
// service sees: set-up time, throughput, latency, CPU time per request
// and peak memory. With -trace 1 it sends the sequence to an untraced
// and a traced server in alternation and prints per-layer metrics
// instead.
//
// Usage:
//
//	go run . [-workload W] [-seed N] [-seconds S] [-trace 0|1]
//
// Without -workload it runs every workload, each in a fresh child
// process. The last line a single-workload run prints is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"selspec/internal/obs"
	"selspec/internal/pipeline"
	"selspec/internal/server"
)

// options are one run's settings.
type options struct {
	workload workload
	seed     uint64
	rounds   int
	// cutoff bounds a measured window: no request starts later. It only
	// matters on a machine far slower than the reference one.
	cutoff time.Duration
	// traceFile receives a traced run's spans; empty writes none.
	traceFile string
}

// report is what one run measured.
type report struct {
	res   result
	specs []metricSpec
	notes map[string]string // printed beside a metric
	cells []sample          // samples summarized per cell
}

// runE2E measures the end-to-end metrics with tracing off.
func runE2E(o options, log io.Writer) (*report, error) {
	pl, err := prepare(o)
	if err != nil {
		return nil, err
	}
	m, err := measure(pl.warm, pl.segments(windowSegments), o.cutoff)
	if err != nil {
		return nil, err
	}
	var res result
	res.count(m.warm)
	res.count(m.samples)
	logFailures(log, m.warm)
	logFailures(log, m.samples)
	values := endToEndMetrics(m.window, m.setups)
	r := newResult(endToEnd, values)
	r.Attempted, r.Failed = res.Attempted, res.Failed
	r.Correct = r.Failed == 0 && len(m.samples) == len(pl.seq)
	segs := len(m.segments)
	return &report{res: r, specs: endToEnd, cells: m.samples, notes: map[string]string{
		"latency_p90_ms": fmt.Sprintf("(median of %d segments of about %d requests)", segs, len(m.samples)/max(segs, 1)),
		"setup_s":        fmt.Sprintf("(median of %d)", len(m.setups)),
	}}, nil
}

// runTraced sends the sequence to two servers, one untraced and one with
// the pipeline observer and its metrics registry armed, and derives the
// per-layer metrics from the traced one. The two alternate segment by
// segment, so drift in the machine's speed falls on both alike and the
// ratio of their throughputs is the tracing overhead.
func runTraced(o options, log io.Writer) (*report, error) {
	pl, err := prepare(o)
	if err != nil {
		return nil, err
	}
	var res result
	before := liveHeap()
	svc, _, warm, err := setUp(server.Config{}, pl.warm)
	if err != nil {
		return nil, err
	}
	// held is the untraced server's live heap: what set-up left, plus
	// what each of its segments added.
	held := float64(liveHeap()) - float64(before)
	res.count(warm)

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1 << 20)
	observer := pipeline.NewObserver(reg, tracer)
	disarm := pipeline.SetObserver(observer)
	tsvc, _, twarm, err := setUp(server.Config{Metrics: reg}, pl.warm)
	disarm()
	if err != nil {
		return nil, err
	}
	res.count(twarm)

	counters, skip := reg.Snapshot().Counters, len(tracer.Spans())
	var plain, traced window
	t0 := time.Now()
	for _, seg := range pl.segments(windowSegments) {
		h0 := liveHeap()
		plain.add(svc.runSegment(seg, t0, 2*o.cutoff))
		held += float64(liveHeap()) - float64(h0)
		disarm := pipeline.SetObserver(observer)
		traced.add(tsvc.runSegment(seg, t0, 2*o.cutoff))
		disarm()
	}
	spans, after := tracer.Spans()[skip:], reg.Snapshot().Counters
	if err := errors.Join(svc.stop(), tsvc.stop()); err != nil {
		return nil, err
	}
	res.count(plain.samples)
	res.count(traced.samples)
	for _, s := range [][]sample{warm, plain.samples, twarm, traced.samples} {
		logFailures(log, s)
	}

	probes, err := runProbes()
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	var client time.Duration
	for _, s := range traced.samples {
		client += s.latency()
	}
	n := len(traced.samples)
	values := deriveLayers(spans, pl.configs(), n, client)
	for k, v := range probes {
		values[k] = v
	}
	for k, v := range counterMetrics(counters, after, n) {
		values[k] = v
	}
	tot := plain.total()
	values["server.alloc_mb_per_req"] = tot.allocs / 1e6 / float64(max(tot.requests, 1))
	values["server.gc_cpu_pct"] = 100 * tot.gcCPU / tot.cpu.Seconds()
	values["server.retained_mb"] = held / 1e6
	values["trace.overhead_pct"] = 100 * (1 - traced.rps()/plain.rps())

	r := newResult(perLayer, values)
	r.Attempted, r.Failed = res.Attempted, res.Failed
	r.Correct = r.Failed == 0 && len(plain.samples) == len(pl.seq) && len(traced.samples) == len(pl.seq) &&
		values["driver.vm_fallbacks"] == 0 && values["pipeline.contained_panics"] == 0
	stages := 0.0
	for _, l := range stageLayers {
		stages += values[l]
	}
	fmt.Fprintf(log, "named stage layers cover %.1f%% of mean client latency\n", 100*stages/(ms(client)/float64(max(n, 1))))
	if o.traceFile != "" {
		if err := writeTrace(o.traceFile, o.workload.name, traced.samples, spans, values); err != nil {
			return nil, err
		}
	}
	return &report{res: r, specs: perLayer, cells: traced.samples}, nil
}

// prepare builds the run's plan and the oracle's answers.
func prepare(o options) (*plan, error) {
	pl := o.workload.plan(o.seed, o.rounds)
	if err := pl.generate(); err != nil {
		return nil, err
	}
	if err := pl.runOracle(); err != nil {
		return nil, err
	}
	return pl, nil
}

// counterMetrics derives the exact-count metrics from two snapshots of
// the server's registry.
func counterMetrics(before, after map[string]uint64, requests int) map[string]float64 {
	// delta sums every series of the named counter, whatever its labels.
	delta := func(name string) float64 {
		var d uint64
		for k, v := range after {
			if k == name || strings.HasPrefix(k, name+"{") {
				d += v - before[k]
			}
		}
		return float64(d)
	}
	ratio := func(hits, misses string) float64 {
		h, m := delta(hits), delta(misses)
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	per := func(name string) float64 { return delta(name) / float64(max(requests, 1)) }
	return map[string]float64{
		"vm.steps_per_req":                 per("selspec_interp_steps_total"),
		"vm.sends_per_req":                 per("selspec_interp_sends_total"),
		"vm.version_selects_per_req":       per("selspec_interp_version_selects_total"),
		"dispatch.pic_hit_ratio":           ratio("selspec_dispatch_pic_hits_total", "selspec_dispatch_pic_misses_total"),
		"hier.gf_cache_hit_ratio":          ratio("selspec_dispatch_gf_cache_hits_total", "selspec_dispatch_gf_cache_misses_total"),
		"specialize.arcs_examined_per_req": per("selspec_specialize_arcs_examined_total"),
		"specialize.added_per_req":         per("selspec_specialize_specializations_added_total"),
		"opt.static_bound_per_req":         per("selspec_opt_static_bound_sends_total"),
		"opt.inlined_per_req":              per("selspec_opt_inlined_calls_total"),
		"driver.vm_fallbacks":              delta("selspec_vm_fallback_total"),
		"pipeline.contained_panics":        delta("selspec_pipeline_contained_panics_total") + delta("selspec_server_contained_panics_total"),
	}
}

// writeTrace writes the traced window: the benchmark's span per request
// and the pipeline's stage spans, which carry durations but no start.
func writeTrace(path, workload string, samples []sample, spans []obs.Span, values map[string]float64) error {
	type reqSpan struct {
		ID      int     `json:"id"`
		Cell    string  `json:"cell"`
		StartMS float64 `json:"start_ms"`
		EndMS   float64 `json:"end_ms"`
		Status  int     `json:"status"`
	}
	type stageSpan struct {
		Stage  string  `json:"stage"`
		Detail string  `json:"detail"`
		MS     float64 `json:"ms"`
		Failed bool    `json:"failed,omitempty"`
	}
	doc := struct {
		Workload string             `json:"workload"`
		Requests []reqSpan          `json:"requests"`
		Stages   []stageSpan        `json:"stages"`
		Metrics  map[string]float64 `json:"metrics"`
	}{Workload: workload, Metrics: values}
	for _, s := range samples {
		doc.Requests = append(doc.Requests, reqSpan{s.req.id, s.req.cell, ms(s.start), ms(s.end), s.status})
	}
	for _, s := range spans {
		doc.Stages = append(doc.Stages, stageSpan{s.Name, s.Detail, ms(s.D), s.Failed})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// logFailures reports the first few failed requests.
func logFailures(log io.Writer, samples []sample) {
	shown := 0
	for _, s := range samples {
		if s.err != nil && shown < 5 {
			fmt.Fprintf(log, "request %d (%s): %v\n", s.req.id, s.req.cell, s.err)
			shown++
		}
	}
}

// switchFlag is a flag that takes 0/1 (or true/false) as a separate
// argument, as in "-trace 1", which a flag.Bool does not accept.
type switchFlag bool

func (f *switchFlag) String() string { return strconv.FormatBool(bool(*f)) }
func (f *switchFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*f = switchFlag(v)
	return err
}

func main() {
	name := flag.String("workload", "", "workload to run (default: every workload, each in a child process)")
	seed := flag.Uint64("seed", 1, "seed of the request order and the generated programs")
	seconds := flag.Int("seconds", 30, "approximate length of a measured window on the reference machine")
	var trace switchFlag
	flag.Var(&trace, "trace", "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "selbench: -seconds must be at least 1")
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, bool(trace)))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "selbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	o := options{
		workload: w,
		seed:     *seed,
		rounds:   w.rounds(*seconds),
		cutoff:   time.Duration(*seconds) * 5 * time.Second / 2,
	}
	run := runE2E
	if trace {
		run = runTraced
		o.traceFile = "selbench-trace-" + w.name + ".json"
	}
	rep, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "selbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Printf("workload %s, seed %d, %d requests from %d clients\n", w.name, *seed, len(rep.cells), clients)
	writeCells(os.Stdout, rep.cells)
	values := map[string]float64{}
	for k, v := range rep.res.Metrics {
		values[k] = v.Value
	}
	writeMetrics(os.Stdout, rep.specs, values, rep.notes)
	if err := rep.res.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "selbench: %v\n", err)
		os.Exit(1)
	}
	if !rep.res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in a fresh child process, so no workload
// inherits another's heap, and returns the exit code.
func runAll(seed uint64, seconds int, trace bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "selbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.FormatBool(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "selbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
