package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"time"
)

// metricSpec names one reported metric. BENCHMARK.json at the repository
// root lists the same names and units, with each metric's direction and,
// for end-to-end metrics, its regression bound; a test keeps them equal.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_geomean_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports, named after the module
// that does the work.
var perLayer = []metricSpec{
	{"lang.parse_ms", "ms"},
	{"hier.build_ms", "ms"},
	{"ir.lower_ms", "ms"},
	{"profile.train_ms", "ms"},
	{"specialize.run_ms", "ms"},
	{"opt.compile_ms", "ms"},
	{"vm.run_ms", "ms"},
	{"server.harness_self_ms", "ms"},
	{"server.http_ms", "ms"},
	{"vm.steps_per_req", "count"},
	{"vm.sends_per_req", "count"},
	{"vm.version_selects_per_req", "count"},
	{"dispatch.pic_hit_ratio", "ratio"},
	{"hier.gf_cache_hit_ratio", "ratio"},
	{"specialize.arcs_examined_per_req", "count"},
	{"specialize.added_per_req", "count"},
	{"opt.static_bound_per_req", "count"},
	{"opt.inlined_per_req", "count"},
	{"driver.vm_fallbacks", "count"},
	{"pipeline.contained_panics", "count"},
	{"server.alloc_mb_per_req", "MB"},
	{"server.gc_cpu_pct", "%"},
	{"server.retained_mb", "MB"},
	{"trace.overhead_pct", "%"},
	{"hier.lookup_ns", "ns"},
	{"dispatch.pic_lookup_ns", "ns"},
	{"profile.record_ns", "ns"},
	{"profile.record_entry_ns", "ns"},
	{"profile.record_entry_allocs", "count"},
	{"vm.compile_us", "us"},
	{"vm.compile_gen_us", "us"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank p-quantile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cellMedians is the median latency in ms of each cell of the samples.
func cellMedians(samples []sample) map[string]float64 {
	by := map[string][]float64{}
	for _, s := range samples {
		by[s.req.cell] = append(by[s.req.cell], ms(s.latency()))
	}
	out := make(map[string]float64, len(by))
	for c, ls := range by {
		out[c] = median(ls)
	}
	return out
}

// endToEndMetrics derives the end-to-end metrics of one untraced run.
// setups are the set-up times of the run's repeated set-ups. The 90th
// percentile is the median of the segments' own: a burst of interference
// from outside the process slows the few requests it overlaps, and those
// become the whole window's tail.
func endToEndMetrics(w window, setups []time.Duration) map[string]float64 {
	lat := make([]float64, len(w.samples))
	for i, s := range w.samples {
		lat[i] = ms(s.latency())
	}
	slices.Sort(lat)
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	logSum := 0.0
	cells := cellMedians(w.samples)
	for _, m := range cells {
		logSum += math.Log(m)
	}
	return map[string]float64{
		"setup_s":            median(setupS),
		"throughput_rps":     w.rps(),
		"latency_p50_ms":     percentile(lat, 0.5),
		"latency_p90_ms":     w.median(func(s segment) float64 { return s.p90 }),
		"latency_geomean_ms": math.Exp(logSum / float64(max(len(cells), 1))),
		"cpu_ms_per_req":     w.median(func(s segment) float64 { return ms(s.cpu) / float64(s.requests) }),
		"peak_rss_mb":        w.median(func(s segment) float64 { return s.peakRSS / 1e6 }),
	}
}

// writeCells prints one informational row per cell: its median latency
// and sample count.
func writeCells(out io.Writer, samples []sample) {
	meds := cellMedians(samples)
	counts := map[string]int{}
	for _, s := range samples {
		counts[s.req.cell]++
	}
	names := make([]string, 0, len(meds))
	for c := range meds {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		fmt.Fprintf(out, "  cell %-24s median %10.3f ms  n=%d\n", c, meds[c], counts[c])
	}
}

// writeMetrics prints every metric of specs by name, with its unit.
func writeMetrics(out io.Writer, specs []metricSpec, values map[string]float64, notes map[string]string) {
	for _, s := range specs {
		fmt.Fprintf(out, "%-34s %14.4f %-5s %s\n", s.name, values[s.name], s.unit, notes[s.name])
	}
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(specs []metricSpec, values map[string]float64) result {
	r := result{Metrics: map[string]metricValue{}}
	for _, s := range specs {
		r.Metrics[s.name] = metricValue{values[s.name], s.unit}
	}
	return r
}

// count adds samples to the attempted and failed totals.
func (r *result) count(samples []sample) {
	for _, s := range samples {
		r.Attempted++
		if s.err != nil {
			r.Failed++
		}
	}
}

func (r result) write(out io.Writer) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
