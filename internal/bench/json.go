package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"time"

	"selspec/internal/obs"
	"selspec/internal/opt"
)

// JSONResult is one (benchmark, configuration) cell of the perf
// trajectory: the wall-clock and cycle-model costs plus the dispatch
// counts future PRs diff against to catch regressions.
type JSONResult struct {
	Benchmark         string  `json:"benchmark"`
	Config            string  `json:"config"`
	Engine            string  `json:"engine"` // tier that ran this cell
	WallNS            int64   `json:"wall_ns"`
	Steps             uint64  `json:"steps"`
	StepsPerSec       float64 `json:"steps_per_sec"`
	Cycles            uint64  `json:"cycles"`
	Dispatches        uint64  `json:"dispatches"`
	VersionSelects    uint64  `json:"version_selects"`
	DynamicDispatches uint64  `json:"dynamic_dispatches"`
	StaticVersions    int     `json:"static_versions"`
	InvokedVersions   int     `json:"invoked_versions"`
	IRNodes           int     `json:"ir_nodes"`
}

// JSONMetric is one observability counter in the trajectory's metrics
// block: a (series name, cumulative value) pair from the run's
// obs.Registry snapshot, name-sorted for deterministic diffs.
type JSONMetric struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// MetricRows converts a registry's counter snapshot into name-sorted
// trajectory rows. A nil registry yields nil.
func MetricRows(r *obs.Registry) []JSONMetric {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	rows := make([]JSONMetric, 0, len(snap.Counters))
	for name, v := range snap.Counters {
		rows = append(rows, JSONMetric{Name: name, Value: v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// JSONTrajectory is the top-level shape of BENCH_paperbench.json.
// Failures lists the contained per-cell faults; a failed cell has an
// entry here and no row in Results. Metrics holds the run's counter
// snapshot when the harness ran with a registry. All three arrays are
// always present (empty on a clean or unobserved run) so consumers can
// diff on them unconditionally.
type JSONTrajectory struct {
	SuiteWallNS int64        `json:"suite_wall_ns"` // end-to-end RunSuite wall time
	Workers     int          `json:"workers"`       // GOMAXPROCS during the run
	Quick       bool         `json:"quick"`
	Reps        int          `json:"reps"` // best-of-N wall per cell (0/1 = single shot)
	Results     []JSONResult `json:"results"`
	Failures    []Failure    `json:"failures"`
	Metrics     []JSONMetric `json:"metrics"`
}

// WriteJSON emits the machine-readable perf trajectory for the suite,
// rows in Table-2 × Configs order (deterministic apart from the wall
// times themselves).
func (s *Suite) WriteJSON(w io.Writer, suiteWall time.Duration, quick bool, reps int) error {
	t := JSONTrajectory{
		SuiteWallNS: suiteWall.Nanoseconds(),
		Workers:     runtime.GOMAXPROCS(0),
		Quick:       quick,
		Reps:        reps,
		Failures:    append([]Failure{}, s.Failures...),   // non-null even when empty
		Metrics:     append([]JSONMetric{}, s.Metrics...), // likewise
	}
	for _, name := range s.Names {
		for _, cfg := range opt.Configs() {
			r := s.Results[name][cfg]
			if r == nil { // contained failure: listed in Failures instead
				continue
			}
			t.Results = append(t.Results, JSONResult{
				Benchmark:         name,
				Config:            cfg.String(),
				Engine:            r.Engine.String(),
				WallNS:            r.Wall.Nanoseconds(),
				Steps:             r.Steps,
				StepsPerSec:       r.StepsPerSec(),
				Cycles:            r.Cycles,
				Dispatches:        r.Dispatches,
				VersionSelects:    r.VersionSelects,
				DynamicDispatches: r.DynamicDispatches(),
				StaticVersions:    r.StaticVersions,
				InvokedVersions:   r.InvokedVersions,
				IRNodes:           r.IRNodes,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}
