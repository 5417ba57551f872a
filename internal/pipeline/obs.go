// Pipeline observability: a process-wide Observer armed at every Guard
// boundary, mirroring the fault-injection seam in fault.go. When armed,
// each guarded stage records its wall time into a per-stage histogram,
// contained panics tick a per-stage counter, and (optionally) every
// stage run lands in a span tracer for `-trace` summaries. The
// Specialize and Compile wrappers additionally flush the algorithm
// statistics the paper's figures are built from — arcs examined,
// specializations added, cascade requests, statically-bound sends —
// into counters, so /metrics shows the specializer working without the
// optimizer knowing anything about observability.
//
// Disarmed (the production default) the seam costs one atomic pointer
// load per Guard and never reads the clock.

package pipeline

import (
	"sync"
	"sync/atomic"
	"time"

	"selspec/internal/obs"
	"selspec/internal/specialize"
)

// allStages lists the Guard boundaries that pre-register their series
// so the stage event path is a map read plus atomic bumps — no
// allocation, no registry lock.
var allStages = []Stage{
	StageParse, StageHierarchy, StageLower, StageProfile,
	StageSpecialize, StageCompile, StageInterp, StageCheck, StageHarness,
}

// stageObs is one stage's pre-registered instruments.
type stageObs struct {
	seconds *obs.Histogram // selspec_pipeline_stage_seconds{stage=...}
	panics  *obs.Counter   // selspec_pipeline_contained_panics_total{stage=...}
}

// Observer records pipeline activity into an obs.Registry and/or an
// obs.Tracer; either may be nil. Safe for concurrent use by every
// goroutine running guarded stages.
type Observer struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	mu     sync.Mutex
	stages map[Stage]stageObs // known stages pre-filled; others added lazily

	specArcs     *obs.Counter
	specAdded    *obs.Counter
	specCascades *obs.Counter
	optStatic    *obs.Counter
	optInlined   *obs.Counter
}

// NewObserver builds an observer over a registry and an optional span
// tracer. A nil registry is allowed (trace-only observation); a nil
// tracer is allowed (metrics-only); both nil yields an observer that
// does nothing, which callers should avoid arming.
func NewObserver(r *obs.Registry, tr *obs.Tracer) *Observer {
	o := &Observer{
		reg:    r,
		tracer: tr,
		stages: make(map[Stage]stageObs, len(allStages)),

		specArcs:     r.Counter("selspec_specialize_arcs_examined_total"),
		specAdded:    r.Counter("selspec_specialize_specializations_added_total"),
		specCascades: r.Counter("selspec_specialize_cascade_requests_total"),
		optStatic:    r.Counter("selspec_opt_static_bound_sends_total"),
		optInlined:   r.Counter("selspec_opt_inlined_calls_total"),
	}
	for _, s := range allStages {
		o.stages[s] = o.register(s)
	}
	return o
}

func (o *Observer) register(s Stage) stageObs {
	l := obs.Label{Key: "stage", Value: string(s)}
	return stageObs{
		seconds: o.reg.Histogram("selspec_pipeline_stage_seconds", nil, l),
		panics:  o.reg.Counter("selspec_pipeline_contained_panics_total", l),
	}
}

// forStage returns the stage's instruments, registering unknown stages
// on first use.
func (o *Observer) forStage(s Stage) stageObs {
	o.mu.Lock()
	so, ok := o.stages[s]
	if !ok {
		so = o.register(s)
		o.stages[s] = so
	}
	o.mu.Unlock()
	return so
}

// observe records one finished stage run.
func (o *Observer) observe(stage Stage, program, config string, d time.Duration, panicked, failed bool) {
	so := o.forStage(stage)
	so.seconds.Observe(d.Seconds())
	if panicked {
		so.panics.Inc()
	}
	o.tracer.Observe(string(stage), pointName(stage, program, config), d, failed)
}

// observeSpecialize flushes one specialization run's statistics.
func (o *Observer) observeSpecialize(s specialize.Stats) {
	o.specArcs.Add(uint64(s.ArcsTotal))
	o.specAdded.Add(uint64(s.AddedSpecs))
	o.specCascades.Add(uint64(s.CascadeRequests))
}

// observeCompile adds optimizer statistics: a compile's initializers,
// or one version body.
func (o *Observer) observeCompile(static, inlined int) {
	o.optStatic.Add(uint64(static))
	o.optInlined.Add(uint64(inlined))
}

// observing is the process-wide observer; nil (the production state)
// keeps Guard at a single atomic load with no clock reads.
var observing atomic.Pointer[Observer]

// SetObserver installs o at every Guard boundary and returns a restore
// function, which reinstates whatever was armed before. Tests must
// restore (defer restore()) so observation never leaks across tests;
// `selspec serve` arms for the life of the process.
func SetObserver(o *Observer) (restore func()) {
	prev := observing.Swap(o)
	return func() { observing.Store(prev) }
}
