package pipeline

import (
	"errors"
	"strings"
	"testing"

	"selspec/internal/obs"
	"selspec/internal/opt"
	"selspec/internal/profile"
	"selspec/internal/specialize"
)

// TestObserverRecordsStagesAndPanics pins the Guard-side contract: an
// armed observer times every stage run into the per-stage histogram,
// counts contained panics against the exact stage that panicked, and
// feeds the span tracer with success/failure marks.
func TestObserverRecordsStagesAndPanics(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	defer SetObserver(NewObserver(reg, tr))()

	if v, err := Guard(StageParse, "p", "", func() (int, error) { return 42, nil }); err != nil || v != 42 {
		t.Fatalf("healthy stage: v=%d err=%v", v, err)
	}
	if _, err := Guard(StageCompile, "p", "Base", func() (int, error) { panic("boom") }); err == nil {
		t.Fatal("panicking stage returned nil error")
	}
	if _, err := Guard(StageLower, "p", "", func() (int, error) { return 0, errors.New("nope") }); err == nil {
		t.Fatal("erroring stage returned nil error")
	}

	snap := reg.Snapshot()
	for stage, want := range map[string]uint64{"parse": 1, "compile": 1, "lower": 1, "interp": 0} {
		if got := snap.Histograms[`selspec_pipeline_stage_seconds{stage="`+stage+`"}`].Count; got != want {
			t.Errorf("stage %s timing count = %d, want %d", stage, got, want)
		}
	}
	if got := snap.Counters[`selspec_pipeline_contained_panics_total{stage="compile"}`]; got != 1 {
		t.Errorf(`contained panics for compile = %d, want 1`, got)
	}
	if got := snap.Counters[`selspec_pipeline_contained_panics_total{stage="lower"}`]; got != 0 {
		t.Errorf("plain error counted as panic: lower panics = %d", got)
	}

	byName := map[string]*obs.SpanSummary{}
	for _, s := range tr.Summary() {
		s := s
		byName[s.Name] = &s
	}
	if s := byName["parse"]; s == nil || s.Count != 1 || s.Failed != 0 {
		t.Errorf("parse span summary = %+v", s)
	}
	if s := byName["compile"]; s == nil || s.Failed != 1 {
		t.Errorf("compile span summary = %+v", s)
	}
	if s := byName["lower"]; s == nil || s.Failed != 1 {
		t.Errorf("lower span summary = %+v", s)
	}
}

// TestObserverFlushesSpecializeAndCompileStats runs a real program
// through the guarded Specialize and Compile wrappers and checks the
// algorithm statistics land in the registry.
func TestObserverFlushesSpecializeAndCompileStats(t *testing.T) {
	reg := obs.NewRegistry()
	defer SetObserver(NewObserver(reg, nil))()

	const src = `
class A
class B isa A
method m(x@A) { 1; }
method m(x@B) { 2; }
method main() { m(new A()) + m(new B()); }
`
	prog, err := Load("obs-test", src)
	if err != nil {
		t.Fatal(err)
	}
	cg := profile.NewCallGraph(prog)
	if _, err := Specialize("obs-test", prog, cg, specialize.Params{Threshold: 1}); err != nil {
		t.Fatal(err)
	}
	c, err := Compile("obs-test", prog, opt.Options{Config: opt.CHA})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if _, ok := snap.Counters["selspec_specialize_arcs_examined_total"]; !ok {
		t.Error("specialize counters never registered")
	}
	if got := snap.Counters["selspec_opt_static_bound_sends_total"]; got != 0 {
		t.Errorf("static-bound counter is %d before any body is built", got)
	}

	// A body built on first call counts where it is installed, and
	// CompileAll counts the rest once each.
	mainV := c.General(prog.Main.Methods[0])
	if err := c.EnsureBody(mainV); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["selspec_opt_static_bound_sends_total"]; got == 0 {
		t.Error("main's CHA body bound no sends statically; static-bound counter is 0")
	}
	if err := CompileAll("obs-test", c); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	st := c.Stats()
	if got := snap.Counters["selspec_opt_static_bound_sends_total"]; got != uint64(st.StaticBound) {
		t.Errorf("static-bound counter %d, optimizer stats %d", got, st.StaticBound)
	}
	if got := snap.Counters["selspec_opt_inlined_calls_total"]; got != uint64(st.InlinedCalls) {
		t.Errorf("inlined counter %d, optimizer stats %d", got, st.InlinedCalls)
	}
}

// TestObserverDisarmedIsInvisible: with no observer armed, Guard must
// leave the registry untouched (the restore function works) and the
// nil observer path must be taken without reading the clock — proven
// indirectly by the allocation guard in the obs package; here we pin
// the arming/restore semantics.
func TestObserverDisarmedIsInvisible(t *testing.T) {
	reg := obs.NewRegistry()
	restore := SetObserver(NewObserver(reg, nil))
	restore()

	if _, err := Guard(StageParse, "p", "", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Histograms[`selspec_pipeline_stage_seconds{stage="parse"}`].Count; got != 0 {
		t.Errorf("disarmed Guard still recorded %d timings", got)
	}
}

// TestObserverTraceSummaryRendersStages: the -trace surface end to end
// at the package level — spans from guarded stages render into the
// aligned summary table.
func TestObserverTraceSummaryRendersStages(t *testing.T) {
	tr := obs.NewTracer(0)
	defer SetObserver(NewObserver(nil, tr))()

	if _, err := Parse("tracee", "method main() { 7; }"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tr.WriteSummary(&sb)
	out := sb.String()
	if !strings.Contains(out, "parse") {
		t.Errorf("summary missing parse stage:\n%s", out)
	}
}
