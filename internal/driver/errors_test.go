package driver

import (
	"errors"
	"strings"
	"testing"

	"selspec/internal/opt"
	"selspec/internal/pipeline"
	"selspec/internal/specialize"
)

func TestLoadErrors(t *testing.T) {
	cases := []struct{ src, sub string }{
		{`method f( { 1; }`, "expected"},                   // parse error
		{`method f(x@Nope) { 1; }`, "unknown specializer"}, // hierarchy error
		{`method f() { zzz; }`, "undefined variable"},      // lowering error
	}
	for _, c := range cases {
		_, err := Load(c.src)
		if err == nil || !strings.Contains(err.Error(), c.sub) {
			t.Errorf("Load(%q) err = %v, want %q", c.src, err, c.sub)
		}
	}
}

func TestMustLoadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLoad on bad source did not panic")
		}
	}()
	MustLoad(`broken(`)
}

func TestRunConfigProfileRunFails(t *testing.T) {
	// The training run aborts: RunConfig must surface the error with
	// context rather than compiling with a partial profile.
	p := MustLoad(`
var crash := 1;
method main() { if crash == 1 { abort("training boom"); } 0; }
`)
	_, err := p.RunConfig(ConfigOptions{
		Opt:   opt.Options{Config: opt.Selective},
		Train: map[string]int64{"crash": 1},
		Test:  map[string]int64{"crash": 0},
	})
	if err == nil || !strings.Contains(err.Error(), "training run") || !strings.Contains(err.Error(), "training boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunConfigSucceedsWhenOnlyTestInputDiffers(t *testing.T) {
	p := MustLoad(`
var crash := 1;
method main() { if crash == 1 { abort("boom"); } 42; }
`)
	res, err := p.RunConfig(ConfigOptions{
		Opt:   opt.Options{Config: opt.Selective},
		Train: map[string]int64{"crash": 0},
		Test:  map[string]int64{"crash": 0},
		Spec:  specialize.Params{Threshold: -1},
	})
	if err != nil || res.Value != "42" {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

// TestDispatchErrorsAgreeAcrossConfigs: a send that fails dispatch
// must fail the same way under every configuration, since evaluation
// order is preserved. Generated programs cannot fail dispatch, so these
// cases cover that half of the cross-configuration property. The
// training input stays clear of the failing class, so Selective fails in
// its specialized code rather than in the training run.
func TestDispatchErrorsAgreeAcrossConfigs(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"not-understood", `
class A
class B
method f(x@A) { 1; }
method pick(i) { if i < 3 { new A(); } else { new B(); } }
var n := 5;
method main() { var i := 0; var acc := 0; while i < n { acc := acc + f(pick(i)); i := i + 1; } acc; }
`, "message not understood"},
		{"ambiguous", `
class A
class B
class C isa A, B
method f(x@A) { 1; }
method f(x@B) { 2; }
method pick(i) { if i < 3 { new A(); } else { new C(); } }
var n := 5;
method main() { var i := 0; var acc := 0; while i < n { acc := acc + f(pick(i)); i := i + 1; } acc; }
`, "message ambiguous"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := MustLoad(tc.src)
			var base string
			for _, cfg := range opt.Configs() {
				_, err := p.RunConfig(ConfigOptions{
					Opt:   opt.Options{Config: cfg},
					Spec:  specialize.Params{Threshold: -1},
					Train: map[string]int64{"n": 3},
					Run:   RunOptions{CaptureOutput: true},
				})
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%v: err = %v, want %q", cfg, err, tc.want)
				}
				if cfg == opt.Base {
					base = err.Error()
				} else if err.Error() != base {
					t.Errorf("%v fails differently:\n got: %s\nBase: %s", cfg, err, base)
				}
			}
		})
	}
}

func TestExecuteRuntimeErrorSurfaced(t *testing.T) {
	p := MustLoad(`method main() { abort("kaput"); }`)
	c, err := opt.Compile(p.Prog, opt.Options{Config: opt.Base})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Execute(c, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("err = %v", err)
	}
}

// TestExecuteStageErrorsNameLabel: a contained fault in the verifier or
// in either engine's run reports RunOptions.Label as its unit.
func TestExecuteStageErrorsNameLabel(t *testing.T) {
	const label = "unit.mc"
	p := MustLoad(`method main() { 1; }`)
	c, err := opt.Compile(p.Prog, opt.Options{Config: opt.Base})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		stage pipeline.Stage
		ro    RunOptions
	}{
		{pipeline.StageVerify, RunOptions{Label: label, Verify: true}},
		{pipeline.StageVerify, RunOptions{Label: label, Verify: true, Engine: EngineTree}},
		{pipeline.StageInterp, RunOptions{Label: label}},
		{pipeline.StageInterp, RunOptions{Label: label, Engine: EngineTree}},
	}
	for _, tc := range cases {
		disarm := pipeline.ArmFaults(pipeline.NewInjector(1, pipeline.FaultRule{
			Stage: tc.stage, Program: label, Action: pipeline.FaultPanic,
		}))
		_, err := Execute(c, tc.ro)
		disarm()
		var se *pipeline.StageError
		if !errors.As(err, &se) || se.Stage != tc.stage || se.Program != label {
			t.Errorf("%s fault on %v: err = %v, want a %s StageError naming %s", tc.stage, tc.ro.Engine, err, tc.stage, label)
		}
	}
}

func TestCollectProfileOnErroringProgram(t *testing.T) {
	p := MustLoad(`method main() { abort("nope"); }`)
	if _, err := p.Profile(RunOptions{}); err == nil {
		t.Fatal("expected error")
	}
}
