package vmcheck_test

import (
	"strings"
	"testing"

	"selspec/internal/check"
	"selspec/internal/driver"
	"selspec/internal/interp"
	"selspec/internal/opt"
	"selspec/internal/pipeline"
	"selspec/internal/programs"
	"selspec/internal/vm"
	"selspec/internal/vmcheck"
)

// TestDiagnoseUnreachable: statements after an early return compile to
// bytecode no path reaches.
func TestDiagnoseUnreachable(t *testing.T) {
	src := `
method main() {
  var i := 7;
  return i;
  i + 1;
}
`
	m := buildMachine(t, src, opt.Base)
	ds := diagnose(t, m, "u.mc")
	var hits []check.Diagnostic
	for _, d := range ds {
		if d.Check == check.CheckVMUnreachable {
			hits = append(hits, d)
		}
	}
	if len(hits) != 1 {
		t.Fatalf("unreachable findings = %v, want exactly 1", ds)
	}
	d := hits[0]
	if d.File != "u.mc" || d.Line != 2 {
		t.Errorf("finding not positioned at the method: %+v", d)
	}
	if d.Severity != check.SevWarning {
		t.Errorf("severity = %s, want warning", d.Severity)
	}
	if !strings.Contains(d.Message, "unreachable bytecode") {
		t.Errorf("message %q", d.Message)
	}
}

// TestDiagnoseDeadStore: a slot overwritten before any read is a dead
// store.
func TestDiagnoseDeadStore(t *testing.T) {
	src := `
method main() {
  var x := 1;
  x := 2;
  x;
}
`
	m := buildMachine(t, src, opt.Base)
	ds := diagnose(t, m, "d.mc")
	found := false
	for _, d := range ds {
		if d.Check == check.CheckVMDeadStore {
			found = true
			if !strings.Contains(d.Message, "never read") {
				t.Errorf("message %q", d.Message)
			}
		}
	}
	if !found {
		t.Fatalf("no dead-store finding in %v", ds)
	}
}

// TestDiagnoseCleanProgram: straight-line code with every value used
// produces no findings.
func TestDiagnoseCleanProgram(t *testing.T) {
	src := `
method main() {
  var i := 0;
  var acc := 0;
  while i < 10 { acc := acc + i; i := i + 1; }
  acc;
}
`
	m := buildMachine(t, src, opt.Base)
	if ds := diagnose(t, m, "c.mc"); len(ds) != 0 {
		t.Fatalf("clean program produced findings: %v", ds)
	}
}

// TestDiagnoseBenchmarksClean: every embedded program must be free of
// bytecode findings under every configuration — CI runs `selspec check`
// over the benchmark suite and requires it clean, so a false positive
// here is a gate breaker.
func TestDiagnoseBenchmarksClean(t *testing.T) {
	for _, b := range programs.Registry() {
		for _, cfg := range opt.Configs() {
			p, err := driver.LoadNamed(b.Name, b.Source)
			if err != nil {
				t.Fatalf("%s: load: %v", b.Name, err)
			}
			c, _, err := p.Build(driver.BuildOptions{
				Opt:   opt.Options{Config: cfg},
				Train: driver.RunOptions{Overrides: b.Train, CaptureOutput: true},
			})
			if err != nil {
				t.Fatalf("%s/%s: build: %v", b.Name, cfg, err)
			}
			m, err := vm.New(interp.New(c))
			if err != nil {
				t.Fatalf("%s/%s: vm: %v", b.Name, cfg, err)
			}
			ds, err := pipeline.CheckBytecode(b.Name, m)
			if err != nil {
				t.Errorf("%s/%s: %v", b.Name, cfg, err)
				continue
			}
			for _, d := range ds {
				t.Errorf("%s/%s: unexpected finding: %s", b.Name, cfg, d)
			}
		}
	}
}

// TestDiagnoseDeterministic: two runs over the same machine produce the
// same ordered findings.
func TestDiagnoseDeterministic(t *testing.T) {
	src := `
method main() {
  var x := 1;
  var y := 2;
  x := 3;
  y := 4;
  return x + y;
  x;
}
`
	m := buildMachine(t, src, opt.Base)
	a := diagnose(t, m, "s.mc")
	if len(a) == 0 {
		t.Fatal("expected findings")
	}
	for i := 0; i < 5; i++ {
		b := diagnose(t, m, "s.mc")
		if len(a) != len(b) {
			t.Fatalf("run %d: %d findings vs %d", i, len(b), len(a))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("run %d: finding %d differs: %v vs %v", i, j, b[j], a[j])
			}
		}
	}
}

// TestDiagnoseLoopBodyReturnIsClean: a loop body that always returns
// leaves only the loop's own back-edge unreachable. That is compiler
// scaffolding, not user code, so nothing is reported.
func TestDiagnoseLoopBodyReturnIsClean(t *testing.T) {
	src := `
method first(n@Int) { while n > 0 { return n; } 0; }
method main() { first(3); }
`
	m := buildMachine(t, src, opt.Base)
	for _, d := range diagnose(t, m, "l.mc") {
		if d.Check == check.CheckVMUnreachable {
			t.Errorf("unexpected finding: %+v", d)
		}
	}
}

// diagnose runs the bytecode diagnostics, failing t on a compile error.
func diagnose(t *testing.T, m *vm.Machine, file string) []check.Diagnostic {
	t.Helper()
	ds, err := vmcheck.Diagnose(m, file)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}
