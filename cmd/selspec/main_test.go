package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"selspec/internal/pipeline"
)

// execMain runs the CLI's run() with the given arguments, capturing
// stdout, and returns (stdout, err). Flags are reset between runs.
func execMain(t *testing.T, args ...string) (string, error) {
	t.Helper()
	stdout, _, err := execStreams(t, args...)
	return stdout, err
}

// execStreams is execMain capturing stderr too. Each stream drains in
// its own goroutine, so output larger than a pipe buffer cannot block
// the run.
func execStreams(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	oldArgs, oldOut, oldErr := os.Args, os.Stdout, os.Stderr
	oldFlags := flag.CommandLine
	defer func() {
		os.Args, os.Stdout, os.Stderr = oldArgs, oldOut, oldErr
		flag.CommandLine = oldFlags
	}()
	flag.CommandLine = flag.NewFlagSet("selspec", flag.ContinueOnError)

	capture := func(dst **os.File) (*os.File, <-chan string) {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		*dst = w
		ch := make(chan string, 1)
		go func() {
			data, _ := io.ReadAll(r)
			r.Close()
			ch <- string(data)
		}()
		return w, ch
	}
	wOut, outCh := capture(&os.Stdout)
	wErr, errCh := capture(&os.Stderr)
	os.Args = append([]string{"selspec"}, args...)
	err = run()
	wOut.Close()
	wErr.Close()
	return <-outCh, <-errCh, err
}

func writeProg(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.mc")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const cliProg = `
class A
class B isa A
method m(x@A) { 1; }
method m(x@B) { 2; }
method main() {
  var total := 0;
  var objs := newarray(2);
  aput(objs, 0, new A());
  aput(objs, 1, new B());
  var i := 0;
  while i < 10 { total := total + m(aget(objs, i % 2)); i := i + 1; }
  println("total " + str(total));
  total;
}
`

func TestCLIRunsFile(t *testing.T) {
	path := writeProg(t, cliProg)
	out, err := execMain(t, "-config", "Base", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "total 15") || !strings.Contains(out, "=> 15") {
		t.Fatalf("output: %q", out)
	}
}

func TestCLIAllConfigs(t *testing.T) {
	path := writeProg(t, cliProg)
	for _, cfg := range []string{"Base", "Cust", "Cust-MM", "CHA", "Selective"} {
		out, err := execMain(t, "-config", cfg, "-stats", path)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if !strings.Contains(out, "=> 15") {
			t.Fatalf("%s: output %q", cfg, out)
		}
	}
}

func TestCLIExtensionsAndMechanisms(t *testing.T) {
	path := writeProg(t, cliProg)
	for _, extra := range [][]string{
		{"-dispatch", "Global"},
		{"-dispatch", "Tables"},
		{"-no-inline"},
		{"-return-types", "-instantiation", "-config", "CHA"},
		{"-lazy"},
	} {
		out, err := execMain(t, append(extra, path)...)
		if err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		if !strings.Contains(out, "=> 15") {
			t.Fatalf("%v: output %q", extra, out)
		}
	}
}

func TestCLIProfileRoundTrip(t *testing.T) {
	path := writeProg(t, cliProg)
	prof := filepath.Join(t.TempDir(), "prof.json")
	if _, err := execMain(t, "-profile", prof, path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(prof); err != nil {
		t.Fatal("profile file not written")
	}
	out, err := execMain(t, "-config", "Selective", "-use-profile", prof, "-threshold", "1", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "=> 15") {
		t.Fatalf("output %q", out)
	}
}

func TestCLIBenchmarks(t *testing.T) {
	out, err := execMain(t, "-bench", "Sets", "-config", "CHA")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "overlapping pairs counted") {
		t.Fatalf("output %q", out)
	}
}

func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		{"-config", "Bogus", "x.mc"},
		{"-dispatch", "Bogus", "x.mc"},
		{"-bench", "Nope"},
		{"/does/not/exist.mc"},
	}
	for _, args := range cases {
		if _, err := execMain(t, args...); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
	// Bad program: load error surfaces.
	path := writeProg(t, "method main() { undefined_thing; }")
	if _, err := execMain(t, path); err == nil || !strings.Contains(err.Error(), "undefined variable") {
		t.Errorf("err = %v", err)
	}
}

// TestCLIVerifyFlag: -verify accepts the compiled bytecode of a valid
// program under every configuration and both engines (the tree engine
// still compiles and verifies the module).
func TestCLIVerifyFlag(t *testing.T) {
	path := writeProg(t, cliProg)
	for _, cfg := range []string{"Base", "Cust", "Cust-MM", "CHA", "Selective"} {
		out, err := execMain(t, "-config", cfg, "-verify", path)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if !strings.Contains(out, "=> 15") {
			t.Fatalf("%s: output %q", cfg, out)
		}
	}
	if out, err := execMain(t, "-engine", "tree", "-verify", path); err != nil || !strings.Contains(out, "=> 15") {
		t.Fatalf("tree engine: err=%v out=%q", err, out)
	}
}

// --- "selspec check" subcommand -------------------------------------

const brokenProg = `
class A
class B
method f(x@A) { 1; }
method unused(x@A) { 2; }
method main() { var keep := new A(); f(new B()); }
`

func TestCLICheckClean(t *testing.T) {
	path := writeProg(t, cliProg)
	out, err := execMain(t, "check", path)
	if err != nil {
		t.Fatalf("clean program: %v", err)
	}
	if strings.TrimSpace(out) != "" {
		t.Fatalf("clean program printed %q", out)
	}
}

func TestCLICheckBroken(t *testing.T) {
	path := writeProg(t, brokenProg)
	out, err := execMain(t, "check", path)
	if err == nil || !strings.Contains(err.Error(), "3 diagnostics") {
		t.Fatalf("err = %v", err)
	}
	for _, sub := range []string{"[possible-mnu]", "[dead-method]", "[vm-dead-store]", "error: no applicable method"} {
		if !strings.Contains(out, sub) {
			t.Errorf("output missing %q:\n%s", sub, out)
		}
	}
}

func TestCLICheckJSON(t *testing.T) {
	path := writeProg(t, brokenProg)
	out, err := execMain(t, "check", "-format", "json", path)
	if err == nil {
		t.Fatal("expected a diagnostics error")
	}
	var ds []map[string]any
	if jerr := json.Unmarshal([]byte(out), &ds); jerr != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", jerr, out)
	}
	if len(ds) != 3 {
		t.Fatalf("got %d diagnostics, want 3:\n%s", len(ds), out)
	}
	for _, d := range ds {
		for _, key := range []string{"check", "severity", "file", "line", "col", "message"} {
			if _, ok := d[key]; !ok {
				t.Errorf("diagnostic missing %q: %v", key, d)
			}
		}
	}
}

func TestCLICheckBenchmarksClean(t *testing.T) {
	for _, name := range []string{"Richards", "InstSched", "Typechecker", "Compiler", "Sets"} {
		out, err := execMain(t, "check", "-bench", name)
		if err != nil {
			t.Errorf("%s: %v\n%s", name, err, out)
		}
	}
}

func TestCLICheckList(t *testing.T) {
	out, err := execMain(t, "check", "-checks")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"possible-mnu", "ambiguous-dispatch", "dead-method", "arity-mismatch", "useless-specialization"} {
		if !strings.Contains(out, id) {
			t.Errorf("catalog output missing %s:\n%s", id, out)
		}
	}
}

// TestCLICheckExitCodes: findings exit 1, internal analyzer failures
// exit 2 — CI tells "program has issues" from "tool broke" by status.
func TestCLICheckExitCodes(t *testing.T) {
	type exitCoder interface{ ExitCode() int }

	path := writeProg(t, brokenProg)
	_, err := execMain(t, "check", path)
	var ec exitCoder
	if !errors.As(err, &ec) || ec.ExitCode() != 1 {
		t.Errorf("findings: err = %v, want exit code 1", err)
	}

	// Arm a deterministic fault inside the check stage: the contained
	// panic must surface as an internal error, not as findings.
	disarm := pipeline.ArmFaults(pipeline.NewInjector(1, pipeline.FaultRule{
		Stage: pipeline.StageCheck, Action: pipeline.FaultPanic,
	}))
	defer disarm()
	clean := writeProg(t, cliProg)
	_, err = execMain(t, "check", clean)
	if !errors.As(err, &ec) || ec.ExitCode() != 2 {
		t.Errorf("internal fault: err = %v, want exit code 2", err)
	}
}

func TestCLICheckErrors(t *testing.T) {
	cases := [][]string{
		{"check"},                           // no input
		{"check", "-format", "xml", "x.mc"}, // bad format
		{"check", "-bench", "Nope"},         // unknown benchmark
		{"check", "/does/not/exist.mc"},     // missing file
	}
	for _, args := range cases {
		if _, err := execMain(t, args...); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

// TestCLICheckGolden keeps the committed allowlist in sync: running
// the checker over the examples/checkdemo fixtures must reproduce
// examples/checkdemo/expected.json byte for byte (CI diffs the same
// pair).
func TestCLICheckGolden(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join(wd, "..", "..")); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()

	want, err := os.ReadFile("examples/checkdemo/expected.json")
	if err != nil {
		t.Fatal(err)
	}
	out, runErr := execMain(t, "check", "-format", "json",
		"examples/checkdemo/arity.mc", "examples/checkdemo/broken.mc")
	if runErr == nil {
		t.Fatal("expected a diagnostics error for the broken fixtures")
	}
	if out != string(want) {
		t.Errorf("checker output diverged from examples/checkdemo/expected.json:\n--- got:\n%s\n--- want:\n%s", out, want)
	}

	cleanOut, cleanErr := execMain(t, "check", "examples/checkdemo/clean.mc")
	if cleanErr != nil || strings.TrimSpace(cleanOut) != "" {
		t.Errorf("clean.mc: err=%v out=%q", cleanErr, cleanOut)
	}
}
