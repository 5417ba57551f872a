package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"selspec/internal/programs"
)

var updateCLI = flag.Bool("update-cli", false, "rewrite testdata/cli.golden")

const cliGolden = "testdata/cli.golden"

// TestCLIGolden pins what the run path prints: stdout plus the -stats
// stderr for every embedded program under every configuration on both
// engines, and on cliProg the -verify, -lazy, -dispatch Tables, -trace
// and -profile outputs and the text of step-limit aborts. The dispatch
// trace keeps its per-dispatch lines and drops the span summary, which
// carries times. Temporary paths read as $TMP. Regenerate with
// -update-cli only for an intended change to CLI output.
func TestCLIGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 60 benchmark cells")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.mc")
	if err := os.WriteFile(path, []byte(cliProg), 0o644); err != nil {
		t.Fatal(err)
	}
	prof := filepath.Join(dir, "prof.json")

	var out strings.Builder
	record := func(args ...string) {
		stdout, stderr, err := execStreams(t, args...)
		if i := strings.Index(stderr, "selspec: per-stage span summary\n"); i >= 0 {
			stderr = stderr[:i]
		}
		fmt.Fprintf(&out, "=== %s\n--- stdout\n%s--- stderr\n%s--- err\n%v\n",
			strings.Join(args, " "), stdout, stderr, err)
	}
	configs := []string{"Base", "Cust", "Cust-MM", "CHA", "Selective"}
	for _, name := range programs.Names() {
		for _, cfg := range configs {
			for _, engine := range []string{"vm", "tree"} {
				record("-bench", name, "-config", cfg, "-engine", engine, "-stats")
			}
		}
	}
	for _, engine := range []string{"vm", "tree"} {
		for _, cfg := range configs {
			record("-config", cfg, "-engine", engine, "-verify", "-stats", path)
		}
		record("-config", "Selective", "-engine", engine, "-lazy", "-stats", path)
		record("-config", "CHA", "-engine", engine, "-dispatch", "Tables", "-stats", path)
		record("-engine", engine, "-trace", path)
		record("-engine", engine, "-step-limit", "10", path)
		record("-bench", "Richards", "-engine", engine, "-step-limit", "1000")
	}
	record("-profile", prof, path)
	data, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "=== profile file\n%s\n", data)
	got := strings.ReplaceAll(out.String(), dir, "$TMP")

	if *updateCLI {
		if err := os.MkdirAll(filepath.Dir(cliGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cliGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(cliGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("CLI output changed (regenerate with -update-cli only for an intended change):\n got:\n%s\nwant:\n%s", got, want)
	}
}
