package check_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"selspec/internal/check"
	"selspec/internal/gen"
	"selspec/internal/programs"
)

// checkGolden is the sha256 of checkDump. Any change to the analysis
// that feeds possible-mnu and ambiguous-dispatch moves it.
const checkGolden = "4f4206f681742ba6ae64e93c89d303b1508a366588c8152121d67b70ef955541"

type namedSource struct{ name, src string }

// goldenInputs lists the programs TestCheckMatchesGolden analyzes: the
// sources of fixedInputs and a spread of generated programs.
func goldenInputs(t testing.TB) []namedSource {
	in := fixedInputs(t)
	addGen := func(cfg gen.Config) {
		g := gen.New(cfg)
		in = append(in, namedSource{fmt.Sprintf("%s-c%d-clean=%v", g.Name(), cfg.Classes, cfg.CheckClean), g.Source()})
	}
	for _, classes := range []int{20, 50} {
		for _, clean := range []bool{false, true} {
			for seed := uint64(1); seed <= 10; seed++ {
				addGen(gen.Config{Seed: seed, Classes: classes, CheckClean: clean})
			}
		}
	}
	for seed := uint64(1); seed <= 2; seed++ {
		addGen(gen.Config{Seed: seed, Classes: 200})
	}
	return in
}

// fixedInputs lists the registry, the checkdemo files, the FuzzCheck
// corpus and the FuzzCheck seeds.
func fixedInputs(t testing.TB) []namedSource {
	var in []namedSource
	for _, b := range programs.Registry() {
		in = append(in, namedSource{b.Name, b.Source})
	}
	demo, err := filepath.Glob("../../examples/checkdemo/*.mc")
	if err != nil || len(demo) == 0 {
		t.Fatalf("checkdemo sources: %v (%d found)", err, len(demo))
	}
	corpus, err := filepath.Glob("testdata/fuzz/FuzzCheck/*")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("FuzzCheck corpus: %v (%d found)", err, len(corpus))
	}
	for _, path := range append(demo, corpus...) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		if strings.HasPrefix(src, "go test fuzz v1\n") {
			line := strings.TrimSpace(strings.TrimPrefix(src, "go test fuzz v1\n"))
			if src, err = strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")")); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		in = append(in, namedSource{filepath.Base(path), src})
	}
	for i, s := range fuzzSeeds {
		in = append(in, namedSource{fmt.Sprintf("seed-%d", i), s})
	}
	return in
}

// checkDump renders check.Source's sorted output for every input under
// Instantiation {off, on} × ProductLimit {default, 16}.
func checkDump(t testing.TB) string {
	var b strings.Builder
	for _, in := range goldenInputs(t) {
		for _, inst := range []bool{false, true} {
			for _, limit := range []int{0, 16} {
				fmt.Fprintf(&b, "== %s instantiation=%v limit=%d\n", in.name, inst, limit)
				ds, err := check.Source(in.name, in.src, check.Options{Instantiation: inst, ProductLimit: limit})
				if err != nil {
					fmt.Fprintf(&b, "error: %v\n", err)
				}
				for _, d := range ds {
					b.WriteString(d.String() + "\n")
				}
			}
		}
	}
	return b.String()
}

// TestCheckMatchesGolden pins the checker's complete output over a
// fixed corpus, so a change to where its class sets come from shows up
// as a hash change.
func TestCheckMatchesGolden(t *testing.T) {
	dump := checkDump(t)
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(dump))); got != checkGolden {
		t.Errorf("check output hash = %s, want %s (%d lines)", got, checkGolden, strings.Count(dump, "\n"))
	}
}

// BenchmarkCheckPaper analyzes the four paper programs with the
// instantiation analysis on.
func BenchmarkCheckPaper(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range programs.All() {
			if _, err := check.Source(p.Name, p.Source, check.Options{Instantiation: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCheckGen200 analyzes one 200-class generated program, the
// gen-unique request shape.
func BenchmarkCheckGen200(b *testing.B) {
	src := gen.New(gen.Config{Seed: 7, Classes: 200}).Source()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := check.Source("gen200.mc", src, check.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
