package lang_test

// Native fuzz targets for the front end. These exercise the RAW lexer
// and parser entry points — not the pipeline fault boundary — so any
// internal panic is a reportable crasher rather than a contained
// StageError. Regression inputs live under testdata/fuzz/ and run as
// part of the ordinary `go test ./...`.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"selspec/internal/lang"
	"selspec/internal/programs"
)

// seedSources collects the embedded benchmark corpus, the example
// programs on disk, and a few small shapes that cover the syntax the
// generators rarely stumble into on their own.
func seedSources(tb testing.TB) []string {
	tb.Helper()
	srcs := []string{
		"",
		"method main() { 1; }",
		"class A\nclass B isa A\nmethod f(x@A) { resend; }\nmethod main() { f(new B()); }",
		"method main() { var s := \"a\\nb\"; println(s); }",
		"method main() { var f := fn(a, b) { a + b; }; f(1, 2); }",
		"method main() { if 1 < 2 { 1; } else { 2; } }",
		"method main() { while false { return 0; } }",
		"global g := 41;\nmethod main() { g := g + 1; g; }",
		"class P { x: int, y: int }\nmethod main() { (new P(1, 2)).x; }",
		"method main() { [1, 2, 3]; }",
		"method main() { 1 + }",  // parse error
		"method main() { \"open", // unterminated string
		"\x00\xff\xfe",
		strings.Repeat("(", 600), // beyond the nesting guard
	}
	for _, b := range append(programs.All(), programs.Sets(), programs.Collections()) {
		srcs = append(srcs, b.Source)
	}
	paths, _ := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.mc"))
	for _, p := range paths {
		if data, err := os.ReadFile(p); err == nil {
			srcs = append(srcs, string(data))
		}
	}
	return srcs
}

// FuzzLexer: the lexer must terminate and never panic on arbitrary
// bytes; it either tokenizes to EOF or reports a positioned error.
func FuzzLexer(f *testing.F) {
	for _, s := range seedSources(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lang.Tokenize(src)
		if err == nil && len(toks) == 0 {
			t.Fatal("no tokens and no error")
		}
	})
}

// FuzzParser: anything that parses must format, reparse, and reach a
// Format fixpoint — the round-trip property the corpus test checks,
// extended to generated programs.
func FuzzParser(f *testing.F) {
	for _, s := range seedSources(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p1, err := lang.Parse(src)
		// The parser streams tokens, but its verdict on malformed input
		// is the whole-source lexer's: the first lexer error wins.
		if _, lexErr := lang.Tokenize(src); lexErr != nil {
			if err == nil || err.Error() != lexErr.Error() {
				t.Fatalf("Parse error %v, want the lexer's %v", err, lexErr)
			}
			return
		}
		if err != nil {
			return // rejecting is fine; only panics and broken round-trips count
		}
		f1 := lang.Format(p1)
		p2, err := lang.Parse(f1)
		if err != nil {
			t.Fatalf("formatted source does not reparse: %v\n--- formatted ---\n%s", err, f1)
		}
		if f2 := lang.Format(p2); f1 != f2 {
			t.Fatalf("Format not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", f1, f2)
		}
	})
}
