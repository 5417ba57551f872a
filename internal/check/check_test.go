package check

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"selspec/internal/ir"
	"selspec/internal/lang"
	"selspec/internal/programs"
)

// want describes one expected diagnostic: the check that fires, its
// severity, the 1-based line it is anchored to, and a substring of the
// message.
type want struct {
	check string
	sev   Severity
	line  int
	sub   string
}

func analyze(t *testing.T, src string, opts Options) []Diagnostic {
	t.Helper()
	ds, err := Source("test.mc", src, opts)
	if err != nil {
		t.Fatalf("Source: %v", err)
	}
	return ds
}

func assertDiags(t *testing.T, ds []Diagnostic, wants []want) {
	t.Helper()
	if len(ds) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(ds), len(wants), renderAll(ds))
	}
	for i, w := range wants {
		d := ds[i]
		if d.Check != w.check || d.Severity != w.sev || d.Line != w.line ||
			!strings.Contains(d.Message, w.sub) {
			t.Errorf("diagnostic %d = %s\nwant check=%s sev=%s line=%d message containing %q",
				i, d, w.check, w.sev, w.line, w.sub)
		}
	}
}

func renderAll(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

// TestChecksFire gives every check ID a positive fixture (the check
// fires, at the right position) and a clean negative twin (the minimal
// repair silences it).
func TestChecksFire(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		wants []want // nil means the program must be clean
	}{
		{
			name: "possible-mnu certain failure is an error",
			src: `class A
class B
method f(x@A) { 1; }
method main() { var keep := new A(); f(new B()); }`,
			wants: []want{{CheckPossibleMNU, SevError, 4, "no applicable method for f/1"}},
		},
		{
			name: "possible-mnu clean when the method covers the argument",
			src: `class A
class B isa A
method f(x@A) { 1; }
method main() { f(new B()); }`,
		},
		{
			name: "possible-mnu partial coverage is a warning",
			src: `class A
class B
method f(x@A) { 1; }
method main() {
  var k := 1;
  var v := new A();
  if k < 2 { v := new B(); }
  f(v);
}`,
			wants: []want{{CheckPossibleMNU, SevWarning, 8, "fails for 1 of 2"}},
		},
		{
			// The optimizer folds the constant condition, so the
			// assignment always runs and the send always fails.
			name: "possible-mnu after an always-taken branch is an error",
			src: `class A
class B
method f(x@A) { 1; }
method main() {
  var v := new A();
  if 1 < 2 { v := new B(); }
  f(v);
}`,
			wants: []want{{CheckPossibleMNU, SevError, 7, "fails for 1 of 1"}},
		},
		{
			name: "possible-mnu in a never-taken branch is not reported",
			src: `class A
class B
method f(x@A) { 1; }
method main() {
  var keep := new A();
  if 1 > 2 { f(new B()); }
}`,
		},
		{
			name: "possible-mnu nil default is guardable, not reported",
			src: `class A
method f(x@A) { 1; }
method main() {
  var v := nil;
  if 1 < 2 { v := new A(); }
  f(v);
}`,
		},
		{
			name: "ambiguous-dispatch diamond",
			src: `class L
class R
class C isa L, R
method amb(x@L) { 1; }
method amb(x@R) { 2; }
method main() { var kl := new L(); var kr := new R(); amb(new C()); }`,
			wants: []want{{CheckAmbiguous, SevWarning, 6, "ambiguous dispatch for amb/1"}},
		},
		{
			name: "ambiguous-dispatch resolved by a tie-breaking method",
			src: `class L
class R
class C isa L, R
method amb(x@L) { 1; }
method amb(x@R) { 2; }
method amb(x@C) { 3; }
method main() { var kl := new L(); var kr := new R(); amb(new C()); }`,
		},
		{
			name: "dead-method unreachable from main",
			src: `class A
method used(x@A) { 1; }
method unused(x@A) { 2; }
method main() { used(new A()); }`,
			wants: []want{{CheckDeadMethod, SevWarning, 3, "unused(@A) is unreachable"}},
		},
		{
			name: "dead-method clean once the method is sent",
			src: `class A
method used(x@A) { 1; }
method unused(x@A) { 2; }
method main() { used(new A()); unused(new A()); }`,
		},
		{
			name: "arity-mismatch wrong arity lists the defined ones",
			src: `class A
method f(x@A) { 1; }
method f(x@A, y@A) { 2; }
method main() { f(new A(), new A(), new A()); }`,
			wants: []want{{CheckArityMismatch, SevError, 4, "no method f/3; defined: f/1, f/2"}},
		},
		{
			name: "arity-mismatch unknown selector",
			src: `class A
method main() { g(new A()); }`,
			wants: []want{{CheckArityMismatch, SevError, 2, "unknown selector g/1"}},
		},
		{
			name:  "arity-mismatch primitive signature",
			src:   `method main() { println("a", "b"); }`,
			wants: []want{{CheckArityMismatch, SevError, 1, "primitive println takes 1 arguments, got 2"}},
		},
		{
			name: "arity-mismatch clean call",
			src: `class A
method f(x@A) { 1; }
method main() { f(new A()); println("ok"); }`,
		},
		{
			name: "useless-specialization shadowed by overrides",
			src: `class P
class Q isa P
method g(x@P) { 1; }
method g(x@Q) { 2; }
method main() { g(new Q()); }`,
			wants: []want{{CheckUselessSpec, SevWarning, 3, "specialization g(@P) is useless"}},
		},
		{
			name: "useless-specialization clean when the base class is live",
			src: `class P
class Q isa P
method g(x@P) { 1; }
method g(x@Q) { 2; }
method main() { g(new P()); g(new Q()); }`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := analyze(t, tc.src, Options{Instantiation: true})
			assertDiags(t, ds, tc.wants)
		})
	}
}

// TestInstantiationSharpens shows the RTA-style refinement at work: a
// send that is a possible MNU under plain CHA is proven safe once only
// the instantiated classes are considered.
func TestInstantiationSharpens(t *testing.T) {
	src := `class A
class B isa A
class Dead isa A
method f(x@B) { 1; }
method g(x@A) { f(x); }
method main() { g(new B()); }`
	if ds := analyze(t, src, Options{Instantiation: true}); len(ds) != 0 {
		t.Errorf("instantiation on: want clean, got:\n%s", renderAll(ds))
	}
	ds := analyze(t, src, Options{})
	found := false
	for _, d := range ds {
		if d.Check == CheckPossibleMNU {
			found = true
		}
	}
	if !found {
		t.Errorf("instantiation off: want a possible-mnu diagnostic, got:\n%s", renderAll(ds))
	}
}

// TestBenchmarksClean is the headline acceptance criterion: the five
// embedded benchmark programs come back with zero diagnostics.
func TestBenchmarksClean(t *testing.T) {
	for _, b := range programs.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			ds, err := Source(b.Name, b.Source, Options{Instantiation: true})
			if err != nil {
				t.Fatalf("Source: %v", err)
			}
			if len(ds) != 0 {
				t.Errorf("want clean, got %d diagnostics:\n%s", len(ds), renderAll(ds))
			}
		})
	}
}

// TestDiagnosticsSorted verifies the deterministic output order:
// diagnostics come back sorted by file, line, column, check ID.
func TestDiagnosticsSorted(t *testing.T) {
	src := `class A
class B
method f(x@A) { 1; }
method unused(x@A) { 2; }
method main() { var keep := new A(); f(new B()); f(new B()); }`
	ds := analyze(t, src, Options{Instantiation: true})
	if len(ds) < 3 {
		t.Fatalf("fixture regressed: want >= 3 diagnostics, got:\n%s", renderAll(ds))
	}
	if !sort.SliceIsSorted(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	}) {
		t.Errorf("diagnostics not sorted:\n%s", renderAll(ds))
	}
}

// TestJSONStable round-trips the JSON encoding and verifies it is
// byte-for-byte stable across repeated analyses of the same source —
// the property the CI golden-file comparison depends on.
func TestJSONStable(t *testing.T) {
	src := `class A
class B
method f(x@A) { 1; }
method main() { var keep := new A(); f(new B()); }`
	var first []byte
	for i := 0; i < 5; i++ {
		ds := analyze(t, src, Options{Instantiation: true})
		var buf bytes.Buffer
		if err := WriteJSON(&buf, ds); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if first == nil {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("JSON output not stable:\n--- run 0:\n%s\n--- run %d:\n%s", first, i, buf.Bytes())
		}
	}

	var decoded []Diagnostic
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(decoded) != 1 || decoded[0].Check != CheckPossibleMNU ||
		decoded[0].Severity != SevError || decoded[0].File != "test.mc" {
		t.Errorf("round-trip mismatch: %+v", decoded)
	}
}

// TestJSONEmpty: no diagnostics must encode as an empty array, never
// null, so downstream tooling can always iterate the result.
func TestJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty diagnostics encode as %q, want []", got)
	}
}

// TestCatalog: every check ID constant is documented exactly once.
func TestCatalog(t *testing.T) {
	ids := map[string]int{}
	for _, info := range Catalog() {
		ids[info.ID]++
		if info.Description == "" {
			t.Errorf("check %s has no description", info.ID)
		}
	}
	for _, id := range []string{CheckPossibleMNU, CheckAmbiguous, CheckDeadMethod, CheckArityMismatch, CheckUselessSpec} {
		if ids[id] != 1 {
			t.Errorf("check %s appears %d times in the catalog, want 1", id, ids[id])
		}
	}
}

// TestArityAbortsLowering: a program with arity errors cannot be
// lowered, but Source still reports the AST-level diagnostics instead
// of a hard error.
func TestArityAbortsLowering(t *testing.T) {
	src := `class A
method f(x@A) { 1; }
method main() { f(new A(), new A()); }`
	ds := analyze(t, src, Options{Instantiation: true})
	assertDiags(t, ds, []want{{CheckArityMismatch, SevError, 3, "no method f/2; defined: f/1"}})
}

// TestSourceParseError: a syntactically invalid program is a hard
// error, not a diagnostic.
func TestSourceParseError(t *testing.T) {
	if _, err := Source("bad.mc", "method main( {", Options{}); err == nil {
		t.Fatal("want a parse error")
	}
}

// TestProgramReportsCompileError: when the optimizer cannot compile the
// program, Program returns the error instead of an empty dispatch
// report.
func TestProgramReportsCompileError(t *testing.T) {
	prog, err := ir.Lower(mustParse(t, `class A
method f(x@A) { 1; }
method main() { f(new A()); }`))
	if err != nil {
		t.Fatal(err)
	}
	for m := range prog.Bodies {
		if m.GF.Name == "f" {
			delete(prog.Bodies, m)
		}
	}
	if ds, err := Program("test.mc", prog, Options{}); err == nil {
		t.Fatalf("want a compile error, got %d diagnostics", len(ds))
	}
}

func mustParse(t *testing.T, src string) *lang.Program {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
