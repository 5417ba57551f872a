package ir

import (
	"strings"
	"testing"

	"selspec/internal/lang"
)

func TestDumpCoversEveryNodeKind(t *testing.T) {
	src := `
class P { field x : Int := 0; }
var g := 1;
method callee(p@P) { 1; }
method f(p@P) {
  var loc := 2;
  var msg := "hi";
  g := g + 1;
  p.x := p.x + loc;
  while loc > 0 { loc := loc - 1; }
  if !(loc == 0) && false || true { return nil; }
  callee(new P(3));
  print(str((fn(q) { q; })(4)));
  p;
}
method main() { f(new P(1)); }
`
	p, err := Lower(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	var f *MethodBody
	for m, b := range p.Bodies {
		if m.GF.Name == "f" {
			f = b
		}
	}
	out := Dump(f.Code)
	for _, want := range []string{
		"(seq", "(set-local", "(local", "(set-global", "(global",
		"(set-field x", "(get-field x", "(while", "(if", "(return",
		"(nil-lit)", "(send callee/1", "(new P", "(prim", "(closure",
		"(call-closure", "(bin", "(un not", "(and", "(or", "(bool",
		"(int", "(str",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Dump missing %q in:\n%s", want, out)
		}
	}
	if Dump(nil) != "(nil)\n" {
		t.Errorf("Dump(nil) = %q", Dump(nil))
	}
}

func TestDumpOptimizedForms(t *testing.T) {
	// StaticCall and VersionSelect are produced by the optimizer; build
	// them directly.
	p, err := Lower(lang.MustParse(`
class P
method callee(p@P) { 1; }
method main() { callee(new P()); }
`))
	if err != nil {
		t.Fatal(err)
	}
	var m *MethodBody
	for mm, b := range p.Bodies {
		if mm.GF.Name == "main" {
			m = b
		}
	}
	send := SendSites(m.Code)[0]
	var callee = send.Site.GF.Methods[0]
	v := &Version{Method: callee, Index: 0, General: true}
	sc := &StaticCall{Target: v, Site: send.Site, Args: send.Args}
	vs := &VersionSelect{Method: callee, Site: send.Site, Args: send.Args}
	if out := Dump(sc); !strings.Contains(out, "static-call") || !strings.Contains(out, "general") {
		t.Errorf("static call dump: %s", out)
	}
	if out := Dump(vs); !strings.Contains(out, "version-select callee(@P)") {
		t.Errorf("version select dump: %s", out)
	}
	// Version.String distinguishes specialized versions.
	v2 := &Version{Method: callee, Index: 1}
	if !strings.Contains(v2.String(), "spec") || !strings.Contains(v.String(), "general") {
		t.Errorf("Version.String: %s / %s", v, v2)
	}
}

func TestProgramSiteAccessor(t *testing.T) {
	p, err := Lower(lang.MustParse(`
class P
method callee(p@P) { 1; }
method main() { callee(new P()); }
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sites) == 0 || p.Site(0) != p.Sites[0] {
		t.Fatal("Site accessor broken")
	}
}
