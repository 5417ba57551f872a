package deps

import (
	"strings"
	"testing"

	"selspec/internal/ir"
	"selspec/internal/lang"
	"selspec/internal/opt"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	g.AddDep(VersionNode("v1"), BodyNode("m"))
	g.AddDep(VersionNode("v2"), BodyNode("m"))
	g.AddDep(VersionNode("v2"), ClassNode("C"))
	g.AddDep(BodyNode("m"), ClassNode("C")) // body mentions class C

	if g.Len() != 4 {
		t.Fatalf("Len = %d", g.Len())
	}
	if g.Edges() != 4 {
		t.Fatalf("Edges = %d", g.Edges())
	}

	affected := g.Invalidate(ClassNode("C"))
	// C → {body:m, version:v2} and body:m → {v1, v2}: all 4 nodes.
	if len(affected) != 4 {
		t.Fatalf("affected = %v", affected)
	}
	if !g.Invalid(VersionNode("v1")) || !g.Invalid(VersionNode("v2")) {
		t.Error("versions not invalidated")
	}
	iv := g.InvalidVersions()
	if len(iv) != 2 || iv[0].Name != "v1" || iv[1].Name != "v2" {
		t.Fatalf("InvalidVersions = %v", iv)
	}

	g.Revalidate(VersionNode("v1"))
	if g.Invalid(VersionNode("v1")) {
		t.Error("Revalidate failed")
	}
	// Re-invalidating an already invalid node adds nothing new.
	if again := g.Invalidate(BodyNode("m")); len(again) != 1 || again[0].Name != "v1" {
		t.Fatalf("second invalidate = %v", again)
	}
}

func TestInvalidateUnknownNode(t *testing.T) {
	g := NewGraph()
	if got := g.Invalidate(ClassNode("nope")); got != nil {
		t.Fatalf("Invalidate(unknown) = %v", got)
	}
}

const progSrc = `
class A
class B isa A
class P { field x : Int := 0; }
method m(o@A) { 1; }
method m(o@B) { 2; }
method helper(o@A) { 41; }
method caller(o@A) { o.m(); o.helper(); }
method touch(p@P) { p.x; }
method main() { caller(new B()); touch(new P(1)); }
`

func buildGraph(t *testing.T) (*opt.Compiled, *Graph) {
	t.Helper()
	prog, err := ir.Lower(lang.MustParse(progSrc))
	if err != nil {
		t.Fatal(err)
	}
	c, err := opt.Compile(prog, opt.Options{Config: opt.CHA})
	if err == nil {
		err = c.CompileAll()
	}
	if err != nil {
		t.Fatal(err)
	}
	return c, FromCompiled(c)
}

func TestFromCompiledStructure(t *testing.T) {
	_, g := buildGraph(t)
	if g.Len() == 0 || g.Edges() == 0 {
		t.Fatal("empty graph")
	}
	var hasCaller, hasGFm bool
	for _, n := range g.Nodes() {
		if n.Kind == KindVersion && strings.HasPrefix(n.Name, "caller") {
			hasCaller = true
		}
		if n.Kind == KindGF && n.Name == "m/1" {
			hasGFm = true
		}
	}
	if !hasCaller || !hasGFm {
		t.Fatalf("expected caller version and m/1 GF nodes:\n%v", g.Nodes())
	}
}

// TestAddingMethodInvalidatesBoundCallers mirrors the paper's scenario:
// a change to a generic function's method set invalidates exactly the
// compiled code whose binding decisions consumed that information.
func TestAddingMethodInvalidatesBoundCallers(t *testing.T) {
	_, g := buildGraph(t)

	// "Adding a method to helper/1" — invalidate its GF node.
	affected := g.Invalidate(GFNode("helper/1"))
	names := map[string]bool{}
	for _, n := range affected {
		names[n.ID()] = true
	}
	// caller statically bound (and/or inlined) helper: must recompile.
	foundCaller := false
	for id := range names {
		if strings.HasPrefix(id, "version:caller") {
			foundCaller = true
		}
	}
	if !foundCaller {
		t.Fatalf("caller's version not invalidated: %v", affected)
	}
	// touch never consumed helper/1: must stay valid.
	for id := range names {
		if strings.HasPrefix(id, "version:touch") {
			t.Fatalf("touch's version spuriously invalidated: %v", affected)
		}
	}
}

func TestClassChangeInvalidatesFieldUsers(t *testing.T) {
	_, g := buildGraph(t)
	affected := g.Invalidate(ClassNode("P"))
	foundTouch := false
	for _, n := range affected {
		if n.Kind == KindVersion && strings.HasPrefix(n.Name, "touch") {
			foundTouch = true
		}
	}
	if !foundTouch {
		t.Fatalf("touch must be invalidated by a change to class P: %v", affected)
	}
}

func TestClassChangePropagatesThroughGF(t *testing.T) {
	_, g := buildGraph(t)
	// Changing class B invalidates m/1's method-set info (B specializes
	// m), which invalidates everything that sends m.
	affected := g.Invalidate(ClassNode("B"))
	found := false
	for _, n := range affected {
		if n.Kind == KindVersion && strings.HasPrefix(n.Name, "caller") {
			found = true
		}
	}
	if !found {
		t.Fatalf("caller not invalidated by class B change: %v", affected)
	}
}

func TestKindStrings(t *testing.T) {
	if KindClass.String() != "class" || KindVersion.String() != "version" {
		t.Error("kind names wrong")
	}
	if ClassNode("X").ID() != "class:X" {
		t.Errorf("ID = %q", ClassNode("X").ID())
	}
}
