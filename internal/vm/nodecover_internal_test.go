package vm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"

	"selspec/internal/hier"
	"selspec/internal/ir"
	"selspec/internal/opt"
)

// irNodeTypes returns the name of every type in package ir that
// implements ir.Node (every receiver of its marker method node()).
func irNodeTypes(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../ir/node.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != "node" {
			continue
		}
		if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
			names = append(names, star.X.(*ast.Ident).Name)
		}
	}
	return names
}

// TestEveryNodeTypeCompiles compiles samples of every ir node type, in
// each shape the compiler tells apart, as method, closure and
// initializer bodies. None may fail: version bodies and field
// initializers compile on first use in the middle of a run, so a
// failure there could only surface as a run-time internal error
// (Machine.compileFailed). The sample set must name every type
// implementing ir.Node.
func TestEveryNodeTypeCompiles(t *testing.T) {
	mod := compileModule(t, `
class P { field n : Int := 0; }
method f(p@P) { p.n; }
method main() { f(new P(1)); }
`, opt.Base)
	prog := mod.c.Prog
	site := prog.Sites[0]
	var cls *hier.Class
	for _, c := range prog.H.Classes() {
		if c.Name == "P" {
			cls = c
		}
	}
	var target *ir.Version
	for m := range prog.Bodies {
		if m.GF.Name == "f" {
			target = mod.c.VersionsOf(m)[0]
		}
	}
	if cls == nil || target == nil {
		t.Fatal("fixture program lacks class P or method f")
	}

	x, y := &ir.Local{Slot: 0}, &ir.Local{Slot: 1}
	up := &ir.Local{Depth: 1, Slot: 0}
	one := &ir.Const{Kind: ir.KInt, Int: 1}
	field := &ir.GetField{Obj: x, Name: "n", Slot: 0}
	dynField := &ir.GetField{Obj: x, Name: "n", Slot: -1}
	call := &ir.Send{Site: site, Args: []ir.Node{x}}
	lt := &ir.Bin{Op: ir.OpLT, L: x, R: one}
	clo := &ir.MakeClosure{Fn: &ir.ClosureCode{NumParams: 1, NumSlots: 1,
		Body: &ir.SetLocal{Depth: 1, Slot: 1, X: &ir.Bin{Op: ir.OpAdd, L: &ir.Local{Slot: 0}, R: up}}}}
	samples := []ir.Node{
		&ir.Const{Kind: ir.KInt, Int: 7}, &ir.Const{Kind: ir.KStr, Str: "s"},
		&ir.Const{Kind: ir.KBool, Bool: true}, &ir.Const{Kind: ir.KNil},
		x, up,
		&ir.SetLocal{Slot: 1, X: call}, &ir.SetLocal{Depth: 1, Slot: 0, X: one},
		&ir.Global{Slot: 0, Name: "g"}, &ir.SetGlobal{Slot: 0, Name: "g", X: y},
		field, dynField,
		&ir.SetField{Obj: x, Name: "n", Slot: 0, X: call},
		&ir.SetField{Obj: x, Name: "n", Slot: -1, X: y},
		&ir.Seq{}, &ir.Seq{Nodes: []ir.Node{call, &ir.SetLocal{Slot: 1, X: one}, y}},
		&ir.If{Cond: &ir.And{L: lt, R: &ir.Un{Op: ir.OpNot, X: y}}, Then: one},
		&ir.If{Cond: &ir.Or{L: y, R: &ir.Bin{Op: ir.OpGE, L: x, R: field}}, Then: one, Else: y},
		&ir.While{Cond: &ir.Bin{Op: ir.OpLT, L: y, R: field}, Body: &ir.SetLocal{Slot: 1, X: &ir.Bin{Op: ir.OpAdd, L: y, R: one}}},
		&ir.Return{}, &ir.Return{X: call},
		&ir.New{Class: cls, Args: []ir.Node{one}},
		clo,
		&ir.Seq{Nodes: []ir.Node{&ir.SetLocal{Slot: 2, X: clo}, &ir.CallClosure{Fn: &ir.Local{Slot: 2}, Args: []ir.Node{call}}}},
		call,
		&ir.StaticCall{Target: target, Site: site, Args: []ir.Node{x}},
		&ir.VersionSelect{Method: target.Method, Site: site, Args: []ir.Node{x}},
		&ir.Bin{Op: ir.OpMul, L: x, R: one}, &ir.Bin{Op: ir.OpSub, L: x, R: call},
		&ir.Bin{Op: ir.OpAdd, L: field, R: one}, &ir.Bin{Op: ir.OpAdd, L: field, R: y},
		&ir.Bin{Op: ir.OpAdd, L: y, R: field}, lt,
		&ir.Un{Op: ir.OpNot, X: y}, &ir.Un{Op: ir.OpNeg, X: x},
		&ir.PrimCall{Prim: ir.PrimAGet, Args: []ir.Node{field, y}},
		&ir.PrimCall{Prim: ir.PrimAGet, Args: []ir.Node{x, call}},
		&ir.PrimCall{Prim: ir.PrimAPut, Args: []ir.Node{x, y, call}},
		&ir.PrimCall{Prim: ir.PrimPrintln, Args: []ir.Node{dynField}},
		&ir.And{L: y, R: call}, &ir.Or{L: lt, R: y},
	}

	covered := map[string]bool{}
	for _, n := range samples {
		ir.Walk(n, func(c ir.Node) bool {
			covered[reflect.TypeOf(c).Elem().Name()] = true
			return true
		})
		for _, kind := range []ProcKind{KindMethod, KindClosure, KindInit} {
			if _, err := mod.compile("sample", kind, n, 4); err != nil {
				t.Errorf("%T as a kind-%d body: %v", n, kind, err)
			}
		}
	}
	for _, name := range irNodeTypes(t) {
		if !covered[name] {
			t.Errorf("no sample of ir.%s: add one (and compiler support) here", name)
		}
	}
}
