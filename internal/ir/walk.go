package ir

import "fmt"

// Walk calls f on n and every descendant node in evaluation order,
// including closure bodies. If f returns false for a node, its
// children are skipped.
func Walk(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	if mc, ok := n.(*MakeClosure); ok {
		Walk(mc.Fn.Body, f)
		return
	}
	if !Children(n, func(c Node) { Walk(c, f) }) {
		panic(fmt.Sprintf("ir.Walk: unknown node %T", n))
	}
}

// Children calls fn on every direct child expression of n in
// evaluation order, skipping the absent optional ones (If.Else,
// Return.X). A closure body is a unit of its own, not a child of the
// MakeClosure that creates it. Children reports false, calling fn on
// nothing, for a node type it does not know.
func Children(n Node, fn func(Node)) bool {
	switch n := n.(type) {
	case *Const, *Local, *Global, *MakeClosure:
	case *SetLocal:
		fn(n.X)
	case *SetGlobal:
		fn(n.X)
	case *GetField:
		fn(n.Obj)
	case *SetField:
		fn(n.Obj)
		fn(n.X)
	case *Seq:
		each(n.Nodes, fn)
	case *If:
		fn(n.Cond)
		fn(n.Then)
		if n.Else != nil {
			fn(n.Else)
		}
	case *While:
		fn(n.Cond)
		fn(n.Body)
	case *Return:
		if n.X != nil {
			fn(n.X)
		}
	case *New:
		each(n.Args, fn)
	case *CallClosure:
		fn(n.Fn)
		each(n.Args, fn)
	case *Send:
		each(n.Args, fn)
	case *StaticCall:
		each(n.Args, fn)
	case *VersionSelect:
		each(n.Args, fn)
	case *Bin:
		fn(n.L)
		fn(n.R)
	case *Un:
		fn(n.X)
	case *PrimCall:
		each(n.Args, fn)
	case *And:
		fn(n.L)
		fn(n.R)
	case *Or:
		fn(n.L)
		fn(n.R)
	default:
		return false
	}
	return true
}

func each(ns []Node, fn func(Node)) {
	for _, n := range ns {
		fn(n)
	}
}

// Size returns the number of IR nodes in the tree (including closure
// bodies): the code-space metric used for the paper's Figure 6
// comparisons alongside version counts.
func Size(n Node) int {
	count := 0
	Walk(n, func(Node) bool { count++; return true })
	return count
}

// Clone deep-copies an IR tree. CallSites are shared (site identity is
// how profiles and arcs are keyed); ClosureCode is copied so each
// compiled version can optimize its closure bodies independently.
// Const and Global leaves are shared too: no pass modifies one after
// lowering (Local leaves are copied: inlining renumbers their slots).
func Clone(n Node) Node {
	if n == nil {
		return nil
	}
	switch n := n.(type) {
	case *Const, *Global:
		return n
	case *Local:
		c := *n
		return &c
	case *SetLocal:
		return &SetLocal{Depth: n.Depth, Slot: n.Slot, Name: n.Name, X: Clone(n.X)}
	case *SetGlobal:
		return &SetGlobal{Slot: n.Slot, Name: n.Name, X: Clone(n.X)}
	case *GetField:
		return &GetField{Obj: Clone(n.Obj), Name: n.Name, Slot: n.Slot}
	case *SetField:
		return &SetField{Obj: Clone(n.Obj), Name: n.Name, Slot: n.Slot, X: Clone(n.X)}
	case *Seq:
		return &Seq{Nodes: cloneSlice(n.Nodes)}
	case *If:
		return &If{Cond: Clone(n.Cond), Then: Clone(n.Then), Else: Clone(n.Else)}
	case *While:
		return &While{Cond: Clone(n.Cond), Body: Clone(n.Body)}
	case *Return:
		return &Return{X: Clone(n.X)}
	case *New:
		return &New{Class: n.Class, Args: cloneSlice(n.Args)}
	case *MakeClosure:
		return &MakeClosure{Fn: &ClosureCode{
			NumParams: n.Fn.NumParams,
			NumSlots:  n.Fn.NumSlots,
			Body:      Clone(n.Fn.Body),
			Owner:     n.Fn.Owner,
		}}
	case *CallClosure:
		return &CallClosure{Fn: Clone(n.Fn), Args: cloneSlice(n.Args), Pos: n.Pos}
	case *Send:
		return &Send{Site: n.Site, Args: cloneSlice(n.Args)}
	case *StaticCall:
		return &StaticCall{Target: n.Target, Site: n.Site, Args: cloneSlice(n.Args)}
	case *VersionSelect:
		return &VersionSelect{Method: n.Method, Site: n.Site, Args: cloneSlice(n.Args)}
	case *Bin:
		return &Bin{Op: n.Op, L: Clone(n.L), R: Clone(n.R)}
	case *Un:
		return &Un{Op: n.Op, X: Clone(n.X)}
	case *PrimCall:
		return &PrimCall{Prim: n.Prim, Args: cloneSlice(n.Args)}
	case *And:
		return &And{L: Clone(n.L), R: Clone(n.R)}
	case *Or:
		return &Or{L: Clone(n.L), R: Clone(n.R)}
	}
	panic(fmt.Sprintf("ir.Clone: unknown node %T", n))
}

func cloneSlice(ns []Node) []Node {
	out := make([]Node, len(ns))
	for i, n := range ns {
		out[i] = Clone(n)
	}
	return out
}

// SendSites returns the Send nodes in the tree, in evaluation order.
func SendSites(n Node) []*Send {
	var out []*Send
	Walk(n, func(n Node) bool {
		if s, ok := n.(*Send); ok {
			out = append(out, s)
		}
		return true
	})
	return out
}
