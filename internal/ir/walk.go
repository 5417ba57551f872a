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
