package vm

// IR-level effect analysis for the bytecode compiler. The compiler's
// register discipline reads depth-0 locals in place (the slot register
// IS the operand register), which is only sound when no code that runs
// between operand selection and instruction execution can write that
// slot; otherwise the tree tier's left-to-right value capture needs a
// snapshot move.
//
// The analysis answers: "can evaluating node n write frame slot s of
// the proc being compiled?" A slot is written either directly (a
// depth-0 ir.SetLocal inside n) or transitively, by a call into guest
// code that reaches a closure capturing this frame. The transitive
// channel exists only when the body creates closures: a proc without
// ir.MakeClosure never materializes a heap frame (Proc.NeedsFrame stays
// false), methods enter with a nil static chain, and OpSetUp can only
// reach frames that some closure captured — so in closure-free procs
// calls cannot touch the frame.

import "selspec/internal/ir"

// effects answers the analysis for one body on demand. A query walks
// only the subtree it asks about, memoizing every inner node it visits,
// so the queries of one body walk each node at most once however they
// nest. The memo and the closure scan are reset per body (reset) and
// the map is reused across bodies, so the analysis allocates nothing
// once the module's first bodies have sized it.
type effects struct {
	body ir.Node
	// closures caches whether body contains an ir.MakeClosure (its frame
	// is then heap-materialized and calls may transitively write any
	// slot): 0 not yet scanned, 1 no, 2 yes.
	closures int8
	// facts memoizes the facts of the inner nodes visited so far; leaf
	// nodes, which have none, are never stored.
	facts map[ir.Node]nodeFacts
}

// nodeFacts summarizes one subtree's frame effects.
type nodeFacts struct {
	// writes is the set of depth-0 slots below 64 the subtree assigns
	// directly; wide says it assigns some slot from 64 up.
	writes uint64
	wide   bool
	// calls: the subtree invokes guest code (send, static call, version
	// select, closure call, or a `new` whose field initializers may call).
	calls bool
}

// reset starts the analysis of a new body, keeping the memo's storage.
func (e *effects) reset(body ir.Node) {
	e.body, e.closures = body, 0
	if e.facts == nil {
		e.facts = map[ir.Node]nodeFacts{}
	}
	clear(e.facts)
}

// hasClosures reports whether the body creates a closure.
func (e *effects) hasClosures() bool {
	if e.closures == 0 {
		e.closures = 1
		if containsClosure(e.body) {
			e.closures = 2
		}
	}
	return e.closures == 2
}

func containsClosure(n ir.Node) bool {
	if _, ok := n.(*ir.MakeClosure); ok {
		return true
	}
	found := false
	ir.Children(n, func(c ir.Node) { found = found || containsClosure(c) })
	return found
}

// visit returns n's facts, computing them from its children's (and
// memoizing them) on the first visit.
func (e *effects) visit(n ir.Node) nodeFacts {
	var f nodeFacts
	switch n := n.(type) {
	case *ir.Const, *ir.Local, *ir.Global, *ir.MakeClosure:
		// Creating a closure runs nothing; its body's effects happen at
		// call time, covered by the calls+hasClosures channel.
		return f
	case *ir.SetLocal:
		if n.Depth == 0 {
			if n.Slot < 64 {
				f.writes = 1 << n.Slot
			} else {
				f.wide = true
			}
		}
	case *ir.Send, *ir.StaticCall, *ir.VersionSelect, *ir.CallClosure, *ir.New:
		// A `new` runs field-initializer thunks, which may invoke
		// arbitrary guest code.
		f.calls = true
	}
	if memo, ok := e.facts[n]; ok {
		return memo
	}
	// Unknown nodes have no visible children here and fail later in
	// compile's default case (an internal error).
	ir.Children(n, func(c ir.Node) {
		cf := e.visit(c)
		f.writes |= cf.writes
		f.wide = f.wide || cf.wide
		f.calls = f.calls || cf.calls
	})
	e.facts[n] = f
	return f
}

// mayWriteSlot reports whether evaluating n can write frame slot s of
// the current proc.
func (e *effects) mayWriteSlot(n ir.Node, s int) bool {
	f := e.visit(n)
	if f.calls && e.hasClosures() {
		return true
	}
	if s < 64 {
		return f.writes&(1<<s) != 0
	}
	return f.wide && writesSlot(n, s)
}

// writesSlot reports whether n's subtree assigns depth-0 slot s: the
// exact answer for slots past nodeFacts' inline set.
func writesSlot(n ir.Node, s int) bool {
	if sl, ok := n.(*ir.SetLocal); ok && sl.Depth == 0 && sl.Slot == s {
		return true
	}
	found := false
	ir.Children(n, func(c ir.Node) { found = found || writesSlot(c, s) })
	return found
}
