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

// effects holds the per-body analysis, created once per compiled proc
// by one bottom-up pass over the body.
type effects struct {
	// hasClosures: the body contains an ir.MakeClosure, so its frame is
	// heap-materialized and calls may transitively write any slot.
	hasClosures bool
	// facts holds every node of the body whose subtree writes a slot
	// or calls; a node absent from it has neither effect. It stays nil
	// for an effect-free body.
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

func analyzeEffects(body ir.Node) *effects {
	e := &effects{}
	e.visit(body)
	return e
}

// visit computes n's facts from its children's, records them when
// non-empty, and returns them.
func (e *effects) visit(n ir.Node) nodeFacts {
	var f nodeFacts
	switch n := n.(type) {
	case *ir.Const, *ir.Local, *ir.Global:
		return f
	case *ir.MakeClosure:
		// Creating the closure runs nothing; its body's effects happen
		// at call time, covered by the calls+hasClosures channel.
		e.hasClosures = true
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
	// Unknown nodes have no visible children here and fail later in
	// compile's default case (an internal error).
	ir.Children(n, func(c ir.Node) {
		cf := e.visit(c)
		f.writes |= cf.writes
		f.wide = f.wide || cf.wide
		f.calls = f.calls || cf.calls
	})
	if f != (nodeFacts{}) {
		if e.facts == nil {
			e.facts = map[ir.Node]nodeFacts{}
		}
		e.facts[n] = f
	}
	return f
}

// mayWriteSlot reports whether evaluating n can write frame slot s of
// the current proc.
func (e *effects) mayWriteSlot(n ir.Node, s int) bool {
	f := e.facts[n]
	if f.calls && e.hasClosures {
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
