package vm

import (
	"testing"

	"selspec/internal/ir"
)

// TestEffectsSlotSets checks mayWriteSlot on both sides of the inline
// write set's 64-slot boundary, and the calls channel that only counts
// in closure-creating bodies.
func TestEffectsSlotSets(t *testing.T) {
	nilK := &ir.Const{Kind: ir.KNil}
	wide := &ir.SetLocal{Slot: 70, X: nilK}
	narrow := &ir.SetLocal{Slot: 3, X: nilK}
	call := &ir.Send{Site: &ir.CallSite{}, Args: []ir.Node{&ir.Local{Slot: 0}}}
	body := &ir.Seq{Nodes: []ir.Node{wide, narrow, call}}
	e := analyzeEffects(body)
	for _, c := range []struct {
		n    ir.Node
		slot int
		want bool
	}{
		{body, 70, true}, {body, 71, false}, {body, 3, true}, {body, 4, false},
		{wide, 70, true}, {wide, 3, false}, {narrow, 70, false}, {call, 0, false},
	} {
		if got := e.mayWriteSlot(c.n, c.slot); got != c.want {
			t.Errorf("closure-free body: mayWriteSlot(%T, %d) = %v, want %v", c.n, c.slot, got, c.want)
		}
	}

	clo := &ir.MakeClosure{Fn: &ir.ClosureCode{Body: nilK}}
	e = analyzeEffects(&ir.Seq{Nodes: []ir.Node{clo, call, narrow}})
	if !e.mayWriteSlot(call, 0) || !e.mayWriteSlot(call, 80) {
		t.Error("a call in a closure-creating body must count as writing every slot")
	}
	if e.mayWriteSlot(narrow.X, 3) {
		t.Error("a constant writes no slot")
	}
}
