package interp

import (
	"selspec/internal/dispatch"
	"selspec/internal/hier"
	"selspec/internal/ir"
)

// This file is the seam between the two execution tiers. The bytecode
// VM (internal/vm) executes compiled register code but runs every
// observable event — dispatch, version selection, profiling, counter
// and cycle accounting, primitive evaluation — through the Interp it
// wraps, via the exported entry points below. Send sites have one
// inline cache, the Interp's per-site dispatch.PIC (SitePIC): the VM
// probes it in place and charges its hits through ChargePICHit, so
// entry order and PIC counters are the same structure on both tiers.
// Version selects have no cache on either tier: both select through
// SelectVersionClasses on every call. That is what makes the tree
// interpreter usable as a differential-testing oracle: both tiers share
// one implementation of everything that is counted, so metric blocks
// are byte-comparable across engines by construction.

// ClassesOf computes the runtime classes of a value slice into buf,
// reusing its storage. The tree tier passes a fresh buffer per call;
// the VM keeps one scratch buffer across dispatches, whose result must
// be treated as dead after the next call that receives it (see
// DispatchSendClasses for why that is safe here).
func (in *Interp) ClassesOf(vals []Value, buf []*hier.Class) []*hier.Class {
	buf = buf[:0]
	for _, v := range vals {
		buf = append(buf, v.Class(in.H))
	}
	return buf
}

// SelectVersionClasses is the one implementation of an ir.VersionSelect
// site, a statically bound call whose specialized version is chosen at
// run time from the argument classes: it counts, charges
// CostVersionSelect, records the profile arc, selects the version by
// table lookup and traces the choice. Both tiers call it on every
// select (the tree tier's VersionSelect case and the VM's OpVSelect);
// like the paper's version select, it has no inline cache.
func (in *Interp) SelectVersionClasses(site *ir.CallSite, m *hier.Method, classes []*hier.Class) *ir.Version {
	in.Counters.VersionSelects++
	in.charge(CostVersionSelect)
	in.record(site, m)
	v := in.C.SelectVersion(m, classes)
	if in.Trace != nil {
		in.trace("vselect", site, v)
	}
	return v
}

// ChargePICHit charges a send that an engine resolved from its site's
// PIC itself — matching an entry and counting the hit on the PIC
// (PIC.HitFront, PIC.Promote, PIC.Find) — with exactly the rest of the
// accounting of DispatchSendClasses' PIC-hit path.
func (in *Interp) ChargePICHit(site *ir.CallSite, t dispatch.Target) {
	in.Counters.Dispatches++
	in.picHit(site, t)
}

// SitePIC returns the polymorphic inline cache of the call site with
// the given ID. Both tiers read and write the same caches: the tree
// tier through DispatchSendClasses, the VM by probing them in place.
// A site's cache stays empty until its first dispatch under MechPIC.
func (in *Interp) SitePIC(id int) *dispatch.PIC { return &in.sites[id].pic }

// NoteStaticCall charges a statically-bound call: the counter, the
// cycle cost, and the profile arc, exactly as the tree tier's
// StaticCall case does before invoking the target.
func (in *Interp) NoteStaticCall(site *ir.CallSite, target *ir.Version) {
	in.Counters.StaticCalls++
	in.charge(CostStaticCall)
	in.record(site, target.Method)
}

// NoteInvokeKnown charges a method-version entry for both tiers once
// its body is resolved: the profile entry record (classes in a stack
// array: no allocation, no write barrier), the entry counter, the cycle
// cost and one step. It leaves out the invoked-set insertion: the VM
// keeps a noted bit on each compiled proc and calls MarkInvoked once,
// removing a map access from every later entry through that proc.
func (in *Interp) NoteInvokeKnown(v *ir.Version, args []Value) {
	if in.Profile != nil && len(args) > 0 {
		var buf [8]*hier.Class
		if len(args) > len(buf) {
			in.Profile.RecordEntry(v.Method, in.ClassesOf(args, nil))
		} else {
			for i, a := range args {
				buf[i] = a.Class(in.H)
			}
			in.Profile.RecordEntry(v.Method, buf[:len(args)])
		}
	}
	in.Counters.MethodEntries++
	in.charge(CostMethodEntry)
	in.step()
}

// MarkInvoked records a version in the invoked set (the Figure 6
// dynamic-compilation metric).
func (in *Interp) MarkInvoked(v *ir.Version) { in.invoked[v] = true }

// NoteClosureCall charges a closure invocation (counter, cycle cost,
// one step), matching the tree tier's CallClosure case after argument
// evaluation.
func (in *Interp) NoteClosureCall() {
	in.Counters.ClosureCalls++
	in.charge(CostClosureCall)
	in.step()
}

// CallPrim charges and evaluates one primitive call, matching the tree
// tier's PrimCall case after argument evaluation.
func (in *Interp) CallPrim(p ir.Prim, args []Value) Value {
	in.Counters.PrimOps++
	in.charge(CostPrim)
	return in.evalPrim(p, args)
}

// EvalBin evaluates one binary primitive with the interpreter's exact
// semantics and error messages. Counter charging is the caller's
// responsibility (both tiers charge PrimOps/CostBin before evaluating).
func EvalBin(op ir.BinOp, l, r Value) Value { return evalBin(op, l, r) }

// FieldTypeOK reports whether v fits field idx of cls's declared type.
func (in *Interp) FieldTypeOK(cls *hier.Class, idx int, v Value) bool {
	dt := cls.Fields[idx].DeclType
	return dt == nil || v.Class(in.H).IsSubclassOf(dt)
}

// CheckFieldType enforces a declared field type on a store, raising the
// tree tier's exact RuntimeError on violation.
func (in *Interp) CheckFieldType(cls *hier.Class, idx int, v Value) {
	in.checkFieldType(cls, idx, v)
}

// NewActivation returns a live method activation, the target of
// (possibly non-local) returns.
func NewActivation() *Activation { return &Activation{alive: true} }

// Alive reports whether the activation is still on the call stack.
func (a *Activation) Alive() bool { return a.alive }

// Exit marks the activation dead: returns aimed at it from escaped
// closures now fail instead of unwinding.
func (a *Activation) Exit() { a.alive = false }
