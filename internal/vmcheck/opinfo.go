// Package vmcheck is a dataflow framework over compiled vm.Proc
// bytecode: basic-block CFG construction from the flat instruction
// stream, forward/backward solvers over register bit-sets, and concrete
// analyses — register liveness, def-before-use (must-defined reaching
// definitions), and an instruction-level effect/purity catalogue. Three
// consumers sit on top: the load-time verifier (Verify), the
// post-compile diagnostics feeding `selspec check` (Diagnose), and the
// accounting catalogue cross-checked against the interpreter's cost
// model in tests.
package vmcheck

import (
	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/vm"
)

// regs is a small fixed-size carrier for an instruction's register
// operands (at most 3 scalar reads or writes per opcode).
type regs struct {
	n int
	r [3]int32
}

func regList(rs ...int32) regs {
	var out regs
	for _, r := range rs {
		out.r[out.n] = r
		out.n++
	}
	return out
}

func (r regs) each(fn func(int32)) {
	for i := 0; i < r.n; i++ {
		fn(r.r[i])
	}
}

// instrInfo is the static shape of one decoded instruction: which
// registers it reads and writes, its control flow, its observable
// effects, and its fixed accounting charge. It is derived purely from
// the opcode table below plus the instruction's operands — the single
// place the analyses, the verifier, and the accounting tests agree on
// instruction semantics.
type instrInfo struct {
	reads  regs // scalar register operands read at execution time
	writes regs // scalar register operands written

	// winBase/winLen: a contiguous register window read at execution
	// time. winLen == 0 means none; winLen == winUnknown means the width
	// is only known at run time (OpCallClosure: the callee's parameter
	// count lives in the closure value).
	winBase, winLen int32

	// branch is the conditional/unconditional branch target, valid only
	// when hasBranch is set (the target operand itself may be corrupt,
	// so no in-band sentinel can stand for "none").
	// fallsThrough: execution can continue at pc+1. terminates: the
	// instruction ends the proc's execution (OpRet, OpRetNL).
	branch       int32
	hasBranch    bool
	fallsThrough bool
	terminates   bool

	// Effect classification.
	calls     bool // may invoke guest code (sends, calls, new's initializers)
	heapWrite bool // writes globals, fields, arrays, or captured frames
	mayFault  bool // may raise a runtime error
	pure      bool // no effect beyond its register write (scaffold ops)

	// Fixed accounting the instruction charges on its fast path: cycle
	// cost and primitive-operation count. Data-dependent charges (calls,
	// dynamic lookups, a conditional branch's per-edge charges in its
	// vm.Mode) are not modeled; OpCharge's A-operand cost is.
	cycles  uint64
	primOps uint64
}

const winUnknown int32 = -1

// decode returns the instrInfo for the instruction at pc of p.
// Operands are trusted here (decode is also used while verifying); the
// verifier bounds-checks every operand before its dataflow passes run.
func decode(p *vm.Proc, pc int) instrInfo {
	i := p.Code[pc]
	info := instrInfo{fallsThrough: true}
	switch i.Op {
	case vm.OpConst:
		info.writes = regList(i.A)
		info.pure = true

	case vm.OpMove:
		info.reads = regList(i.B)
		info.writes = regList(i.A)
		info.pure = true

	case vm.OpJump:
		info.branch, info.hasBranch = i.A, true
		info.fallsThrough = false
		info.pure = true

	case vm.OpBranch:
		info.reads = regList(i.A)
		info.branch, info.hasBranch = i.B, true
		info.mayFault = true
		if vm.Mode(i.D).Not() {
			info.cycles = interp.CostBin
			info.primOps = 1
		}

	case vm.OpCheckBool:
		info.reads = regList(i.A)
		info.mayFault = true

	case vm.OpCmpBr:
		info.reads = regList(i.A, i.B)
		info.branch, info.hasBranch = i.C, true
		info.mayFault = true
		info.cycles = interp.CostBin
		info.primOps = 1

	case vm.OpCmpBrK:
		info.reads = regList(i.A)
		info.branch, info.hasBranch = i.C, true
		info.mayFault = true
		info.cycles = interp.CostBin
		info.primOps = 1

	case vm.OpCmpBrField:
		info.reads = regList(i.A, i.B)
		info.branch, info.hasBranch = i.C, true
		info.mayFault = true
		info.cycles = interp.CostFieldCached + interp.CostBin
		info.primOps = 1

	case vm.OpStep:
		info.mayFault = true // step-limit guard

	case vm.OpLoop:
		info.branch, info.hasBranch = i.A, true
		info.fallsThrough = false
		info.mayFault = true // step-limit guard

	case vm.OpCharge:
		info.cycles = uint64(i.A)

	case vm.OpGetUp:
		info.writes = regList(i.A)
		info.pure = true

	case vm.OpSetUp:
		info.reads = regList(i.A)
		info.heapWrite = true

	case vm.OpGetGlobal:
		info.writes = regList(i.A)
		info.mayFault = true // read-before-init

	case vm.OpSetGlobal:
		info.reads = regList(i.A)
		info.heapWrite = true

	case vm.OpGetField:
		info.reads = regList(i.B)
		info.writes = regList(i.A)
		info.mayFault = true
		info.cycles = interp.CostFieldCached

	case vm.OpGetFieldDyn:
		info.reads = regList(i.B)
		info.writes = regList(i.A)
		info.mayFault = true
		info.cycles = interp.CostFieldLookup

	case vm.OpSetField:
		info.reads = regList(i.A, i.B)
		info.heapWrite = true
		info.mayFault = true
		info.cycles = interp.CostFieldCached

	case vm.OpSetFieldDyn:
		info.reads = regList(i.A, i.B)
		info.heapWrite = true
		info.mayFault = true
		info.cycles = interp.CostFieldLookup

	case vm.OpNew:
		info.writes = regList(i.A)
		info.winBase, info.winLen = i.C, i.D
		info.calls = true // field-initializer thunks
		info.mayFault = true

	case vm.OpMakeClosure:
		info.writes = regList(i.A)
		info.cycles = interp.CostClosureMake

	case vm.OpCheckClosure:
		info.reads = regList(i.A)
		info.mayFault = true

	case vm.OpCallClosure:
		info.reads = regList(i.B)
		info.writes = regList(i.A)
		info.winBase, info.winLen = i.C, winUnknown
		info.calls = true
		info.mayFault = true

	case vm.OpSend:
		info.writes = regList(i.A)
		info.winBase, info.winLen = i.C, i.D
		info.calls = true
		info.mayFault = true

	case vm.OpStaticCall:
		info.writes = regList(i.A)
		info.winBase, info.winLen = i.C, i.D
		info.calls = true
		info.mayFault = true

	case vm.OpVSelect:
		info.writes = regList(i.A)
		info.winBase, info.winLen = i.C, i.D
		info.calls = true
		info.mayFault = true

	case vm.OpPrim:
		info.writes = regList(i.A)
		info.winBase, info.winLen = i.C, i.D
		info.heapWrite = true // aput and friends
		info.mayFault = true
		info.cycles = interp.CostPrim
		info.primOps = 1

	case vm.OpBin:
		info.reads = regList(i.B, i.C)
		info.writes = regList(i.A)
		info.mayFault = true
		info.cycles = interp.CostBin
		info.primOps = 1

	case vm.OpBinK:
		info.reads = regList(i.B)
		info.writes = regList(i.A)
		info.mayFault = true
		info.cycles = interp.CostBin
		info.primOps = 1

	case vm.OpAGet:
		info.reads = regList(i.B, i.C)
		info.writes = regList(i.A)
		info.mayFault = true
		info.cycles = interp.CostPrim
		info.primOps = 1

	case vm.OpAGetField:
		info.reads = regList(i.B, i.C)
		info.writes = regList(i.A)
		info.mayFault = true
		info.cycles = interp.CostFieldCached + interp.CostPrim
		info.primOps = 1

	case vm.OpAPut:
		info.reads = regList(i.B, i.C, i.D)
		info.writes = regList(i.A)
		info.heapWrite = true
		info.mayFault = true
		info.cycles = interp.CostPrim
		info.primOps = 1

	case vm.OpFieldBin, vm.OpFieldBinK:
		info.reads = regList(i.B)
		if i.Op == vm.OpFieldBin {
			info.reads = regList(i.B, i.C)
		}
		info.writes = regList(i.A)
		info.mayFault = true
		info.cycles = interp.CostFieldCached + interp.CostBin
		info.primOps = 1

	case vm.OpBinField:
		info.reads = regList(i.B, i.C)
		info.writes = regList(i.A)
		info.mayFault = true
		info.cycles = interp.CostFieldCached + interp.CostBin
		info.primOps = 1

	case vm.OpNot, vm.OpNeg:
		info.reads = regList(i.B)
		info.writes = regList(i.A)
		info.mayFault = true
		info.cycles = interp.CostBin
		info.primOps = 1

	case vm.OpRet:
		info.reads = regList(i.A)
		info.fallsThrough = false
		info.terminates = true
		info.pure = true

	case vm.OpRetNL:
		info.reads = regList(i.A)
		info.fallsThrough = false
		info.terminates = true
		info.mayFault = true

	default:
		// Unknown opcode: no modeled semantics. The verifier rejects it
		// before any analysis consumes this info.
		info.fallsThrough = false
		info.terminates = true
	}
	return info
}

// fusedUnfusedCost maps each superinstruction to the cycle/prim-op
// charge its unfused instruction sequence would make on the fast path —
// the accounting-equality catalogue. A vmcheck test pins decode()
// against this table, and the table against the interpreter constants,
// so a fused op can never silently drift from the sequence it replaces.
var fusedUnfusedCost = map[vm.Op]struct {
	Cycles  uint64
	PrimOps uint64
}{
	// Bin(compare) + Branch: one prim-counted comparison at CostBin.
	// The consumer's CostBin (and any short-circuit CostBins) are the
	// branch mode's edge charges, the same as OpBranch's.
	vm.OpCmpBr:  {interp.CostBin, 1},
	vm.OpCmpBrK: {interp.CostBin, 1},
	// GetField + Bin(compare) + Branch.
	vm.OpCmpBrField: {interp.CostFieldCached + interp.CostBin, 1},
	// GetField + AGet.
	vm.OpAGetField: {interp.CostFieldCached + interp.CostPrim, 1},
	// Const + Bin (the constant load is free, as in the tree tier).
	vm.OpBinK: {interp.CostBin, 1},
	// GetField + Bin, either operand order.
	vm.OpFieldBin:  {interp.CostFieldCached + interp.CostBin, 1},
	vm.OpFieldBinK: {interp.CostFieldCached + interp.CostBin, 1},
	vm.OpBinField:  {interp.CostFieldCached + interp.CostBin, 1},
	// Window-free array access: CallPrim's fast path.
	vm.OpAGet: {interp.CostPrim, 1},
	vm.OpAPut: {interp.CostPrim, 1},
}

// validBinOp reports whether d is a defined ir.BinOp operand.
func validBinOp(d int32) bool { return d >= 0 && d <= int32(ir.OpNE) }

// compareBinOp reports whether d is one of the comparison operators the
// compare-branch superinstructions are defined over.
func compareBinOp(d int32) bool {
	switch ir.BinOp(d) {
	case ir.OpLT, ir.OpLE, ir.OpGT, ir.OpGE, ir.OpEQ, ir.OpNE:
		return true
	}
	return false
}

// validPrim reports whether b is a defined ir.Prim operand.
func validPrim(b int32) bool { return b >= 0 && b <= int32(ir.PrimSame) }
