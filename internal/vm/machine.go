package vm

import (
	"fmt"
	"sync"

	"selspec/internal/dispatch"
	"selspec/internal/hier"
	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/lang"
)

// Machine executes one compiled module against the *interp.Interp it
// wraps. The Interp supplies every observable service — dispatch,
// version selection, inline caches, counters, cycle charges, profiling,
// the resource guard, print output — through the engine seams of
// internal/interp, so a Machine run and a tree run of the same program
// are distinguishable only by wall-clock speed. A Machine, like an
// Interp, is single-goroutine state.
type Machine struct {
	in  *interp.Interp
	g   *interp.Guard
	mod *Module

	// stack is the contiguous register arena for frames that no closure
	// captures; sp is the allocation cursor. Frames that outgrow the
	// arena fall back to individual heap windows, and frames captured
	// by closures always live on the heap (see Proc.NeedsFrame). Run
	// takes the arena from the arenas pool and returns it on exit.
	stack []interp.Value
	sp    int

	globals []interp.Value
	ready   []bool

	clsBuf    []*hier.Class // scratch for dispatch class tuples
	returning bool          // a vmReturn unwind is in flight

	// One-entry closure-proc cache: loops overwhelmingly re-invoke the
	// closure they just called, so this removes the map lookup from the
	// closure-call hot path.
	lastCode *ir.ClosureCode
	lastProc *Proc

	// frames is the explicit continuation stack for flattened calls:
	// when both caller and callee run in arena register windows, a call
	// pushes the caller's resume state here and the dispatch loop
	// switches to the callee in place — no Go-level recursion, no
	// per-call native stack traffic. Heap-framed procs (closure
	// creators) and arena-overflow windows still recurse natively.
	frames []vmFrame
	fp     int
}

// vmFrame is one suspended caller in the flattened call stack. Only
// arena-windowed callers are suspended here, so the caller's register
// window is m.stack[base:base+p.NumRegs] and is not stored.
type vmFrame struct {
	p    *Proc
	up   *interp.Frame
	act  *interp.Activation
	pc   int // resume pc (instruction after the call)
	dest int // caller register receiving the callee's result
	base int // caller's arena base
	sp   int // caller's arena cursor to restore
}

// vmReturn implements (non-local) return via panic/recover, the VM
// analogue of the tree tier's returnSignal.
type vmReturn struct {
	act *interp.Activation
	val interp.Value
}

// arenaSize is the length of a register arena in values (98 KB).
const arenaSize = 4096

// arenas recycles register arenas across runs, so a request does not
// allocate (and the GC does not sweep) a fresh 98 KB arena. Every arena
// is cleared before it goes back: no stale Value in it keeps a guest
// object alive or leaks into the next run.
var arenas = sync.Pool{New: func() any { return new([arenaSize]interp.Value) }}

// takeArena gets a zeroed register arena from the pool.
func takeArena() []interp.Value { return arenas.Get().(*[arenaSize]interp.Value)[:] }

// releaseArena clears an arena from takeArena and returns it to the
// pool.
func releaseArena(a []interp.Value) {
	clear(a)
	arenas.Put((*[arenaSize]interp.Value)(a))
}

// New wraps in in a Machine, compiling the global initializers to
// bytecode; every other proc compiles when the run first reaches it
// (Module.CompileAll compiles them all). An error means a global
// initializer holds an IR node the bytecode compiler does not know, an
// internal error (TestEveryNodeTypeCompiles covers every node type).
// Run in with one Machine only: its PIC entries keep that Machine's
// procs.
func New(in *interp.Interp) (*Machine, error) {
	mod, err := newModule(in.C)
	if err != nil {
		return nil, err
	}
	return &Machine{in: in, g: in.Guard(), mod: mod}, nil
}

// argClasses returns the classes of an argument window's first two
// values (nil past its end): the positions OpSend compares against its
// site's PIC entries inline. Version selects have no cache; OpVSelect
// takes the whole tuple through ClassesOf.
func argClasses(args []interp.Value, h *hier.Hierarchy) (c0, c1 *hier.Class) {
	if len(args) > 0 {
		c0 = args[0].Class(h)
	}
	if len(args) > 1 {
		c1 = args[1].Class(h)
	}
	return c0, c1
}

// Interp returns the wrapped interpreter (counters, profile, metrics).
func (m *Machine) Interp() *interp.Interp { return m.in }

func vmFail(format string, args ...any) {
	panic(&interp.RuntimeError{Msg: fmt.Sprintf(format, args...)})
}

func vmFailAt(pos lang.Pos, format string, args ...any) {
	panic(&interp.RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Run initializes globals and invokes main(); it returns main's value.
// The boundary mirrors interp.Run exactly: Mini-Cecil runtime errors
// (including guard trips) come back as *interp.RuntimeError, a stray
// non-local return becomes the same "already exited" error, and the
// run ends (EndRun) on every exit path.
func (m *Machine) Run() (v interp.Value, err error) {
	in := m.in
	m.stack = takeArena()
	defer func() {
		releaseArena(m.stack)
		m.stack = nil
	}()
	defer in.EndRun()
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*interp.RuntimeError); ok {
				err = re
				return
			}
			if _, ok := r.(vmReturn); ok {
				m.returning = false
				err = &interp.RuntimeError{Msg: "return from a method activation that already exited"}
				return
			}
			panic(r)
		}
	}()

	m.g.Arm(in.StepLimit, in.DepthLimit, in.Ctx)
	m.returning = false
	m.sp = 0
	m.fp = 0

	m.globals = make([]interp.Value, len(in.C.GlobalInits))
	m.ready = make([]bool, len(in.C.GlobalInits))
	in.Globals = m.globals
	for i, p := range m.mod.globalInits {
		m.globals[i] = m.runThunk(p)
		m.ready[i] = true
	}

	if in.C.Prog.Main == nil {
		return interp.NilV, fmt.Errorf("interp: program has no main() method")
	}
	mn, derr := in.H.Lookup(in.C.Prog.Main)
	if derr != nil {
		return interp.NilV, derr
	}
	return m.invoke(in.C.SelectVersion(mn, nil), nil, lang.Pos{}), nil
}

// clearSlots zeroes the frame-slot registers past the copied-in
// parameters, giving unassigned locals the tree tier's zero Value.
// Temporaries above NumSlots are never cleared: the compiler's
// write-into-dest discipline guarantees every temp is written on a
// path before it is read on that path, so stale arena contents are
// unobservable.
func clearSlots(regs []interp.Value, from, to int) {
	clear(regs[from:to])
}

// runThunk executes an initializer proc (global or field init) the way
// the tree tier evaluates init nodes: no frame, no activation, no call
// depth charged.
func (m *Machine) runThunk(p *Proc) interp.Value {
	base := m.sp
	if base+p.NumRegs <= len(m.stack) {
		regs := m.stack[base : base+p.NumRegs]
		clearSlots(regs, 0, p.NumSlots)
		m.sp = base + p.NumRegs
		v := m.exec(p, regs, nil, nil, nil, base)
		m.sp = base
		return v
	}
	return m.exec(p, make([]interp.Value, p.NumRegs), nil, nil, nil, -1)
}

// proc resolves the compiled proc for a method version, compiling it on
// first use (and, under the lazy configurations, building its optimized
// body first). Raises the tree tier's "compile: ..." RuntimeError when
// lazy body compilation fails.
func (m *Machine) proc(v *ir.Version) *Proc {
	if p, ok := m.mod.procs[v]; ok {
		return p
	}
	if _, err := m.in.C.Body(v); err != nil {
		vmFail("compile: %v", err)
	}
	p, err := m.mod.version(v)
	if err != nil {
		m.compileFailed(err)
	}
	return p
}

// compileFailed raises a bytecode compile failure met mid-run in the
// tree tier's internal-error shape. It is unreachable for today's IR
// (the compiler covers every node type, see TestEveryNodeTypeCompiles).
func (m *Machine) compileFailed(err error) {
	vmFailAt(m.g.CallPos(), "%v", err)
}

// invoke runs one method version from the Run boundary: the VM
// counterpart of interp.invoke, with identical guard, profile and
// counter sequencing (enter the depth guard, resolve the body, note
// the entry, run).
func (m *Machine) invoke(v *ir.Version, args []interp.Value, pos lang.Pos) interp.Value {
	m.g.Enter(pos)
	p := m.proc(v)
	if !p.noted {
		p.noted = true
		m.in.MarkInvoked(v)
	}
	m.in.NoteInvokeKnown(v, args)
	ret := m.runNoted(p, args)
	m.g.Leave()
	return ret
}

// runNoted executes a method proc whose entry has already been charged
// (NoteInvokeKnown) and whose depth guard is entered: the slow call
// path, for callees the dispatch loop cannot run in a flattened
// in-place window — closure creators (heap frame + activation), calls
// from heap-framed callers, and arena overflow.
func (m *Machine) runNoted(p *Proc, args []interp.Value) interp.Value {
	if p.NeedsFrame {
		regs := make([]interp.Value, p.NumRegs)
		copy(regs, args)
		fr := &interp.Frame{Slots: regs[:p.NumSlots]}
		return m.runMethodAct(p, regs, fr)
	}
	if base := m.sp; base+p.NumRegs <= len(m.stack) {
		regs := m.stack[base : base+p.NumRegs]
		copy(regs, args)
		clearSlots(regs, len(args), p.NumSlots)
		m.sp = base + p.NumRegs
		ret := m.exec(p, regs, nil, nil, nil, base)
		m.sp = base
		return ret
	}
	regs := make([]interp.Value, p.NumRegs)
	copy(regs, args)
	return m.exec(p, regs, nil, nil, nil, -1)
}

// runEntered executes a closure proc after NoteClosureCall and the
// depth-guard Enter: the slow closure path (closure bodies that create
// closures, heap-framed callers, arena overflow).
func (m *Machine) runEntered(p *Proc, args []interp.Value, up *interp.Frame, act *interp.Activation) interp.Value {
	if p.NeedsFrame {
		regs := make([]interp.Value, p.NumRegs)
		copy(regs, args)
		fr := &interp.Frame{Slots: regs[:p.NumSlots], Parent: up}
		return m.exec(p, regs, up, act, fr, -1)
	}
	if base := m.sp; base+p.NumRegs <= len(m.stack) {
		regs := m.stack[base : base+p.NumRegs]
		copy(regs, args)
		clearSlots(regs, len(args), p.NumSlots)
		m.sp = base + p.NumRegs
		ret := m.exec(p, regs, up, act, nil, base)
		m.sp = base
		return ret
	}
	regs := make([]interp.Value, p.NumRegs)
	copy(regs, args)
	return m.exec(p, regs, up, act, nil, -1)
}

// closureProc resolves a closure body's compiled proc, raising the
// tree tier's error shapes on (unreachable today) compile failure.
func (m *Machine) closureProc(code *ir.ClosureCode) *Proc {
	p, err := m.mod.closure(code)
	if err != nil {
		m.compileFailed(err)
	}
	return p
}

// runMethodAct executes a method body that creates closures, under a
// live activation that non-local returns can target. Like the tree
// tier's runBody, the recover is gated on m.returning so fatal faults
// unwind linearly; unlike the tree tier, catching a return restores the
// absolute call depth and arena cursor in one step instead of relying
// on per-frame deferred leaves.
func (m *Machine) runMethodAct(p *Proc, regs []interp.Value, fr *interp.Frame) (result interp.Value) {
	act := interp.NewActivation()
	savedDepth := m.g.Depth()
	savedSP := m.sp
	savedFP := m.fp
	defer func() {
		act.Exit()
		if !m.returning {
			return
		}
		if r := recover(); r != nil {
			if rs, ok := r.(vmReturn); ok && rs.act == act {
				m.returning = false
				m.g.SetDepth(savedDepth)
				m.sp = savedSP
				m.fp = savedFP
				result = rs.val
				return
			}
			panic(r) // a return aimed at an outer activation: keep unwinding
		}
	}()
	return m.exec(p, regs, nil, act, fr, -1)
}

// execState is the per-invocation state of one exec call: the running
// proc and its code, its register window, closure context, arena base,
// flattened-stack floor, and the batched cycle and primitive-op
// charges. It lives in memory, not in registers: exec passes its
// address to the out-of-line arms, so the compiler cannot promote its
// fields to loop-carried SSA values (phis). Only pc and the instruction
// pointer are carried around the dispatch loop; each arm loads the
// fields it uses. Every phi live across some arm's call is spilled at
// the loop head — a stack store per phi on every dispatched
// instruction — so an arm must not add one (see DESIGN.md §12).
type execState struct {
	p    *Proc
	code []Instr
	regs []interp.Value
	up   *interp.Frame      // static parent frame (closure procs only)
	act  *interp.Activation // the activation non-local returns target
	fr   *interp.Frame      // this proc's heap frame when NeedsFrame
	// base is the window's absolute arena index (-1 for heap windows);
	// call instructions hand the callee an in-place window starting at
	// the argument registers.
	base int
	// entryFP marks this invocation's floor in the flattened call
	// stack: OpRet pops only frames this invocation pushed, then
	// returns natively to the caller (runMethodAct, runThunk, Run).
	entryFP int
	// cyc and prims batch the invocation's cycle and primitive-op
	// charges; flush adds them to the interpreter's counters on every
	// exit path (normal return, guard trip, runtime error, non-local
	// return), so the counters are exact whenever they are observable —
	// at run end and at error capture. Nothing reads them mid-run.
	cyc, prims uint64
}

// flush adds the invocation's batched charges to the counters.
func (m *Machine) flush(st *execState) {
	m.in.Counters.Cycles += st.cyc
	m.in.Counters.PrimOps += st.prims
}

// exec is the dispatch loop. regs is this proc's register window; up is
// the static parent frame (closure procs only), act the activation
// non-local returns target (nil in initializers), fr this proc's heap
// frame when NeedsFrame, and base the window's absolute arena index
// (-1 for heap windows).
func (m *Machine) exec(p *Proc, regs []interp.Value, up *interp.Frame, act *interp.Activation, fr *interp.Frame, base int) interp.Value {
	st := execState{p: p, code: p.Code, regs: regs, up: up, act: act, fr: fr, base: base, entryFP: m.fp}
	defer m.flush(&st)
	pc := 0
	// The post statement makes i itself the loop-carried value: fetched
	// at the top of the body, i would be split into code base and pc
	// index, both live (and spilled) in every arm.
	for i := &st.code[0]; ; i = &st.code[pc] {
		switch i.Op {
		case OpConst:
			st.regs[i.A] = st.p.Consts[i.B]

		case OpMove:
			regs := st.regs
			regs[i.A] = regs[i.B]

		case OpJump:
			pc = int(i.A)
			continue

		case OpBranch:
			v, md := st.regs[i.A], Mode(i.D)
			if md.Not() {
				st.prims++
				st.cyc += interp.CostBin
			}
			if v.K != interp.KBool {
				vmFail(checkMsgs[i.C], v)
			}
			if (v.I != 0) == md.Sense() {
				st.cyc += md.Jump()
				pc = int(i.B)
				continue
			}
			st.cyc += md.Fall()

		case OpCheckBool:
			if v := st.regs[i.A]; v.K != interp.KBool {
				vmFail(checkMsgs[i.C], v)
			}

		case OpCmpBr:
			// Fused Bin(compare) + branch: one PrimOp and CostBin for
			// the comparison, then the mode's edge charge — exactly the
			// unfused accounting, failure point included (a mixed-type
			// comparison faults after the first charge, like EvalBin).
			regs := st.regs
			l, r, md := regs[i.A], regs[i.B], Mode(i.D)
			st.prims++
			st.cyc += interp.CostBin
			var b bool
			if l.K == interp.KInt && r.K == interp.KInt {
				switch md.Op() {
				case ir.OpLT:
					b = l.I < r.I
				case ir.OpLE:
					b = l.I <= r.I
				case ir.OpGT:
					b = l.I > r.I
				case ir.OpGE:
					b = l.I >= r.I
				case ir.OpEQ:
					b = l.I == r.I
				default:
					b = l.I != r.I
				}
			} else {
				b = interp.EvalBin(md.Op(), l, r).I != 0
			}
			if b == md.Sense() {
				st.cyc += md.Jump()
				pc = int(i.C)
				continue
			}
			st.cyc += md.Fall()

		case OpCmpBrK:
			l, r, md := st.regs[i.A], st.p.Consts[i.B], Mode(i.D)
			st.prims++
			st.cyc += interp.CostBin
			var b bool
			if l.K == interp.KInt && r.K == interp.KInt {
				switch md.Op() {
				case ir.OpLT:
					b = l.I < r.I
				case ir.OpLE:
					b = l.I <= r.I
				case ir.OpGT:
					b = l.I > r.I
				case ir.OpGE:
					b = l.I >= r.I
				case ir.OpEQ:
					b = l.I == r.I
				default:
					b = l.I != r.I
				}
			} else {
				b = interp.EvalBin(md.Op(), l, r).I != 0
			}
			if b == md.Sense() {
				st.cyc += md.Jump()
				pc = int(i.C)
				continue
			}
			st.cyc += md.Fall()

		case OpCmpBrField:
			p, regs := st.p, st.regs
			f := &p.FieldOps[i.D]
			o := regs[i.B].Obj()
			if o == nil {
				vmFail("field %q read on non-object %s", p.Names[f.Name], regs[i.B])
			}
			l, r := regs[i.A], o.Fields[f.Slot]
			st.prims++
			st.cyc += interp.CostFieldCached + interp.CostBin
			var b bool
			if l.K == interp.KInt && r.K == interp.KInt {
				switch f.Op {
				case ir.OpLT:
					b = l.I < r.I
				case ir.OpLE:
					b = l.I <= r.I
				case ir.OpGT:
					b = l.I > r.I
				case ir.OpGE:
					b = l.I >= r.I
				case ir.OpEQ:
					b = l.I == r.I
				default:
					b = l.I != r.I
				}
			} else {
				b = interp.EvalBin(f.Op, l, r).I != 0
			}
			if b == f.Mode.Sense() {
				st.cyc += f.Mode.Jump()
				pc = int(i.C)
				continue
			}
			st.cyc += f.Mode.Fall()

		case OpStep:
			m.g.Step()

		case OpLoop:
			m.g.Step()
			pc = int(i.A)
			continue

		case OpCharge:
			st.cyc += uint64(i.A)

		case OpGetUp:
			st.getUp(i)

		case OpSetUp:
			st.setUp(i)

		case OpGetGlobal:
			if !m.ready[i.B] {
				vmFail("global %s read before its initializer has run", st.p.Names[i.C])
			}
			st.regs[i.A] = m.globals[i.B]

		case OpSetGlobal:
			m.globals[i.B] = st.regs[i.A]
			m.ready[i.B] = true

		case OpGetField:
			regs := st.regs
			o := regs[i.B].Obj()
			if o == nil {
				vmFail("field %q read on non-object %s", st.p.Names[i.D], regs[i.B])
			}
			st.cyc += interp.CostFieldCached
			regs[i.A] = o.Fields[i.C]

		case OpGetFieldDyn:
			regs := st.regs
			o := regs[i.B].Obj()
			if o == nil {
				vmFail("field %q read on non-object %s", st.p.Names[i.D], regs[i.B])
			}
			// The cycle model still charges a by-name lookup: the site
			// cache is a VM speedup, not a change to the modelled cost.
			st.cyc += interp.CostFieldLookup
			regs[i.A] = o.Fields[st.p.fieldSlot(i, o)]

		case OpSetField:
			regs := st.regs
			o, v := regs[i.A].Obj(), regs[i.B]
			if o == nil {
				vmFail("field %q written on non-object %s", st.p.Names[i.D], regs[i.A])
			}
			st.cyc += interp.CostFieldCached
			m.in.CheckFieldType(o.Class, int(i.C), v)
			o.Fields[i.C] = v

		case OpSetFieldDyn:
			regs := st.regs
			o, v := regs[i.A].Obj(), regs[i.B]
			if o == nil {
				vmFail("field %q written on non-object %s", st.p.Names[i.D], regs[i.A])
			}
			st.cyc += interp.CostFieldLookup
			idx := st.p.fieldSlot(i, o)
			m.in.CheckFieldType(o.Class, idx, v)
			o.Fields[idx] = v

		case OpNew:
			m.newObject(&st, i)

		case OpMakeClosure:
			st.makeClosure(i)

		case OpCheckClosure:
			clo := st.regs[i.A].Clo()
			if clo == nil || int(i.B) != clo.Code.NumParams {
				st.badClosure(i, clo)
			}

		case OpSend, OpStaticCall, OpVSelect, OpCallClosure:
			// Resolve the callee cp (a method's version v): its entry is
			// charged and the depth guard entered. n is its argument
			// count, up and act its closure context (nil for methods).
			var v *ir.Version
			var cp *Proc
			var up *interp.Frame
			var act *interp.Activation
			n := int(i.D)
			switch i.Op {
			case OpSend:
				args := st.regs[i.C : i.C+i.D]
				site := st.p.Sites[i.B]
				pic := m.in.SitePIC(site.ID)
				var e *dispatch.Entry
				if i.D <= 2 {
					c0, c1 := argClasses(args, m.in.H)
					if e = pic.Front(); e != nil && e.Is(c0, c1, i.D) {
						pic.HitFront()
					} else {
						e = pic.Promote(c0, c1, i.D)
					}
				} else {
					m.clsBuf = m.in.ClassesOf(args, m.clsBuf)
					e = pic.Find(m.clsBuf)
				}
				if e != nil {
					// A hit, counted on the PIC: charge the rest and
					// enter the entry's proc, resolved on its first hit.
					m.in.ChargePICHit(site, e.Target)
					m.g.Enter(site.Pos)
					v = e.Version
					if cp, _ = e.Payload.(*Proc); cp == nil {
						cp = m.proc(v)
						e.Payload = cp
					}
				} else {
					v, cp = m.sendMiss(site, args)
				}
			case OpStaticCall:
				ref := &st.p.Statics[i.B]
				v = ref.Target
				m.in.NoteStaticCall(ref.Site, v)
				m.g.Enter(ref.Site.Pos)
				cp = ref.proc
				if cp == nil {
					cp = m.proc(v)
					ref.proc = cp
				}
			case OpVSelect:
				ref := &st.p.VSels[i.B]
				m.clsBuf = m.in.ClassesOf(st.regs[i.C:i.C+i.D], m.clsBuf)
				v = m.in.SelectVersionClasses(ref.Site, ref.Method, m.clsBuf)
				m.g.Enter(ref.Site.Pos)
				cp = m.proc(v)
			default: // OpCallClosure
				clo := st.regs[i.B].Clo()
				n, up, act = clo.Code.NumParams, clo.Frame, clo.Act
				m.in.NoteClosureCall()
				cp = m.lastProc
				if clo.Code != m.lastCode {
					cp = m.closureProc(clo.Code)
					m.lastCode, m.lastProc = clo.Code, cp
				}
				m.g.Enter(st.p.Poss[i.D])
			}
			if v != nil {
				if !cp.noted {
					cp.noted = true
					m.in.MarkInvoked(v)
				}
				m.in.NoteInvokeKnown(v, st.regs[i.C:i.C+i.D])
			}
			// The flattened call: when caller and callee both run in
			// arena register windows, push the caller's resume state
			// (resume at pc+1, result into register A) and switch to the
			// callee in place, its window starting at the argument
			// registers. Otherwise recurse natively.
			if !cp.NeedsFrame && st.base >= 0 {
				if ab := st.base + int(i.C); ab+cp.NumRegs <= len(m.stack) {
					if m.fp == len(m.frames) {
						m.frames = append(m.frames, vmFrame{})
					}
					f := &m.frames[m.fp]
					m.fp++
					f.p, f.up, f.act = st.p, st.up, st.act
					f.pc, f.dest, f.base, f.sp = pc+1, int(i.A), st.base, m.sp
					regs := m.stack[ab : ab+cp.NumRegs]
					clearSlots(regs, n, cp.NumSlots)
					m.sp = ab + cp.NumRegs
					st.p, st.code, st.regs, st.base, st.up, st.act = cp, cp.Code, regs, ab, up, act
					pc = 0
					continue
				}
			}
			args := st.regs[i.C : i.C+int32(n)]
			var ret interp.Value
			if i.Op == OpCallClosure {
				ret = m.runEntered(cp, args, up, act)
			} else {
				ret = m.runNoted(cp, args)
			}
			m.g.Leave()
			st.regs[i.A] = ret

		case OpPrim:
			// The allocation-free primitives run inline with the same
			// PrimOps/CostPrim accounting as CallPrim; every fallthrough
			// (other prims, and all failure shapes) takes the shared seam,
			// which charges first and then raises the tree tier's exact
			// error — so the fast path charges nothing before deferring.
			// aget and aput never come here: they compile to OpAGet,
			// OpAGetField and OpAPut.
			regs := st.regs
			args := regs[i.C : i.C+i.D]
			switch ir.Prim(i.B) {
			case ir.PrimALen:
				if a := args[0].Arr(); a != nil {
					st.prims++
					st.cyc += interp.CostPrim
					regs[i.A] = interp.IntV(int64(a.Len()))
					break
				}
				m.callPrim(&st, i)
			case ir.PrimStrLen:
				if args[0].K == interp.KStr {
					st.prims++
					st.cyc += interp.CostPrim
					regs[i.A] = interp.IntV(int64(len(args[0].Str())))
					break
				}
				m.callPrim(&st, i)
			case ir.PrimOrd:
				if s := args[0].Str(); len(s) > 0 {
					st.prims++
					st.cyc += interp.CostPrim
					regs[i.A] = interp.IntV(int64(s[0]))
					break
				}
				m.callPrim(&st, i)
			default:
				m.callPrim(&st, i)
			}

		case OpBin:
			regs := st.regs
			l, r := regs[i.B], regs[i.C]
			st.prims++
			st.cyc += interp.CostBin
			if l.K == interp.KInt && r.K == interp.KInt {
				switch ir.BinOp(i.D) {
				case ir.OpAdd:
					regs[i.A] = interp.IntV(l.I + r.I)
				case ir.OpSub:
					regs[i.A] = interp.IntV(l.I - r.I)
				case ir.OpMul:
					regs[i.A] = interp.IntV(l.I * r.I)
				case ir.OpLT:
					regs[i.A] = interp.BoolV(l.I < r.I)
				case ir.OpLE:
					regs[i.A] = interp.BoolV(l.I <= r.I)
				case ir.OpGT:
					regs[i.A] = interp.BoolV(l.I > r.I)
				case ir.OpGE:
					regs[i.A] = interp.BoolV(l.I >= r.I)
				case ir.OpEQ:
					regs[i.A] = interp.BoolV(l.I == r.I)
				case ir.OpNE:
					regs[i.A] = interp.BoolV(l.I != r.I)
				default:
					st.binSlow(i.A, ir.BinOp(i.D), l, r)
				}
			} else {
				st.binSlow(i.A, ir.BinOp(i.D), l, r)
			}

		case OpBinK:
			regs := st.regs
			l, r := regs[i.B], st.p.Consts[i.C]
			st.prims++
			st.cyc += interp.CostBin
			if l.K == interp.KInt && r.K == interp.KInt {
				switch ir.BinOp(i.D) {
				case ir.OpAdd:
					regs[i.A] = interp.IntV(l.I + r.I)
				case ir.OpSub:
					regs[i.A] = interp.IntV(l.I - r.I)
				case ir.OpMul:
					regs[i.A] = interp.IntV(l.I * r.I)
				case ir.OpLT:
					regs[i.A] = interp.BoolV(l.I < r.I)
				case ir.OpLE:
					regs[i.A] = interp.BoolV(l.I <= r.I)
				case ir.OpGT:
					regs[i.A] = interp.BoolV(l.I > r.I)
				case ir.OpGE:
					regs[i.A] = interp.BoolV(l.I >= r.I)
				case ir.OpEQ:
					regs[i.A] = interp.BoolV(l.I == r.I)
				case ir.OpNE:
					regs[i.A] = interp.BoolV(l.I != r.I)
				case ir.OpDiv:
					if r.I == 0 {
						// The shared fallback owns the zero-divisor error.
						st.binSlow(i.A, ir.OpDiv, l, r)
						break
					}
					regs[i.A] = interp.IntV(l.I / r.I)
				case ir.OpMod:
					if r.I == 0 {
						st.binSlow(i.A, ir.OpMod, l, r)
						break
					}
					regs[i.A] = interp.IntV(l.I % r.I)
				default:
					st.binSlow(i.A, ir.BinOp(i.D), l, r)
				}
			} else {
				st.binSlow(i.A, ir.BinOp(i.D), l, r)
			}

		case OpAGet:
			regs := st.regs
			a, ix := regs[i.B].Arr(), regs[i.C]
			if a != nil && ix.K == interp.KInt {
				if v, ok := a.Load(ix.I); ok {
					st.prims++
					st.cyc += interp.CostPrim
					regs[i.A] = v
					break
				}
			}
			// Shared seam: charges first, then raises the tree tier's
			// exact error for every failure shape.
			m.agetSlow(&st, i.A, regs[i.B], ix)

		case OpAGetField:
			p, regs := st.p, st.regs
			f := &p.FieldOps[i.D]
			o := regs[i.B].Obj()
			if o == nil {
				vmFail("field %q read on non-object %s", p.Names[f.Name], regs[i.B])
			}
			st.cyc += interp.CostFieldCached
			av, ix := o.Fields[f.Slot], regs[i.C]
			if a := av.Arr(); a != nil && ix.K == interp.KInt {
				if v, ok := a.Load(ix.I); ok {
					st.prims++
					st.cyc += interp.CostPrim
					regs[i.A] = v
					break
				}
			}
			m.agetSlow(&st, i.A, av, ix)

		case OpAPut:
			regs := st.regs
			a, ix, v := regs[i.B].Arr(), regs[i.C], regs[i.D]
			if a != nil && ix.K == interp.KInt && a.TryStore(ix.I, v) {
				st.prims++
				st.cyc += interp.CostPrim
				regs[i.A] = v
			} else {
				m.aputSlow(&st, i.A, regs[i.B], ix, regs[i.D])
			}

		case OpFieldBin, OpFieldBinK, OpBinField:
			p, regs := st.p, st.regs
			f := &p.FieldOps[i.D]
			o := regs[i.B].Obj()
			if o == nil {
				vmFail("field %q read on non-object %s", p.Names[f.Name], regs[i.B])
			}
			st.cyc += interp.CostFieldCached
			var l, r interp.Value
			switch i.Op {
			case OpFieldBin:
				l, r = o.Fields[f.Slot], regs[i.C]
			case OpFieldBinK:
				l, r = o.Fields[f.Slot], p.Consts[i.C]
			default: // OpBinField: field is the right operand
				l, r = regs[i.C], o.Fields[f.Slot]
			}
			st.prims++
			st.cyc += interp.CostBin
			if l.K == interp.KInt && r.K == interp.KInt {
				switch f.Op {
				case ir.OpAdd:
					regs[i.A] = interp.IntV(l.I + r.I)
				case ir.OpSub:
					regs[i.A] = interp.IntV(l.I - r.I)
				case ir.OpMul:
					regs[i.A] = interp.IntV(l.I * r.I)
				case ir.OpLT:
					regs[i.A] = interp.BoolV(l.I < r.I)
				case ir.OpLE:
					regs[i.A] = interp.BoolV(l.I <= r.I)
				case ir.OpGT:
					regs[i.A] = interp.BoolV(l.I > r.I)
				case ir.OpGE:
					regs[i.A] = interp.BoolV(l.I >= r.I)
				case ir.OpEQ:
					regs[i.A] = interp.BoolV(l.I == r.I)
				case ir.OpNE:
					regs[i.A] = interp.BoolV(l.I != r.I)
				default:
					st.binSlow(i.A, f.Op, l, r)
				}
			} else {
				st.binSlow(i.A, f.Op, l, r)
			}

		case OpNot:
			x := st.regs[i.B]
			st.prims++
			st.cyc += interp.CostBin
			if x.K != interp.KBool {
				vmFail("'!' on non-boolean %s", x)
			}
			st.regs[i.A] = interp.BoolV(x.I == 0)

		case OpNeg:
			x := st.regs[i.B]
			st.prims++
			st.cyc += interp.CostBin
			if x.K != interp.KInt {
				vmFail("unary '-' on non-integer %s", x)
			}
			st.regs[i.A] = interp.IntV(-x.I)

		case OpRet:
			if m.fp > st.entryFP {
				// Pop a flattened caller: reload its state in place and
				// keep dispatching — the Go stack never moved. The
				// caller's window is recomputed from its arena base
				// (frames are pushed only from arena windows).
				ret := st.regs[i.A]
				m.g.Leave()
				m.fp--
				f := &m.frames[m.fp]
				p := f.p
				st.p, st.code, st.up, st.act, st.base = p, p.Code, f.up, f.act, f.base
				st.regs = m.stack[f.base : f.base+p.NumRegs]
				st.regs[f.dest] = ret
				m.sp = f.sp
				pc = f.pc
				continue
			}
			return st.regs[i.A]

		case OpRetNL:
			st.returnNonLocal(m, i)

		default:
			vmFailAt(m.g.CallPos(), "internal error: unknown opcode %s", i.Op)
		}
		pc++
	}
}

// sendMiss is OpSend when no PIC entry matched: a full dispatch
// through the generic seam, which also fills the PIC.
func (m *Machine) sendMiss(site *ir.CallSite, args []interp.Value) (*ir.Version, *Proc) {
	m.clsBuf = m.in.ClassesOf(args, m.clsBuf)
	v := m.in.DispatchSendClasses(site, m.clsBuf)
	// Enter before body resolution, as the tree tier does: a depth trip
	// must win over a lazy-compile failure.
	m.g.Enter(site.Pos)
	return v, m.proc(v)
}

// newObject is OpNew: regs[A] = a new Classes[B] whose leading fields
// come from the C..C+D-1 window; the rest start from ref's plan (see
// NewRef), built on the first construction, and every field is
// declared-type checked. Every thunk compiles; a constant that fails
// its declared type keeps its thunk, so it fails as in the tree tier.
func (m *Machine) newObject(st *execState, i *Instr) {
	ref := &st.p.News[i.B]
	cls := ref.Class
	if ref.proto == nil {
		thunks, err := m.mod.fieldInitsOf(cls)
		if err != nil {
			m.compileFailed(err)
		}
		ref.proto = make([]interp.Value, len(cls.Fields))
		ref.inits = make([]*Proc, len(cls.Fields))
		for f := int(i.D); f < len(thunks); f++ {
			if k, ok := m.mod.c.FieldInits[cls][f].(*ir.Const); ok && m.in.FieldTypeOK(cls, f, constValue(k)) {
				ref.proto[f] = constValue(k)
			} else {
				ref.inits[f] = thunks[f]
			}
		}
	}
	obj := &interp.Object{Class: cls, Fields: make([]interp.Value, len(cls.Fields))}
	copy(obj.Fields, ref.proto)
	copy(obj.Fields, st.regs[i.C:i.C+i.D])
	for f, p := range ref.inits {
		if p != nil {
			obj.Fields[f] = m.runThunk(p)
		}
	}
	for f := range cls.Fields {
		m.in.CheckFieldType(cls, f, obj.Fields[f])
	}
	st.regs[i.A] = interp.ObjV(obj)
}

// makeClosure is OpMakeClosure: a closure over Closures[B] capturing
// the current frame and activation.
func (st *execState) makeClosure(i *Instr) {
	st.cyc += interp.CostClosureMake
	st.regs[i.A] = interp.CloV(&interp.Closure{Code: st.p.Closures[i.B], Frame: st.fr, Act: st.act})
}

// badClosure raises OpCheckClosure's error for clo: not a closure, or
// a closure of another arity than B.
func (st *execState) badClosure(i *Instr, clo *interp.Closure) {
	if clo == nil {
		vmFailAt(st.p.Poss[i.C], "calling a non-closure value %s", st.regs[i.A])
	}
	vmFailAt(st.p.Poss[i.C], "closure expects %d arguments, got %d", clo.Code.NumParams, i.B)
}

// upFrame returns the frame hops static-chain links out (hops >= 1).
func (st *execState) upFrame(hops int32) *interp.Frame {
	f := st.up
	for d := hops; d > 1; d-- {
		f = f.Parent
	}
	return f
}

// getUp is OpGetUp: regs[A] = slot C of the frame B hops out.
func (st *execState) getUp(i *Instr) { st.regs[i.A] = st.upFrame(i.B).Slots[i.C] }

// setUp is OpSetUp: slot C of the frame B hops out = regs[A].
func (st *execState) setUp(i *Instr) { st.upFrame(i.B).Slots[i.C] = st.regs[i.A] }

// returnNonLocal is OpRetNL: unwind to the enclosing method activation
// with regs[A], failing if that activation already exited.
func (st *execState) returnNonLocal(m *Machine, i *Instr) {
	if st.act == nil || !st.act.Alive() {
		vmFail("return from a method activation that already exited")
	}
	m.returning = true
	panic(vmReturn{act: st.act, val: st.regs[i.A]})
}

// fieldSlot resolves dynamic field op i's slot in o through its site
// cache (FieldSites[C]), re-resolving by name Names[D] on a class miss.
// A hit on the older entry makes it the newer one.
func (p *Proc) fieldSlot(i *Instr, o *interp.Object) int {
	fs := &p.FieldSites[i.C]
	switch o.Class {
	case fs.cls[0]:
		return fs.slot[0]
	case fs.cls[1]:
		fs.cls[0], fs.cls[1] = fs.cls[1], fs.cls[0]
		fs.slot[0], fs.slot[1] = fs.slot[1], fs.slot[0]
		return fs.slot[0]
	}
	return fs.resolve(o.Class, p.Names[i.D])
}

// The fallbacks below store their result into the register window
// themselves and stay out of line (go:noinline), so no arm of exec
// keeps its window or proc live across their calls: a value live
// across a call is spilled on the arm's fast path.

// callPrim is OpPrim through the shared CallPrim seam: every primitive
// without an inline fast path, and every failure shape of those with
// one (the seam charges first, then raises the tree tier's error).
//
//go:noinline
func (m *Machine) callPrim(st *execState, i *Instr) {
	st.regs[i.A] = m.in.CallPrim(ir.Prim(i.B), st.regs[i.C:i.C+i.D])
}

// agetSlow and aputSlow are the CallPrim fallbacks of the fused array
// instructions, storing into register a.
//
//go:noinline
func (m *Machine) agetSlow(st *execState, a int32, arr, ix interp.Value) {
	st.regs[a] = m.in.CallPrim(ir.PrimAGet, []interp.Value{arr, ix})
}

//go:noinline
func (m *Machine) aputSlow(st *execState, a int32, arr, ix, v interp.Value) {
	st.regs[a] = m.in.CallPrim(ir.PrimAPut, []interp.Value{arr, ix, v})
}

// binSlow is the EvalBin fallback of the arithmetic arms: register a
// = l op r for the operands and operators the inline integer paths do
// not cover (EvalBin raises the error shapes).
//
//go:noinline
func (st *execState) binSlow(a int32, op ir.BinOp, l, r interp.Value) {
	st.regs[a] = interp.EvalBin(op, l, r)
}
