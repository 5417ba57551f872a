package vm

import (
	"fmt"

	"selspec/internal/hier"
	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/opt"
)

// Module is the compiled form of one opt.Compiled: procs for every
// method version, closure body and initializer thunk. Only global
// initializers compile up front; a version body compiles on its first
// invocation (Machine.proc), a class's field initializers on its first
// `new`, and CompileAll compiles everything that exists for the
// verifier and the diagnostics. The module is single-goroutine state,
// like the Interp it executes under.
type Module struct {
	c           *opt.Compiled
	procs       map[*ir.Version]*Proc
	closures    map[*ir.ClosureCode]*Proc
	globalInits []*Proc
	fieldInits  map[*hier.Class][]*Proc
}

func newModule(c *opt.Compiled) (*Module, error) {
	mod := &Module{
		c:          c,
		procs:      map[*ir.Version]*Proc{},
		closures:   map[*ir.ClosureCode]*Proc{},
		fieldInits: map[*hier.Class][]*Proc{},
	}
	for i, init := range c.GlobalInits {
		p, err := mod.compile(fmt.Sprintf("<global#%d>", i), KindInit, init, 0)
		if err != nil {
			return nil, err
		}
		mod.globalInits = append(mod.globalInits, p)
	}
	return mod, nil
}

// CompileAll compiles every proc whose body exists now: all field
// initializers and every version the optimizer has built a body for
// (eager configurations build them all up front; lazy ones hand out
// nil bodies until first invocation). The verifier and the bytecode
// diagnostics call it so they see every proc before the run; the run
// itself compiles only what it reaches.
func (mod *Module) CompileAll() error {
	for _, cls := range mod.c.Prog.H.Classes() {
		if _, err := mod.fieldInitsOf(cls); err != nil {
			return err
		}
	}
	for _, m := range mod.c.Prog.H.Methods() {
		if _, ok := mod.c.Prog.Bodies[m]; !ok {
			continue
		}
		for _, v := range mod.c.VersionsOf(m) {
			if v.Body != nil {
				if _, err := mod.version(v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// fieldInitsOf compiles (and caches) the field-initializer thunks of
// cls, aligned with cls.Fields (nil entries for fields without one).
func (mod *Module) fieldInitsOf(cls *hier.Class) ([]*Proc, error) {
	if ps, ok := mod.fieldInits[cls]; ok {
		return ps, nil
	}
	inits := mod.c.FieldInits[cls]
	ps := make([]*Proc, len(inits))
	for i, init := range inits {
		if init == nil {
			continue
		}
		p, err := mod.compile(fmt.Sprintf("<%s.%s>", cls.Name, cls.Fields[i].Name), KindInit, init, 0)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	mod.fieldInits[cls] = ps
	return ps, nil
}

// version compiles (and caches) the proc for one method version whose
// body is already available.
func (mod *Module) version(v *ir.Version) (*Proc, error) {
	if p, ok := mod.procs[v]; ok {
		return p, nil
	}
	p, err := mod.compile(v.String(), KindMethod, v.Body, v.NumSlots)
	if err != nil {
		return nil, err
	}
	mod.procs[v] = p
	return p, nil
}

// closure compiles (and caches) a closure body. Closure procs are
// compiled when the containing proc compiles its MakeClosure, so by the
// time a closure value exists its proc is in the cache.
func (mod *Module) closure(code *ir.ClosureCode) (*Proc, error) {
	if p, ok := mod.closures[code]; ok {
		return p, nil
	}
	p, err := mod.compile("<closure>", KindClosure, code.Body, code.NumSlots)
	if err != nil {
		return nil, err
	}
	mod.closures[code] = p
	return p, nil
}

func (mod *Module) compile(name string, kind ProcKind, body ir.Node, numSlots int) (*Proc, error) {
	c := &compiler{
		mod: mod,
		p: &Proc{
			Name:     name,
			Kind:     kind,
			NumSlots: numSlots,
		},
		eff:  analyzeEffects(body),
		next: int32(numSlots),
		max:  int32(numSlots),
	}
	dest := c.temp()
	c.into(body, dest)
	c.emit(OpRet, dest, 0, 0, 0)
	if c.err != nil {
		return nil, c.err
	}
	c.p.NumRegs = int(c.max)
	return c.p, nil
}

// compiler builds one Proc. Temporary registers are allocated with a
// stack discipline: save/restore brackets around subexpressions reuse
// registers, and max tracks the high-water mark that sizes the window.
type compiler struct {
	mod  *Module
	p    *Proc
	eff  *effects
	next int32 // next free temp register
	max  int32
	err  error

	constIdx map[constKey]int32
	nameIdx  map[string]int32

	// jumps is a stack of condition branches awaiting their target: cond
	// pushes a condition's jumps, and the consumer pops and patches them
	// with patchSpan once the target is emitted. Conditions nested in
	// the code between push and pop leave the stack as they found it.
	jumps []int32
}

type constKey struct {
	k interp.Kind
	i int64
	s string
}

func (c *compiler) temp() int32 {
	r := c.next
	c.next++
	if c.next > c.max {
		c.max = c.next
	}
	return r
}

// window allocates n consecutive registers (a call-argument window).
func (c *compiler) window(n int) int32 {
	r := c.next
	c.next += int32(n)
	if c.next > c.max {
		c.max = c.next
	}
	return r
}

func (c *compiler) save() int32        { return c.next }
func (c *compiler) restore(mark int32) { c.next = mark }

func (c *compiler) emit(op Op, a, b, cc, d int32) int32 {
	c.p.Code = append(c.p.Code, Instr{Op: op, A: a, B: b, C: cc, D: d})
	return int32(len(c.p.Code) - 1)
}

// patch points forward branches emitted at pcs to the next instruction.
// OpJump targets live in A; OpBranch targets in B; OpCmpBr in C.
func (c *compiler) patch(pcs ...int32) {
	t := int32(len(c.p.Code))
	for _, pc := range pcs {
		switch c.p.Code[pc].Op {
		case OpJump:
			c.p.Code[pc].A = t
		case OpBranch:
			c.p.Code[pc].B = t
		case OpCmpBr, OpCmpBrK, OpCmpBrField:
			c.p.Code[pc].C = t
		default:
			panic("vm: patch on non-branch")
		}
	}
}

// patchSpan points the pending jumps c.jumps[from:to] at the next
// instruction and removes them from the stack.
func (c *compiler) patchSpan(from, to int) {
	c.patch(c.jumps[from:to]...)
	c.jumps = append(c.jumps[:from], c.jumps[to:]...)
}

func (c *compiler) konst(v interp.Value) int32 {
	if c.constIdx == nil {
		c.constIdx = map[constKey]int32{}
	}
	k := constKey{k: v.K, i: v.I, s: v.Str()}
	if idx, ok := c.constIdx[k]; ok {
		return idx
	}
	idx := int32(len(c.p.Consts))
	c.p.Consts = append(c.p.Consts, v)
	c.constIdx[k] = idx
	return idx
}

func (c *compiler) name(s string) int32 {
	if c.nameIdx == nil {
		c.nameIdx = map[string]int32{}
	}
	if idx, ok := c.nameIdx[s]; ok {
		return idx
	}
	idx := int32(len(c.p.Names))
	c.p.Names = append(c.p.Names, s)
	c.nameIdx[s] = idx
	return idx
}

// fieldSite allocates the inline cache of one dynamic field op and
// returns its FieldSites index.
func (c *compiler) fieldSite() int32 {
	c.p.FieldSites = append(c.p.FieldSites, FieldSite{})
	return int32(len(c.p.FieldSites) - 1)
}

func constValue(n *ir.Const) interp.Value {
	switch n.Kind {
	case ir.KInt:
		return interp.IntV(n.Int)
	case ir.KStr:
		return interp.StrV(n.Str)
	case ir.KBool:
		return interp.BoolV(n.Bool)
	default:
		return interp.NilV
	}
}

// operand compiles n and returns a register holding its value. Depth-0
// locals are returned as their slot register with no code; everything
// else evaluates into a fresh temporary from the current scope.
func (c *compiler) operand(n ir.Node) int32 {
	if l, ok := n.(*ir.Local); ok && l.Depth == 0 {
		return int32(l.Slot)
	}
	t := c.temp()
	c.into(n, t)
	return t
}

// discard evaluates n for effect only. Statement shapes get dedicated
// effect-only forms so no dead result moves or nil loads reach the hot
// loop bodies; none of the elided instructions (OpMove, OpConst) carry
// counter or cycle effects, so the accounting is unchanged.
func (c *compiler) discard(n ir.Node) {
	switch n := n.(type) {
	case *ir.SetLocal:
		if n.Depth == 0 {
			// The slot is the destination: expr writes it as its final
			// action, no result copy.
			c.into(n.X, int32(n.Slot))
			return
		}

	case *ir.Seq:
		for _, child := range n.Nodes {
			c.discard(child)
		}
		return

	case *ir.If:
		br := c.cond(n.Cond, msgIf)
		c.discard(n.Then)
		if n.Else != nil {
			end := c.emit(OpJump, 0, 0, 0, 0)
			c.patchSpan(br, len(c.jumps))
			c.discard(n.Else)
			c.patch(end)
		} else {
			c.patchSpan(br, len(c.jumps))
		}
		return

	case *ir.While:
		c.loop(n)
		return

	case *ir.Const:
		return // pure, uncounted: no code

	case *ir.Local:
		if n.Depth == 0 {
			return // pure, uncounted: no code
		}
	}
	mark := c.save()
	t := c.temp()
	c.into(n, t)
	c.restore(mark)
}

// argWindow compiles a call's arguments into a fresh contiguous
// register window and returns its base. The caller restores the scope.
func (c *compiler) argWindow(args []ir.Node) int32 {
	base := c.window(len(args))
	for i, a := range args {
		mark := c.save()
		c.into(a, base+int32(i))
		c.restore(mark)
	}
	return base
}

// captured compiles operand a for an instruction that reads its operand
// registers at execution time — after the nodes in `later` have
// evaluated. A depth-0 local is used in place (its slot register, no
// code) unless the effect analysis says some later node may write that
// slot, in which case the slot's current value is snapshotted into a
// temporary first. Later code cannot touch the temporary (stack
// discipline: subsequent evaluation writes only fresh, higher temps,
// argument windows, and slots), so this preserves the tree tier's
// left-to-right value capture exactly — with a copy only where the
// analysis proves one is needed.
func (c *compiler) captured(a ir.Node, later ...ir.Node) int32 {
	if l, ok := a.(*ir.Local); ok && l.Depth == 0 {
		for _, n := range later {
			if c.eff.mayWriteSlot(n, l.Slot) {
				t := c.temp()
				c.emit(OpMove, t, int32(l.Slot), 0, 0)
				return t
			}
		}
		return int32(l.Slot)
	}
	return c.operand(a)
}

// fieldOp pools the slot/name/operator triple of one fused field/binop
// superinstruction and returns its FieldOps index.
func (c *compiler) fieldOp(gf *ir.GetField, op ir.BinOp) int32 {
	idx := int32(len(c.p.FieldOps))
	c.p.FieldOps = append(c.p.FieldOps, FieldOpRef{Slot: int32(gf.Slot), Name: c.name(gf.Name), Op: op})
	return idx
}

func isCompare(op ir.BinOp) bool {
	switch op {
	case ir.OpLT, ir.OpLE, ir.OpGT, ir.OpGE, ir.OpEQ, ir.OpNE:
		return true
	}
	return false
}

// loop compiles a While: the head's OpStep, the condition, the body,
// and an OpLoop back-edge that steps and re-enters at the condition.
func (c *compiler) loop(n *ir.While) {
	head := c.emit(OpStep, 0, 0, 0, 0)
	br := c.cond(n.Cond, msgWhile)
	c.discard(n.Body)
	c.emit(OpLoop, head+1, 0, 0, 0)
	c.patchSpan(br, len(c.jumps))
}

// test is what the tree tier does with a condition value between
// producing it and the next instruction of its consumer: fail with
// message kind msg if the value is not a boolean (after charging a
// folded `!` when not is set), then charge onT or onF cycles by the
// value. An If or While charges its CostBin on both outcomes; every
// enclosing && / || a value flows out of adds its CostBin too.
type test struct {
	msg      int32
	not      bool
	onT, onF int32
}

// maxCondDepth bounds how many && / || levels compile to jumping code;
// deeper operands are evaluated as values. Each level adds at most one
// CostBin to an edge, so the bound keeps every edge charge within
// maxEdgeCycles.
const maxCondDepth = 256

// cond compiles an If/While condition as jumping code — falling through
// when it is true, jumping when it is false — and returns the jumps
// stack mark above which its jumps wait for the caller's patchSpan.
// && / || and ! never materialize a boolean: every leaf branches
// directly, with the tree tier's charges for each edge folded into its
// branch mode.
func (c *compiler) cond(n ir.Node, msg int32) int {
	mark := len(c.jumps)
	c.branch(n, test{msg: msg, onT: interp.CostBin, onF: interp.CostBin}, false, 0)
	return mark
}

// branch compiles n under test t so that execution jumps when n's value
// is sense and falls through otherwise, pushing the jumps on c.jumps.
//
// The tree tier evaluates `L && R` as: L, check it ('&&' message),
// charge CostBin, and yield false without evaluating R if L is false;
// otherwise R, checked ('&&' message) but not charged, is the value.
// So L branches under the '&&' test, charging one CostBin on both
// edges and t's false charge on top of that when it short-circuits;
// R inherits t's charges under the '&&' message. || is the mirror
// image. `!x` charges one PrimOp and CostBin, checks x ('!' message)
// and flips it: x branches under the '!' test with the flag that
// charges that before its check, the edge charges swapped and the
// sense flipped.
func (c *compiler) branch(n ir.Node, t test, sense bool, depth int) {
	if !t.not && depth < maxCondDepth {
		switch n := n.(type) {
		case *ir.And:
			l := test{msg: msgAnd, onT: interp.CostBin, onF: interp.CostBin + t.onF}
			r := test{msg: msgAnd, onT: t.onT, onF: t.onF}
			if !sense {
				c.branch(n.L, l, false, depth+1)
				c.branch(n.R, r, false, depth+1)
				return
			}
			// A false L short-circuits to the fall-through past R.
			from := len(c.jumps)
			c.branch(n.L, l, false, depth+1)
			to := len(c.jumps)
			c.branch(n.R, r, true, depth+1)
			c.patchSpan(from, to)
			return

		case *ir.Or:
			l := test{msg: msgOr, onT: interp.CostBin + t.onT, onF: interp.CostBin}
			r := test{msg: msgOr, onT: t.onT, onF: t.onF}
			if sense {
				c.branch(n.L, l, true, depth+1)
				c.branch(n.R, r, true, depth+1)
				return
			}
			// A true L short-circuits to the fall-through past R.
			from := len(c.jumps)
			c.branch(n.L, l, true, depth+1)
			to := len(c.jumps)
			c.branch(n.R, r, false, depth+1)
			c.patchSpan(from, to)
			return

		case *ir.Un:
			if n.Op == ir.OpNot {
				c.branch(n.X, test{msg: msgNot, not: true, onT: t.onF, onF: t.onT}, !sense, depth+1)
				return
			}

		case *ir.Bin:
			if isCompare(n.Op) {
				c.jumps = append(c.jumps, c.cmpBranch(n, t, sense))
				return
			}
		}
	}
	mark := c.save()
	r := c.operand(n)
	c.jumps = append(c.jumps, c.emit(OpBranch, r, 0, t.msg, int32(edgeMode(t, sense))))
	c.restore(mark)
}

// edgeMode is the branch mode of a leaf that jumps when its value is
// sense under test t.
func edgeMode(t test, sense bool) Mode {
	jump, fall := t.onF, t.onT
	if sense {
		jump, fall = t.onT, t.onF
	}
	return branchMode(sense, t.not, jump, fall)
}

// cmpBranch compiles a comparison leaf into a fused compare-branch. A
// comparison yields a boolean or fails inside EvalBin, so the test's
// truthy check can never fail and only its edge charges remain (t
// never folds a `!`: branch evaluates a negated comparison as a value).
func (c *compiler) cmpBranch(b *ir.Bin, t test, sense bool) int32 {
	mark := c.save()
	defer c.restore(mark)
	mode := edgeMode(t, sense)
	l := c.captured(b.L, b.R)
	if gf, ok := b.R.(*ir.GetField); ok && gf.Slot >= 0 {
		obj := c.operand(gf.Obj)
		f := c.fieldOp(gf, b.Op)
		c.p.FieldOps[f].Mode = mode
		return c.emit(OpCmpBrField, l, obj, 0, f)
	}
	mode |= Mode(b.Op)
	if k, ok := b.R.(*ir.Const); ok {
		return c.emit(OpCmpBrK, l, c.konst(constValue(k)), 0, int32(mode))
	}
	r := c.operand(b.R)
	return c.emit(OpCmpBr, l, r, 0, int32(mode))
}

// into compiles n so that its value lands in dest. Discipline: dest is
// written only as the final action of n's evaluation (single write per
// executed path), so `slot := expr` can compile expr directly into the
// slot register while expr still reads the slot's old value.
func (c *compiler) into(n ir.Node, dest int32) {
	if c.err != nil {
		return
	}
	switch n := n.(type) {
	case *ir.Const:
		c.emit(OpConst, dest, c.konst(constValue(n)), 0, 0)

	case *ir.Local:
		if n.Depth == 0 {
			if int32(n.Slot) != dest {
				c.emit(OpMove, dest, int32(n.Slot), 0, 0)
			}
			return
		}
		c.emit(OpGetUp, dest, int32(n.Depth), int32(n.Slot), 0)

	case *ir.SetLocal:
		if n.Depth == 0 {
			c.into(n.X, int32(n.Slot))
			if int32(n.Slot) != dest {
				c.emit(OpMove, dest, int32(n.Slot), 0, 0)
			}
			return
		}
		c.into(n.X, dest)
		c.emit(OpSetUp, dest, int32(n.Depth), int32(n.Slot), 0)

	case *ir.Global:
		c.emit(OpGetGlobal, dest, int32(n.Slot), c.name(n.Name), 0)

	case *ir.SetGlobal:
		c.into(n.X, dest)
		c.emit(OpSetGlobal, dest, int32(n.Slot), 0, 0)

	case *ir.GetField:
		mark := c.save()
		obj := c.operand(n.Obj)
		if n.Slot >= 0 {
			c.emit(OpGetField, dest, obj, int32(n.Slot), c.name(n.Name))
		} else {
			c.emit(OpGetFieldDyn, dest, obj, c.fieldSite(), c.name(n.Name))
		}
		c.restore(mark)

	case *ir.SetField:
		mark := c.save()
		// The store reads the object register after the value evaluates;
		// snapshot a slot-resident object the value expression may clobber.
		obj := c.captured(n.Obj, n.X)
		c.into(n.X, dest)
		if n.Slot >= 0 {
			c.emit(OpSetField, obj, dest, int32(n.Slot), c.name(n.Name))
		} else {
			c.emit(OpSetFieldDyn, obj, dest, c.fieldSite(), c.name(n.Name))
		}
		c.restore(mark)

	case *ir.Seq:
		if len(n.Nodes) == 0 {
			c.emit(OpConst, dest, c.konst(interp.NilV), 0, 0)
			return
		}
		for _, child := range n.Nodes[:len(n.Nodes)-1] {
			c.discard(child)
		}
		c.into(n.Nodes[len(n.Nodes)-1], dest)

	case *ir.If:
		br := c.cond(n.Cond, msgIf)
		c.into(n.Then, dest)
		end := c.emit(OpJump, 0, 0, 0, 0)
		c.patchSpan(br, len(c.jumps))
		if n.Else != nil {
			c.into(n.Else, dest)
		} else {
			c.emit(OpConst, dest, c.konst(interp.NilV), 0, 0)
		}
		c.patch(end)

	case *ir.While:
		c.loop(n)
		c.emit(OpConst, dest, c.konst(interp.NilV), 0, 0)

	case *ir.Return:
		if n.X != nil {
			c.into(n.X, dest)
		} else {
			c.emit(OpConst, dest, c.konst(interp.NilV), 0, 0)
		}
		if c.p.Kind == KindMethod {
			// A return lexically inside the method body targets the
			// method's own (live) activation: a direct return.
			c.emit(OpRet, dest, 0, 0, 0)
		} else {
			c.emit(OpRetNL, dest, 0, 0, 0)
		}

	case *ir.New:
		mark := c.save()
		cls := int32(len(c.p.News))
		c.p.News = append(c.p.News, NewRef{Class: n.Class})
		// The tree tier charges construction before evaluating field
		// arguments; keep that order so a guard trip lands identically.
		// B records the News index the charge belongs to (ignored by the
		// machine) so the verifier can pair each OpNew with the OpCharge
		// that accounts for it.
		c.emit(OpCharge, int32(interp.CostNewBase+len(n.Class.Fields)), cls, 0, 0)
		base := c.argWindow(n.Args)
		c.emit(OpNew, dest, cls, base, int32(len(n.Args)))
		c.restore(mark)

	case *ir.MakeClosure:
		if _, err := c.mod.closure(n.Fn); err != nil {
			c.err = err
			return
		}
		idx := int32(len(c.p.Closures))
		c.p.Closures = append(c.p.Closures, n.Fn)
		c.emit(OpMakeClosure, dest, idx, 0, 0)
		c.p.NeedsFrame = true

	case *ir.CallClosure:
		mark := c.save()
		// The call reads the closure register after the arguments
		// evaluate; snapshot a slot-resident closure they may overwrite.
		fn := c.captured(n.Fn, n.Args...)
		pos := int32(len(c.p.Poss))
		c.p.Poss = append(c.p.Poss, n.Pos)
		c.emit(OpCheckClosure, fn, int32(len(n.Args)), pos, 0)
		base := c.argWindow(n.Args)
		c.emit(OpCallClosure, dest, fn, base, pos)
		c.restore(mark)

	case *ir.Send:
		mark := c.save()
		base := c.argWindow(n.Args)
		site := int32(len(c.p.Sites))
		c.p.Sites = append(c.p.Sites, n.Site)
		c.emit(OpSend, dest, site, base, int32(len(n.Args)))
		c.restore(mark)

	case *ir.StaticCall:
		mark := c.save()
		base := c.argWindow(n.Args)
		idx := int32(len(c.p.Statics))
		c.p.Statics = append(c.p.Statics, StaticRef{Site: n.Site, Target: n.Target})
		c.emit(OpStaticCall, dest, idx, base, int32(len(n.Args)))
		c.restore(mark)

	case *ir.VersionSelect:
		mark := c.save()
		base := c.argWindow(n.Args)
		idx := int32(len(c.p.VSels))
		c.p.VSels = append(c.p.VSels, VSelRef{Site: n.Site, Method: n.Method})
		c.emit(OpVSelect, dest, idx, base, int32(len(n.Args)))
		c.restore(mark)

	case *ir.Bin:
		mark := c.save()
		// `obj.field <op> x` fuses the field read into the primitive when
		// the right operand is a constant or a depth-0 local, so the
		// observable order — object eval, field charge, bin charge — is
		// the unfused sequence exactly. An in-place slot as the right
		// operand is always safe here: both tiers read the slot after the
		// object expression has evaluated. The mirrored `x <op> obj.field`
		// shape fuses unconditionally: the left operand compiles first,
		// which is already the tree tier's evaluation order.
		if gf, ok := n.L.(*ir.GetField); ok && gf.Slot >= 0 {
			if k, isK := n.R.(*ir.Const); isK {
				obj := c.operand(gf.Obj)
				c.emit(OpFieldBinK, dest, obj, c.konst(constValue(k)), c.fieldOp(gf, n.Op))
				c.restore(mark)
				return
			}
			if l, isL := n.R.(*ir.Local); isL && l.Depth == 0 {
				obj := c.operand(gf.Obj)
				c.emit(OpFieldBin, dest, obj, int32(l.Slot), c.fieldOp(gf, n.Op))
				c.restore(mark)
				return
			}
		}
		l := c.captured(n.L, n.R)
		if k, ok := n.R.(*ir.Const); ok {
			c.emit(OpBinK, dest, l, c.konst(constValue(k)), int32(n.Op))
		} else if gf, ok := n.R.(*ir.GetField); ok && gf.Slot >= 0 {
			obj := c.operand(gf.Obj)
			c.emit(OpBinField, dest, obj, l, c.fieldOp(gf, n.Op))
		} else {
			r := c.operand(n.R)
			c.emit(OpBin, dest, l, r, int32(n.Op))
		}
		c.restore(mark)

	case *ir.Un:
		mark := c.save()
		x := c.operand(n.X)
		if n.Op == ir.OpNot {
			c.emit(OpNot, dest, x, 0, 0)
		} else {
			c.emit(OpNeg, dest, x, 0, 0)
		}
		c.restore(mark)

	case *ir.PrimCall:
		mark := c.save()
		switch {
		case n.Prim == ir.PrimAGet && len(n.Args) == 2:
			gf, isField := n.Args[0].(*ir.GetField)
			slot, isLocal := n.Args[1].(*ir.Local)
			if isField && gf.Slot >= 0 && isLocal && slot.Depth == 0 {
				// aget(obj.field, i): the index slot is read after the
				// object expression, exactly when the tree tier reads it.
				obj := c.operand(gf.Obj)
				c.emit(OpAGetField, dest, obj, int32(slot.Slot), c.fieldOp(gf, 0))
				break
			}
			a := c.captured(n.Args[0], n.Args[1])
			ix := c.captured(n.Args[1])
			c.emit(OpAGet, dest, a, ix, 0)
		case n.Prim == ir.PrimAPut && len(n.Args) == 3:
			a := c.captured(n.Args[0], n.Args[1], n.Args[2])
			ix := c.captured(n.Args[1], n.Args[2])
			v := c.captured(n.Args[2])
			c.emit(OpAPut, dest, a, ix, v)
		default:
			base := c.argWindow(n.Args)
			c.emit(OpPrim, dest, int32(n.Prim), base, int32(len(n.Args)))
		}
		c.restore(mark)

	case *ir.And:
		// Evaluate the left operand into a temp (never dest: the right
		// operand may still read dest's register, e.g. `b := b && e`).
		mark := c.save()
		l := c.operand(n.L)
		br := c.emit(OpBranch, l, 0, msgAnd, int32(branchMode(false, false, interp.CostBin, interp.CostBin)))
		c.restore(mark)
		c.into(n.R, dest)
		c.emit(OpCheckBool, dest, 0, msgAnd, 0)
		end := c.emit(OpJump, 0, 0, 0, 0)
		c.patch(br)
		c.emit(OpConst, dest, c.konst(interp.FalseV), 0, 0)
		c.patch(end)

	case *ir.Or:
		mark := c.save()
		l := c.operand(n.L)
		br := c.emit(OpBranch, l, 0, msgOr, int32(branchMode(false, false, interp.CostBin, interp.CostBin)))
		c.restore(mark)
		// Left was true: result is TrueV.
		c.emit(OpConst, dest, c.konst(interp.TrueV), 0, 0)
		end := c.emit(OpJump, 0, 0, 0, 0)
		c.patch(br)
		c.into(n.R, dest)
		c.emit(OpCheckBool, dest, 0, msgOr, 0)
		c.patch(end)

	default:
		// Unreachable for today's IR: TestEveryNodeTypeCompiles covers
		// every node type.
		c.err = fmt.Errorf("internal error: unknown IR node %T", n)
	}
}
