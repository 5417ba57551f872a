package opt

import (
	"fmt"

	"selspec/internal/bits"
	"selspec/internal/hier"
	"selspec/internal/ir"
)

// info is the intraprocedural class-analysis lattice value for one
// expression or frame slot: either Top (any class) or a finite set of
// possible classes. It additionally tracks, for copy propagation, a
// closure literal known to be the slot's current value.
type info struct {
	top     bool
	set     *bits.Set
	closure *ir.MakeClosure // non-nil: value is definitely this literal
}

func topInfo() info { return info{top: true} }

func setInfo(s *bits.Set) info { return info{set: s} }

func exactInfo(h *hier.Hierarchy, c *hier.Class) info {
	s := bits.New(h.NumClasses())
	s.Add(c.ID)
	return info{set: s}
}

// join computes the lattice join of two infos.
func join(a, b info) info {
	if a.top || b.top {
		return topInfo()
	}
	out := info{set: bits.Union(a.set, b.set)}
	if a.closure != nil && a.closure == b.closure {
		out.closure = a.closure
	}
	return out
}

// aframe is the analysis state of one lexical frame.
type aframe struct {
	infos    []info
	size     int          // current frame size (grows as slots are inlined in)
	poisoned map[int]bool // slots writable by escaped closures: always Top
	isMethod bool
}

func newAFrame(size int, isMethod bool) *aframe {
	f := &aframe{infos: make([]info, size), size: size, poisoned: map[int]bool{}, isMethod: isMethod}
	for i := range f.infos {
		f.infos[i] = topInfo()
	}
	return f
}

func (f *aframe) get(slot int) info {
	if f.poisoned[slot] || slot >= len(f.infos) {
		return topInfo()
	}
	return f.infos[slot]
}

func (f *aframe) set(slot int, in info) {
	for slot >= len(f.infos) {
		f.infos = append(f.infos, topInfo())
	}
	if f.poisoned[slot] {
		return
	}
	f.infos[slot] = in
}

func (f *aframe) snapshot() []info {
	out := make([]info, len(f.infos))
	copy(out, f.infos)
	return out
}

func (f *aframe) restore(s []info) {
	f.infos = f.infos[:0]
	f.infos = append(f.infos, s...)
}

// analyzer performs the combined class-analysis / static-binding /
// inlining / folding pass over one compiled body.
type analyzer struct {
	c           *Compiled
	h           *hier.Hierarchy
	version     *ir.Version // nil for top-level (global/field) code
	frames      []*aframe   // frames[0] is the method frame
	inlineStack []*hier.Method
	depth       int

	// retJoin accumulates the class info of every Return in the
	// version's own body (ReturnTypeAnalysis); the body's final value
	// info joins in at the end.
	retJoin    info
	retTracked bool
}

// EnsureBody compiles the body of a version if it has not been compiled
// yet (the lazy-compilation entry point; eager compilation calls it for
// every version up front).
func (c *Compiled) EnsureBody(v *ir.Version) error {
	// Note: the body is built outside the lock because optimization may
	// itself take the lock (Cust-MM lazily defines versions for
	// statically-bound calls it discovers).
	c.mu.Lock()
	if v.Body != nil {
		c.mu.Unlock()
		return nil
	}
	src := c.Prog.Bodies[v.Method]
	if src == nil {
		c.mu.Unlock()
		return fmt.Errorf("opt: no source body for %s", v.Method.Name())
	}
	if c.Opts.Lazy {
		c.lazyCompiles.Add(1)
	}
	c.mu.Unlock()
	if c.Opts.ReturnTypeAnalysis {
		c.mu.Lock()
		c.retInProgress[v] = true
		c.mu.Unlock()
	}

	a := &analyzer{c: c, h: c.Prog.H, version: v}
	a.retJoin = info{set: bits.New(c.Prog.H.NumClasses())} // bottom
	f := newAFrame(src.NumSlots, true)
	for i, in := range c.formalInfos(v) {
		f.infos[i] = in
	}
	a.frames = []*aframe{f}

	body := ir.Clone(src.Code)
	a.poisonClosureWrites(body)
	a.retTracked = true
	body, bodyInfo := a.optimize(body)
	body = a.eliminateDead(body)
	ret := join(a.retJoin, bodyInfo)
	ret.closure = nil
	size := ir.Size(body)
	c.mu.Lock()
	if v.Body == nil { // another goroutine may have raced us; first wins
		v.NumSlots = f.size
		v.Body = body
		c.compiledBodies++
		c.irNodes += size
	}
	if c.Opts.ReturnTypeAnalysis {
		c.retInfo[v] = ret
		delete(c.retInProgress, v)
	}
	c.mu.Unlock()
	return nil
}

// returnInfoOf computes (compiling the callee if necessary) the class
// info of a version's return value. Recursive cycles degrade to Top.
func (c *Compiled) returnInfoOf(v *ir.Version) info {
	if !c.Opts.ReturnTypeAnalysis {
		return topInfo()
	}
	c.mu.Lock()
	if c.retInProgress[v] {
		c.mu.Unlock()
		return topInfo()
	}
	if ri, ok := c.retInfo[v]; ok {
		c.mu.Unlock()
		return ri
	}
	c.mu.Unlock()
	if err := c.EnsureBody(v); err != nil {
		return topInfo()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ri, ok := c.retInfo[v]; ok {
		return ri
	}
	return topInfo()
}

// Body returns the compiled body of a version, compiling lazily.
func (c *Compiled) Body(v *ir.Version) (ir.Node, error) {
	if v.Body == nil {
		if err := c.EnsureBody(v); err != nil {
			return nil, err
		}
	}
	return v.Body, nil
}

// optimizeTopLevel compiles a global or field initializer.
func (c *Compiled) optimizeTopLevel(n ir.Node) (ir.Node, error) {
	a := &analyzer{c: c, h: c.Prog.H}
	body := ir.Clone(n)
	out, _ := a.optimize(body)
	return out, nil
}

// InstantiatedClasses collects every class the program can create: New
// nodes anywhere in source bodies, field initializers or global
// initializers, plus the builtin classes (whose values primitives and
// literals create). This is the instantiation (RTA-style) analysis the
// InstantiationAnalysis option compiles against (and so SendArgSets,
// which internal/check reads); internal/check also uses it directly to
// bound the class universe and to find useless specializations.
func InstantiatedClasses(p *ir.Program) *bits.Set {
	h := p.H
	set := bits.New(h.NumClasses())
	for _, n := range []string{hier.AnyName, hier.IntName, hier.BoolName,
		hier.StringName, hier.NilName, hier.ArrayName, hier.ClosureName} {
		set.Add(h.Builtin(n).ID)
	}
	collect := func(body ir.Node) {
		ir.Walk(body, func(n ir.Node) bool {
			if nn, ok := n.(*ir.New); ok {
				set.Add(nn.Class.ID)
			}
			return true
		})
	}
	for _, b := range p.Bodies {
		collect(b.Code)
	}
	for _, g := range p.Globals {
		collect(g.Init)
	}
	for _, inits := range p.FieldInits {
		for _, init := range inits {
			if init != nil {
				collect(init)
			}
		}
	}
	return set
}

// computeInstantiated caches the instantiation analysis for this
// compilation.
func (c *Compiled) computeInstantiated() {
	c.instantiated = InstantiatedClasses(c.Prog)
}

// liveOnly intersects an analysis class set with the instantiated set
// when instantiation analysis is enabled.
func (c *Compiled) liveOnly(s *bits.Set) *bits.Set {
	if c.instantiated == nil {
		return s
	}
	return bits.Intersect(s, c.instantiated)
}

// computeGlobalInfos derives constant class information for globals
// that are never assigned after initialization — the paper's Base
// configuration already includes constant propagation, so every
// configuration gets this. Reading a global before its initializer has
// run is a runtime error, which makes the derivation sound.
func (c *Compiled) computeGlobalInfos() {
	n := len(c.Prog.Globals)
	c.globalInfos = make([]info, n)
	for i := range c.globalInfos {
		c.globalInfos[i] = topInfo()
	}
	for i, g := range c.Prog.Globals {
		if c.Prog.GlobalAssigned[i] {
			continue
		}
		c.globalInfos[i] = c.initInfo(g.Init, i)
	}
}

// initInfo computes the class info of a global initializer expression
// structurally; only earlier globals' infos may be consulted.
func (c *Compiled) initInfo(nd ir.Node, before int) info {
	h := c.Prog.H
	switch nd := nd.(type) {
	case *ir.Const:
		switch nd.Kind {
		case ir.KInt:
			return exactInfo(h, h.Builtin(hier.IntName))
		case ir.KStr:
			return exactInfo(h, h.Builtin(hier.StringName))
		case ir.KBool:
			return exactInfo(h, h.Builtin(hier.BoolName))
		default:
			return exactInfo(h, h.Builtin(hier.NilName))
		}
	case *ir.New:
		return exactInfo(h, nd.Class)
	case *ir.MakeClosure:
		return exactInfo(h, h.Builtin(hier.ClosureName))
	case *ir.Global:
		if nd.Slot < before && !c.Prog.GlobalAssigned[nd.Slot] {
			return c.initInfo(c.Prog.Globals[nd.Slot].Init, nd.Slot)
		}
		return topInfo()
	default:
		return topInfo()
	}
}

// formalInfos computes the analysis information for the formals of a
// version. Base sees nothing; Cust/Cust-MM see exact singleton classes
// at customized positions; CHA/Selective see the version's class sets
// (class hierarchy analysis).
func (c *Compiled) formalInfos(v *ir.Version) []info {
	out := make([]info, len(v.Tuple))
	for i, s := range v.Tuple {
		switch c.Opts.Config {
		case Base:
			out[i] = topInfo()
		case Cust, CustMM:
			if s.Len() == 1 {
				out[i] = setInfo(s.Clone())
			} else {
				out[i] = topInfo()
			}
		case CHA, Selective:
			out[i] = setInfo(c.liveOnly(s))
		}
	}
	return out
}

// curFrame returns the innermost frame, or nil in top-level code.
func (a *analyzer) curFrame() *aframe {
	if len(a.frames) == 0 {
		return nil
	}
	return a.frames[len(a.frames)-1]
}

func (a *analyzer) frameAt(depth int) *aframe {
	idx := len(a.frames) - 1 - depth
	if idx < 0 || idx >= len(a.frames) {
		return nil
	}
	return a.frames[idx]
}

// newSlot allocates a fresh slot in the current frame (for inlining).
func (a *analyzer) newSlot() int {
	f := a.curFrame()
	slot := f.size
	f.size++
	f.set(slot, topInfo())
	return slot
}

// poisonClosureWrites marks, in every frame, the slots that closures in
// the tree can write: such slots must be treated as Top everywhere,
// because a closure may run at any later point.
func (a *analyzer) poisonClosureWrites(n ir.Node) {
	if len(a.frames) == 0 {
		return
	}
	var walk func(n ir.Node, nesting int)
	walk = func(n ir.Node, nesting int) {
		ir.Walk(n, func(ch ir.Node) bool {
			switch ch := ch.(type) {
			case *ir.MakeClosure:
				walk(ch.Fn.Body, nesting+1)
				return false
			case *ir.SetLocal:
				if nesting > 0 && ch.Depth >= nesting {
					// Writes a frame at or outside the creation context.
					hops := ch.Depth - nesting // 0 = innermost analyzer frame
					if f := a.frameAt(hops); f != nil {
						f.poisoned[ch.Slot] = true
					}
				}
			}
			return true
		})
	}
	walk(n, 0)
}

// degradeAssigned widens every current-frame slot assigned inside the
// node (including inside closures) before analyzing a loop: the slot's
// entry info becomes the join of its pre-loop info with a syntactic,
// state-independent upper bound of each assigned right-hand side
// (quickInfo). Loop counters like "i := i - 1" therefore stay {Int}
// instead of collapsing to Top — which is what lets sends dispatched
// on Int positions still bind inside loops.
func (a *analyzer) degradeAssigned(n ir.Node) {
	f := a.curFrame()
	var walk func(n ir.Node, nesting int)
	walk = func(n ir.Node, nesting int) {
		ir.Walk(n, func(ch ir.Node) bool {
			switch ch := ch.(type) {
			case *ir.MakeClosure:
				walk(ch.Fn.Body, nesting+1)
				return false
			case *ir.SetLocal:
				if ch.Depth == nesting {
					if nesting == 0 {
						f.set(ch.Slot, join(f.get(ch.Slot), a.quickInfo(ch.X)))
					} else {
						f.set(ch.Slot, topInfo())
					}
				}
			}
			return true
		})
	}
	walk(n, 0)
}

// quickInfo bounds the class info of an expression without consulting
// any analysis state (so the bound holds at every loop iteration).
func (a *analyzer) quickInfo(n ir.Node) info {
	h := a.h
	switch n := n.(type) {
	case *ir.Const:
		switch n.Kind {
		case ir.KInt:
			return exactInfo(h, h.Builtin(hier.IntName))
		case ir.KStr:
			return exactInfo(h, h.Builtin(hier.StringName))
		case ir.KBool:
			return exactInfo(h, h.Builtin(hier.BoolName))
		default:
			return exactInfo(h, h.Builtin(hier.NilName))
		}
	case *ir.New:
		return exactInfo(h, n.Class)
	case *ir.MakeClosure:
		return exactInfo(h, h.Builtin(hier.ClosureName))
	case *ir.Bin:
		switch n.Op {
		case ir.OpLT, ir.OpLE, ir.OpGT, ir.OpGE, ir.OpEQ, ir.OpNE:
			return exactInfo(h, h.Builtin(hier.BoolName))
		case ir.OpAdd:
			// + is Int+Int or String+String: the result can only be Int
			// if both operands can be Int, only String if both can be
			// String ("i := i + 1" therefore stays {Int}).
			li, ri := a.quickInfo(n.L), a.quickInfo(n.R)
			intC := h.Builtin(hier.IntName)
			strC := h.Builtin(hier.StringName)
			canBe := func(in info, c *hier.Class) bool { return in.top || in.set.Has(c.ID) }
			s := bits.New(h.NumClasses())
			if canBe(li, intC) && canBe(ri, intC) {
				s.Add(intC.ID)
			}
			if canBe(li, strC) && canBe(ri, strC) {
				s.Add(strC.ID)
			}
			if s.Empty() {
				s.Add(intC.ID) // mismatched operands error at runtime
			}
			return setInfo(s)
		default:
			return exactInfo(h, h.Builtin(hier.IntName))
		}
	case *ir.Un:
		if n.Op == ir.OpNot {
			return exactInfo(h, h.Builtin(hier.BoolName))
		}
		return exactInfo(h, h.Builtin(hier.IntName))
	case *ir.And, *ir.Or:
		return exactInfo(h, h.Builtin(hier.BoolName))
	case *ir.PrimCall:
		return a.primInfo(n.Prim)
	case *ir.Seq:
		if len(n.Nodes) == 0 {
			return exactInfo(h, h.Builtin(hier.NilName))
		}
		return a.quickInfo(n.Nodes[len(n.Nodes)-1])
	case *ir.SetLocal:
		return a.quickInfo(n.X)
	case *ir.If:
		ti := a.quickInfo(n.Then)
		if n.Else == nil {
			return join(ti, exactInfo(h, h.Builtin(hier.NilName)))
		}
		return join(ti, a.quickInfo(n.Else))
	default:
		return topInfo()
	}
}

// optimize rewrites a node in place (or replaces it) and returns the
// class information of its value.
func (a *analyzer) optimize(n ir.Node) (ir.Node, info) {
	h := a.h
	switch n := n.(type) {
	case *ir.Const:
		switch n.Kind {
		case ir.KInt:
			return n, exactInfo(h, h.Builtin(hier.IntName))
		case ir.KStr:
			return n, exactInfo(h, h.Builtin(hier.StringName))
		case ir.KBool:
			return n, exactInfo(h, h.Builtin(hier.BoolName))
		default:
			return n, exactInfo(h, h.Builtin(hier.NilName))
		}

	case *ir.Local:
		if f := a.frameAt(n.Depth); f != nil {
			in := f.get(n.Slot)
			if n.Depth > 0 {
				// Cross-frame closure propagation is unsound (the outer
				// slot may change between creation and call).
				in.closure = nil
			}
			return n, in
		}
		return n, topInfo()

	case *ir.SetLocal:
		x, xi := a.optimize(n.X)
		n.X = x
		if f := a.frameAt(n.Depth); f != nil {
			if n.Depth == 0 {
				f.set(n.Slot, xi)
			} else {
				// Writing an outer slot: its analysis there is already
				// degraded (poisoned) if reachable via a closure.
				f.set(n.Slot, topInfo())
			}
		}
		return n, xi

	case *ir.Global:
		return n, a.c.globalInfos[n.Slot]

	case *ir.SetGlobal:
		x, xi := a.optimize(n.X)
		n.X = x
		return n, xi

	case *ir.GetField:
		obj, oi := a.optimize(n.Obj)
		n.Obj = obj
		a.resolveFieldSlot(&n.Slot, n.Name, oi)
		return n, a.fieldInfo(n.Name, oi)

	case *ir.SetField:
		obj, oi := a.optimize(n.Obj)
		n.Obj = obj
		x, xi := a.optimize(n.X)
		n.X = x
		a.resolveFieldSlot(&n.Slot, n.Name, oi)
		xi.closure = nil
		return n, xi

	case *ir.Seq:
		var last info
		for i, ch := range n.Nodes {
			n.Nodes[i], last = a.optimize(ch)
		}
		if len(n.Nodes) == 0 {
			return n, exactInfo(h, h.Builtin(hier.NilName))
		}
		if len(n.Nodes) == 1 {
			return n.Nodes[0], last
		}
		return n, last

	case *ir.If:
		cond, _ := a.optimize(n.Cond)
		n.Cond = cond
		// Constant-fold a known condition (dead-code elimination; this
		// is also what removes never-taken branches after inlining).
		if cb, ok := cond.(*ir.Const); ok && cb.Kind == ir.KBool {
			branch := n.Then
			if !cb.Bool {
				branch = n.Else
			}
			if branch == nil {
				return &ir.Const{Kind: ir.KNil}, exactInfo(h, h.Builtin(hier.NilName))
			}
			return a.optimize(branch)
		}
		f := a.curFrame()
		var pre, post []info
		if f != nil {
			pre = f.snapshot()
		}
		then, ti := a.optimize(n.Then)
		n.Then = then
		if f != nil {
			post = f.snapshot()
			f.restore(pre)
		}
		var ei info = exactInfo(h, h.Builtin(hier.NilName))
		if n.Else != nil {
			var els ir.Node
			els, ei = a.optimize(n.Else)
			n.Else = els
		}
		if f != nil {
			// Join the branch states.
			for i := range f.infos {
				other := topInfo()
				if i < len(post) {
					other = post[i]
				}
				f.infos[i] = join(f.infos[i], other)
			}
		}
		return n, join(ti, ei)

	case *ir.While:
		a.degradeAssigned(n)
		cond, _ := a.optimize(n.Cond)
		n.Cond = cond
		body, _ := a.optimize(n.Body)
		n.Body = body
		return n, exactInfo(h, h.Builtin(hier.NilName))

	case *ir.Return:
		var xi info
		if n.X != nil {
			var x ir.Node
			x, xi = a.optimize(n.X)
			n.X = x
		} else {
			xi = exactInfo(a.h, a.h.Builtin(hier.NilName))
		}
		if a.retTracked {
			a.retJoin = join(a.retJoin, xi)
		}
		// Control never continues past a return: its "value" is bottom,
		// which is the identity of join (keeps enclosing joins precise).
		return n, info{set: bits.New(a.h.NumClasses())}

	case *ir.New:
		for i, arg := range n.Args {
			n.Args[i], _ = a.optimize(arg)
		}
		return n, exactInfo(h, n.Class)

	case *ir.MakeClosure:
		a.optimizeClosureBody(n.Fn)
		in := exactInfo(h, h.Builtin(hier.ClosureName))
		in.closure = n
		return n, in

	case *ir.CallClosure:
		return a.optimizeCallClosure(n)

	case *ir.Send:
		return a.optimizeSend(n)

	case *ir.StaticCall:
		for i, arg := range n.Args {
			n.Args[i], _ = a.optimize(arg)
		}
		return n, topInfo()

	case *ir.VersionSelect:
		for i, arg := range n.Args {
			n.Args[i], _ = a.optimize(arg)
		}
		return n, topInfo()

	case *ir.Bin:
		return a.optimizeBin(n)

	case *ir.Un:
		x, _ := a.optimize(n.X)
		n.X = x
		if c, ok := x.(*ir.Const); ok {
			switch {
			case n.Op == ir.OpNot && c.Kind == ir.KBool:
				return &ir.Const{Kind: ir.KBool, Bool: !c.Bool}, exactInfo(h, h.Builtin(hier.BoolName))
			case n.Op == ir.OpNeg && c.Kind == ir.KInt:
				return &ir.Const{Kind: ir.KInt, Int: -c.Int}, exactInfo(h, h.Builtin(hier.IntName))
			}
		}
		if n.Op == ir.OpNot {
			return n, exactInfo(h, h.Builtin(hier.BoolName))
		}
		return n, exactInfo(h, h.Builtin(hier.IntName))

	case *ir.PrimCall:
		for i, arg := range n.Args {
			n.Args[i], _ = a.optimize(arg)
		}
		return n, a.primInfo(n.Prim)

	case *ir.And:
		l, _ := a.optimize(n.L)
		n.L = l
		f := a.curFrame()
		var pre []info
		if f != nil {
			pre = f.snapshot()
		}
		r, _ := a.optimize(n.R)
		n.R = r
		if f != nil {
			// R may not execute; join with the pre-state. Slots that R's
			// inlining allocated (beyond len(pre)) are R-local temps and
			// keep their info.
			for i := range f.infos {
				if i < len(pre) {
					f.infos[i] = join(f.infos[i], pre[i])
				}
			}
		}
		if lc, ok := l.(*ir.Const); ok && lc.Kind == ir.KBool {
			if !lc.Bool {
				return &ir.Const{Kind: ir.KBool, Bool: false}, exactInfo(h, h.Builtin(hier.BoolName))
			}
			return r, exactInfo(h, h.Builtin(hier.BoolName))
		}
		return n, exactInfo(h, h.Builtin(hier.BoolName))

	case *ir.Or:
		l, _ := a.optimize(n.L)
		n.L = l
		f := a.curFrame()
		var pre []info
		if f != nil {
			pre = f.snapshot()
		}
		r, _ := a.optimize(n.R)
		n.R = r
		if f != nil {
			for i := range f.infos {
				if i < len(pre) {
					f.infos[i] = join(f.infos[i], pre[i])
				}
			}
		}
		if lc, ok := l.(*ir.Const); ok && lc.Kind == ir.KBool {
			if lc.Bool {
				return &ir.Const{Kind: ir.KBool, Bool: true}, exactInfo(h, h.Builtin(hier.BoolName))
			}
			return r, exactInfo(h, h.Builtin(hier.BoolName))
		}
		return n, exactInfo(h, h.Builtin(hier.BoolName))
	}
	panic(fmt.Sprintf("opt: unknown node %T", n))
}

func (a *analyzer) primInfo(p ir.Prim) info {
	h := a.h
	switch p {
	case ir.PrimStr, ir.PrimSubstr, ir.PrimCharAt, ir.PrimChr, ir.PrimClassName:
		return exactInfo(h, h.Builtin(hier.StringName))
	case ir.PrimNewArray:
		return exactInfo(h, h.Builtin(hier.ArrayName))
	case ir.PrimALen, ir.PrimStrLen, ir.PrimOrd:
		return exactInfo(h, h.Builtin(hier.IntName))
	case ir.PrimSame:
		return exactInfo(h, h.Builtin(hier.BoolName))
	case ir.PrimPrint, ir.PrimPrintln, ir.PrimAbort:
		return exactInfo(h, h.Builtin(hier.NilName))
	default: // aget, aput: element type unknown
		return topInfo()
	}
}

func (a *analyzer) optimizeBin(n *ir.Bin) (ir.Node, info) {
	h := a.h
	l, li := a.optimize(n.L)
	n.L = l
	r, ri := a.optimize(n.R)
	n.R = r

	// Constant folding for integer operands.
	if lc, lok := l.(*ir.Const); lok {
		if rc, rok := r.(*ir.Const); rok && lc.Kind == ir.KInt && rc.Kind == ir.KInt {
			if folded, ok := foldIntBin(n.Op, lc.Int, rc.Int); ok {
				return folded, a.constInfo(folded)
			}
		}
	}

	switch n.Op {
	case ir.OpLT, ir.OpLE, ir.OpGT, ir.OpGE, ir.OpEQ, ir.OpNE:
		return n, exactInfo(h, h.Builtin(hier.BoolName))
	case ir.OpAdd:
		// + is Int+Int or String+String.
		intCls, strCls := h.Builtin(hier.IntName), h.Builtin(hier.StringName)
		onlyInt := !li.top && li.set.SubsetOf(intCls.Cone()) && !ri.top && ri.set.SubsetOf(intCls.Cone())
		onlyStr := !li.top && li.set.SubsetOf(strCls.Cone()) && !ri.top && ri.set.SubsetOf(strCls.Cone())
		switch {
		case onlyInt:
			return n, exactInfo(h, intCls)
		case onlyStr:
			return n, exactInfo(h, strCls)
		default:
			s := bits.New(h.NumClasses())
			s.Add(intCls.ID)
			s.Add(strCls.ID)
			return n, setInfo(s)
		}
	default:
		return n, exactInfo(h, h.Builtin(hier.IntName))
	}
}

func (a *analyzer) constInfo(n ir.Node) info {
	c := n.(*ir.Const)
	switch c.Kind {
	case ir.KInt:
		return exactInfo(a.h, a.h.Builtin(hier.IntName))
	case ir.KBool:
		return exactInfo(a.h, a.h.Builtin(hier.BoolName))
	case ir.KStr:
		return exactInfo(a.h, a.h.Builtin(hier.StringName))
	default:
		return exactInfo(a.h, a.h.Builtin(hier.NilName))
	}
}

func foldIntBin(op ir.BinOp, l, r int64) (ir.Node, bool) {
	b := func(v bool) (ir.Node, bool) { return &ir.Const{Kind: ir.KBool, Bool: v}, true }
	i := func(v int64) (ir.Node, bool) { return &ir.Const{Kind: ir.KInt, Int: v}, true }
	switch op {
	case ir.OpAdd:
		return i(l + r)
	case ir.OpSub:
		return i(l - r)
	case ir.OpMul:
		return i(l * r)
	case ir.OpDiv:
		if r == 0 {
			return nil, false // preserve the runtime error
		}
		return i(l / r)
	case ir.OpMod:
		if r == 0 {
			return nil, false
		}
		return i(l % r)
	case ir.OpLT:
		return b(l < r)
	case ir.OpLE:
		return b(l <= r)
	case ir.OpGT:
		return b(l > r)
	case ir.OpGE:
		return b(l >= r)
	case ir.OpEQ:
		return b(l == r)
	case ir.OpNE:
		return b(l != r)
	}
	return nil, false
}

// fieldInfo computes the class information of a field read from the
// declared field types (enforced at every store), available only to
// the configurations that perform class hierarchy analysis. With an
// unknown receiver it unions over every class declaring the field,
// which is still sound because stores are checked per declaring class.
func (a *analyzer) fieldInfo(name string, oi info) info {
	if a.c.Opts.Config != CHA && a.c.Opts.Config != Selective {
		return topInfo()
	}
	out := bits.New(a.h.NumClasses())
	consider := func(c *hier.Class) bool {
		idx := c.FieldIndex(name)
		if idx < 0 {
			return true // read would fail at runtime: contributes no value
		}
		dt := c.Fields[idx].DeclType
		if dt == nil {
			return false // untyped field: anything
		}
		out.AddAll(dt.Cone())
		return true
	}
	if oi.top {
		for _, c := range a.h.Classes() {
			if !consider(c) {
				return topInfo()
			}
		}
		return setInfo(a.c.liveOnly(out))
	}
	ok := true
	oi.set.ForEach(func(id int) bool {
		ok = consider(a.h.Classes()[id])
		return ok
	})
	if !ok {
		return topInfo()
	}
	return setInfo(a.c.liveOnly(out))
}

// resolveFieldSlot fills *slot when every possible class of the object
// agrees on the field's index (customization's classic win).
func (a *analyzer) resolveFieldSlot(slot *int, name string, oi info) {
	if oi.top || oi.set.Empty() {
		return
	}
	resolved := -1
	ok := true
	oi.set.ForEach(func(id int) bool {
		idx := a.h.Classes()[id].FieldIndex(name)
		if idx < 0 || (resolved >= 0 && idx != resolved) {
			ok = false
			return false
		}
		resolved = idx
		return true
	})
	if ok && resolved >= 0 {
		*slot = resolved
	}
}

// optimizeClosureBody analyzes a (non-inlined) closure body. Outer
// frames are visible only in a guarded form: every slot is Top except
// the enclosing method's never-assigned formals, whose class sets are
// stable for the whole activation.
func (a *analyzer) optimizeClosureBody(code *ir.ClosureCode) {
	saved := a.frames
	guarded := make([]*aframe, len(saved))
	for i, f := range saved {
		g := newAFrame(f.size, f.isMethod)
		if i == 0 && f.isMethod && a.version != nil {
			src := a.c.Prog.Bodies[a.version.Method]
			for slot := 0; slot < len(src.AssignedFormals) && slot < len(f.infos); slot++ {
				if !src.AssignedFormals[slot] && !f.poisoned[slot] {
					g.infos[slot] = f.infos[slot]
					g.infos[slot].closure = nil
				}
			}
		}
		guarded[i] = g
	}
	cf := newAFrame(code.NumSlots, false)
	a.frames = append(guarded, cf)
	a.poisonClosureWrites(code.Body)
	body, _ := a.optimize(code.Body)
	code.Body = body
	code.NumSlots = cf.size
	a.frames = saved
}

// optimizeCallClosure inlines closure calls whose callee is a known
// closure literal created in the current frame (directly or via copy
// propagation through an unassigned local) — the paper's closure
// elimination: "the closure argument to do must be created at run-time
// and invoked as a separate procedure for each iteration" unless
// inlining removes it.
func (a *analyzer) optimizeCallClosure(n *ir.CallClosure) (ir.Node, info) {
	fn, fi := a.optimize(n.Fn)
	n.Fn = fn
	mc := fi.closure
	if mc != nil &&
		len(a.frames) > 0 && // top-level code has no frame to host the slots
		len(n.Args) == mc.Fn.NumParams &&
		a.depth < a.c.Opts.maxInlineDepth() &&
		!a.c.Opts.DisableInlining &&
		ir.Size(mc.Fn.Body) <= 8*a.c.Opts.inlineThreshold() {
		return a.inlineClosure(mc.Fn, n.Args)
	}
	for i, arg := range n.Args {
		n.Args[i], _ = a.optimize(arg)
	}
	return n, topInfo()
}

// optimizeSend performs static binding, compile-time version selection,
// and inlining for one message send.
func (a *analyzer) optimizeSend(n *ir.Send) (ir.Node, info) {
	infos := make([]info, len(n.Args))
	for i, arg := range n.Args {
		n.Args[i], infos[i] = a.optimize(arg)
	}
	g := n.Site.GF
	if a.c.sendArgs != nil {
		// Each site is analyzed once (inlining is off), so concurrent
		// body compiles write distinct entries.
		sets := make([]*bits.Set, len(infos))
		for i, in := range infos {
			if !in.top {
				sets[i] = in.set
			}
		}
		a.c.sendArgs[n.Site.ID] = sets
	}

	target, ok := a.uniqueTarget(g, infos)
	if !ok {
		return n, topInfo()
	}
	a.c.staticBound.Add(1)

	v, exact := a.c.selectVersionStatic(target, infos)
	if !exact {
		a.c.versionSelects.Add(1)
		return &ir.VersionSelect{Method: target, Site: n.Site, Args: n.Args}, topInfo()
	}

	if a.canInline(target) {
		a.c.inlinedCalls.Add(1)
		return a.inlineMethod(target, n.Args, infos)
	}
	return &ir.StaticCall{Target: v, Site: n.Site, Args: n.Args}, a.c.returnInfoOf(v)
}

// bindProductLimit bounds the product enumeration used to prove a
// unique dispatch target at a call site.
const bindProductLimit = 1024

// uniqueTarget reports the single method every possible argument class
// tuple dispatches to, if one exists and no tuple errors.
func (a *analyzer) uniqueTarget(g *hier.GF, infos []info) (*hier.Method, bool) {
	h := a.h
	dpos := g.DispatchedPositions()
	if len(dpos) == 0 {
		if len(g.Methods) == 1 {
			return g.Methods[0], true
		}
		return nil, false
	}
	size := 1
	for _, p := range dpos {
		if infos[p].top {
			return nil, false
		}
		n := infos[p].set.Len()
		if n == 0 {
			return nil, false // dead code; leave the send alone
		}
		size *= n
		if size > bindProductLimit {
			return nil, false
		}
	}

	classes := make([]*hier.Class, g.Arity)
	for i := range classes {
		classes[i] = h.Any()
	}
	elems := make([][]int, len(dpos))
	for i, p := range dpos {
		elems[i] = infos[p].set.Elems()
	}
	idx := make([]int, len(dpos))
	var target *hier.Method
	for {
		for i, p := range dpos {
			classes[p] = h.Classes()[elems[i][idx[i]]]
		}
		m, err := h.Lookup(g, classes...)
		if err != nil || (target != nil && m != target) {
			return nil, false
		}
		target = m
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(elems[k]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}
	return target, target != nil
}

// selectVersionStatic decides, at compile time, which version of m a
// statically-bound call invokes. It returns (version, true) when one
// version covers every possible argument tuple, and (nil, false) when
// the choice must be deferred to run time (VersionSelect).
func (c *Compiled) selectVersionStatic(m *hier.Method, infos []info) (*ir.Version, bool) {
	mv := c.versions[m]
	switch c.Opts.Config {
	case Base, CHA:
		return mv.list[0], true

	case Cust:
		p := receiverPos(m.GF)
		if p < 0 {
			return mv.list[0], true
		}
		if infos[p].top || infos[p].set.Len() != 1 {
			return nil, false
		}
		var buf [4]byte
		if v, ok := mv.byKey[string(appendClassID(buf[:0], infos[p].set.Min()))]; ok {
			return v, true
		}
		return c.General(m), true

	case CustMM:
		positions := m.GF.DispatchedPositions()
		classes := make([]*hier.Class, len(infos))
		for i := range classes {
			classes[i] = c.Prog.H.Any()
		}
		for _, p := range positions {
			if infos[p].top || infos[p].set.Len() != 1 {
				return nil, false
			}
			classes[p] = c.Prog.H.Classes()[infos[p].set.Min()]
		}
		return c.SelectVersion(m, classes), true

	case Selective:
		// U[i] = possible classes at position i, bounded by the cone of
		// the specializer (every dispatching tuple lies inside it).
		gen := c.Prog.H.GeneralTuple(m)
		u := make(hier.Tuple, len(infos))
		for i := range infos {
			if infos[i].top {
				u[i] = gen[i]
			} else {
				u[i] = bits.Intersect(infos[i].set, gen[i])
			}
		}
		var candidates []*ir.Version
		for _, v := range mv.list {
			if v.Tuple.Intersects(u) {
				candidates = append(candidates, v)
			}
		}
		if len(candidates) == 0 {
			return c.General(m), true
		}
		best := candidates[0]
		for _, v := range candidates[1:] {
			if v.Tuple.SubsetOf(best.Tuple) {
				best = v
			}
		}
		for _, v := range candidates {
			if !best.Tuple.SubsetOf(v.Tuple) {
				return nil, false // incomparable candidates: runtime choice varies
			}
		}
		if !u.SubsetOf(best.Tuple) {
			return nil, false
		}
		return best, true
	}
	panic("opt: unknown config")
}

// canInline reports whether a statically-bound call to m may be inlined
// here. Bodies containing 'return' are never inlined: an inlined return
// would incorrectly exit the caller (closures passed in by the caller
// keep their non-local returns, which is exactly the paper's Set
// example).
func (a *analyzer) canInline(m *hier.Method) bool {
	if a.c.Opts.DisableInlining || a.depth >= a.c.Opts.maxInlineDepth() {
		return false
	}
	if len(a.frames) == 0 {
		// Global/field initializers have no frame to host inlined slots
		// (and run exactly once, so inlining buys nothing).
		return false
	}
	src := a.c.Prog.Bodies[m]
	if src == nil || src.HasReturn || src.Size > a.c.Opts.inlineThreshold() {
		return false
	}
	for _, active := range a.inlineStack {
		if active == m {
			return false
		}
	}
	return a.version == nil || a.version.Method != m
}

// inlineMethod splices the source body of m into the current frame,
// binding the (already optimized) arguments to fresh slots, and then
// optimizes the spliced copy with the precise argument information.
func (a *analyzer) inlineMethod(m *hier.Method, args []ir.Node, infos []info) (ir.Node, info) {
	src := a.c.Prog.Bodies[m]
	slotMap := make([]int, src.NumSlots)
	for i := range slotMap {
		slotMap[i] = a.newSlot()
	}
	body := remapInlined(ir.Clone(src.Code), slotMap, false)

	f := a.curFrame()
	nodes := make([]ir.Node, 0, len(args)+1)
	for i, arg := range args {
		nodes = append(nodes, &ir.SetLocal{Depth: 0, Slot: slotMap[i], Name: "inl$" + m.GF.Name, X: arg})
		in := infos[i]
		in.closure = infos[i].closure // propagate closure literals into the inlined body
		f.set(slotMap[i], in)
	}

	a.poisonClosureWrites(body)
	a.inlineStack = append(a.inlineStack, m)
	a.depth++
	body, bi := a.optimize(body)
	a.depth--
	a.inlineStack = a.inlineStack[:len(a.inlineStack)-1]

	nodes = append(nodes, body)
	if len(nodes) == 1 {
		return nodes[0], bi
	}
	return &ir.Seq{Nodes: nodes}, bi
}

// inlineClosure splices a closure body into the current frame. Returns
// inside the body are legal: they belong to the lexically enclosing
// method, which is exactly the method being compiled.
func (a *analyzer) inlineClosure(code *ir.ClosureCode, args []ir.Node) (ir.Node, info) {
	slotMap := make([]int, code.NumSlots)
	for i := range slotMap {
		slotMap[i] = a.newSlot()
	}
	body := remapInlined(ir.Clone(code.Body), slotMap, true)

	f := a.curFrame()
	nodes := make([]ir.Node, 0, len(args)+1)
	for i, arg := range args {
		optArg, ai := a.optimize(arg)
		nodes = append(nodes, &ir.SetLocal{Depth: 0, Slot: slotMap[i], Name: "clo$arg", X: optArg})
		f.set(slotMap[i], ai)
	}

	a.poisonClosureWrites(body)
	a.depth++
	body, bi := a.optimize(body)
	a.depth--

	nodes = append(nodes, body)
	if len(nodes) == 1 {
		return nodes[0], bi
	}
	return &ir.Seq{Nodes: nodes}, bi
}

// remapInlined rewrites frame references of an inlined body: slots of
// the inlinee's own frame map through slotMap into the host frame;
// for closures (dropOneFrame) references to frames outside the closure
// lose one hop because the closure frame disappears.
func remapInlined(n ir.Node, slotMap []int, dropOneFrame bool) ir.Node {
	var rewrite func(n ir.Node, nesting int)
	rewrite = func(n ir.Node, nesting int) {
		ir.Walk(n, func(ch ir.Node) bool {
			switch ch := ch.(type) {
			case *ir.MakeClosure:
				rewrite(ch.Fn.Body, nesting+1)
				return false
			case *ir.Local:
				if ch.Depth == nesting {
					ch.Slot = slotMap[ch.Slot]
				} else if ch.Depth > nesting {
					if !dropOneFrame {
						panic("opt: method body references an outer frame")
					}
					ch.Depth--
				}
			case *ir.SetLocal:
				if ch.Depth == nesting {
					ch.Slot = slotMap[ch.Slot]
				} else if ch.Depth > nesting {
					if !dropOneFrame {
						panic("opt: method body references an outer frame")
					}
					ch.Depth--
				}
			}
			return true
		})
	}
	rewrite(n, 0)
	return n
}

// eliminateDead removes side-effect-free statements from non-final Seq
// positions — in particular closure literals whose every call was
// inlined ("dead code elimination to optimize away unneeded closure
// creations", Table 1).
func (a *analyzer) eliminateDead(body ir.Node) ir.Node {
	readSlots := map[int]bool{}
	var collect func(n ir.Node, nesting int)
	collect = func(n ir.Node, nesting int) {
		ir.Walk(n, func(ch ir.Node) bool {
			switch ch := ch.(type) {
			case *ir.MakeClosure:
				collect(ch.Fn.Body, nesting+1)
				return false
			case *ir.Local:
				if ch.Depth == nesting {
					readSlots[ch.Slot] = true
				}
			}
			return true
		})
	}
	collect(body, 0)

	var sweep func(n ir.Node, nesting int) ir.Node
	sweep = func(n ir.Node, nesting int) ir.Node {
		switch n := n.(type) {
		case *ir.Seq:
			var out []ir.Node
			for i, ch := range n.Nodes {
				ch = sweep(ch, nesting)
				last := i == len(n.Nodes)-1
				if !last {
					if sl, ok := ch.(*ir.SetLocal); ok && sl.Depth == nesting && nesting == 0 && !readSlots[sl.Slot] && pure(sl.X) {
						continue
					}
					if pure(ch) {
						continue
					}
				}
				out = append(out, ch)
			}
			if len(out) == 1 {
				return out[0]
			}
			n.Nodes = out
			return n
		case *ir.If:
			n.Then = sweep(n.Then, nesting)
			if n.Else != nil {
				n.Else = sweep(n.Else, nesting)
			}
			return n
		case *ir.While:
			n.Body = sweep(n.Body, nesting)
			return n
		case *ir.MakeClosure:
			n.Fn.Body = sweep(n.Fn.Body, nesting+1)
			return n
		default:
			return n
		}
	}
	return sweep(body, 0)
}

// pure reports that evaluating n has no side effects and cannot fail.
func pure(n ir.Node) bool {
	switch n := n.(type) {
	case *ir.Const, *ir.Local, *ir.Global:
		return true
	case *ir.MakeClosure:
		return true
	case *ir.Un:
		return pure(n.X)
	case *ir.Bin:
		// Division and modulo can trap; +, comparisons etc. can raise
		// type errors but only on values a well-typed program never
		// produces — we keep them droppable, as real compilers do.
		if n.Op == ir.OpDiv || n.Op == ir.OpMod {
			return false
		}
		return pure(n.L) && pure(n.R)
	case *ir.And:
		return pure(n.L) && pure(n.R)
	case *ir.Or:
		return pure(n.L) && pure(n.R)
	default:
		return false
	}
}
