package ir

import (
	"fmt"
	"slices"

	"selspec/internal/hier"
	"selspec/internal/lang"
)

// GlobalVar is one top-level variable with its lowered initializer.
type GlobalVar struct {
	Name string
	Init Node
}

// MethodBody is the lowered (unoptimized) body of a source method.
type MethodBody struct {
	Method   *hier.Method
	NumSlots int // frame size: params + locals of the method frame
	Code     Node
	Sites    []*CallSite // message-send sites lexically inside the method

	// AssignedFormals[i] reports that formal i is assigned somewhere in
	// the method (killing its pass-through status and its class-set
	// stability for analysis).
	AssignedFormals []bool

	// Size is Size(Code) and HasReturn reports a Return node anywhere in
	// Code, both recorded once at lowering: the optimizer reads source
	// bodies without changing them, and reads these per inlining
	// candidate.
	Size      int
	HasReturn bool
	// ClosureWrites lists the method-frame slots that some closure in
	// Code assigns (see ClosureCode.ClosureWrites).
	ClosureWrites []int
}

// Program is the lowered program: the hierarchy plus IR for every
// method body, global initializer and field initializer, and the table
// of all call sites.
type Program struct {
	H         *hier.Hierarchy
	Globals   []*GlobalVar
	GlobalIdx map[string]int
	Bodies    map[*hier.Method]*MethodBody

	// FieldInits[class] is aligned with class.Fields; entries are nil
	// for fields without a declared initializer.
	FieldInits map[*hier.Class][]Node

	// GlobalAssigned[i] reports that global i is assigned (SetGlobal)
	// somewhere in the program; never-assigned globals hold their
	// initializer's value forever, which the optimizer exploits.
	GlobalAssigned []bool

	Sites []*CallSite
	Main  *hier.GF // the main/0 generic function, if declared
}

// Site returns the call site with the given ID.
func (p *Program) Site(id int) *CallSite { return p.Sites[id] }

// Lower builds src's class hierarchy and lowers src against it; use
// LowerWith when the hierarchy is already built.
func Lower(src *lang.Program) (*Program, error) {
	h, err := hier.Build(src)
	if err != nil {
		return nil, err
	}
	return LowerWith(src, h)
}

// UnresolvedCall is a call that names no variable, no generic function
// of its arity and no primitive of its arity. Static checkers report
// it from these fields; Error is the lowerer's own text.
type UnresolvedCall struct {
	Pos   lang.Pos
	Name  string
	Arity int // arguments at the call, a receiver included
	// ReceiverSyntax marks a send written x.name(...), which never
	// calls a primitive.
	ReceiverSyntax bool
	// PrimArity is the arity of the primitive called Name, or -1 when
	// there is none or the call uses receiver syntax.
	PrimArity int
}

func (e *UnresolvedCall) Error() string {
	switch {
	case e.ReceiverSyntax:
		return fmt.Sprintf("%s: no method %s/%d (receiver syntax)", e.Pos, e.Name, e.Arity)
	case e.PrimArity >= 0:
		return fmt.Sprintf("%s: primitive %s takes %d arguments, got %d", e.Pos, e.Name, e.PrimArity, e.Arity)
	}
	return fmt.Sprintf("%s: unknown function %s/%d", e.Pos, e.Name, e.Arity)
}

// Errors is every front-end error one lowering met, in lowering order.
// Its text is the first error's.
type Errors []error

func (es Errors) Error() string { return es[0].Error() }

// LowerWith lowers src against a pre-built (frozen) hierarchy. On a
// front-end error it returns Errors: lowering goes on past each error,
// so the list holds every one.
func LowerWith(src *lang.Program, h *hier.Hierarchy) (*Program, error) {
	p := &Program{
		H:          h,
		GlobalIdx:  map[string]int{},
		Bodies:     map[*hier.Method]*MethodBody{},
		FieldInits: map[*hier.Class][]Node{},
	}
	// One lowerer serves every initializer and method; reset keeps the
	// capacity its scope, frame stack and maps grew to.
	lw := &lowerer{prog: p, assignedFormals: map[int]bool{}, candidates: map[*CallSite][]PassPair{}}

	// Reject generic functions that collide with primitives.
	for _, g := range h.GFs() {
		if sig, ok := primSigs[g.Name]; ok && sig.Arity == g.Arity {
			lw.fail(fmt.Errorf("method %s/%d collides with built-in primitive", g.Name, g.Arity))
		}
	}

	// Predeclare all globals so initializers may reference any of them
	// (later ones are still nil at evaluation time).
	for _, g := range src.Globals {
		if _, dup := p.GlobalIdx[g.Name]; dup {
			lw.fail(fmt.Errorf("%s: global %s already defined", g.Pos, g.Name))
		} else {
			p.GlobalIdx[g.Name] = len(p.Globals)
		}
		p.Globals = append(p.Globals, &GlobalVar{Name: g.Name})
	}
	p.GlobalAssigned = make([]bool, len(p.Globals))
	for i, g := range src.Globals {
		lw.reset(nil)
		p.Globals[i].Init = lw.expr(g.Init)
	}

	// Field initializers, lowered in global scope.
	for _, c := range h.Classes() {
		if len(c.Fields) == 0 {
			continue
		}
		inits := make([]Node, len(c.Fields))
		for i, f := range c.Fields {
			if f.Init == nil {
				continue
			}
			lw.reset(nil)
			inits[i] = lw.expr(f.Init)
		}
		p.FieldInits[c] = inits
	}

	// Method bodies.
	for _, m := range h.Methods() {
		p.Bodies[m] = lw.lowerMethod(m)
	}
	if lw.errs != nil {
		return nil, lw.errs
	}

	if g, ok := h.GF("main", 0); ok {
		p.Main = g
	}
	return p, nil
}

// frame is one lexical frame (a method activation or a closure
// activation) during lowering. A frame with numParams -1 holds the
// names an initializer declares in error (see stmt).
type frame struct {
	numParams     int
	numSlots      int
	closureWrites []int // slots that closures nested in the frame assign
}

// binding is one name in scope: a slot of frame frameIdx (an index
// into lowerer.frames).
type binding struct {
	name           string
	frameIdx, slot int
}

type lowerer struct {
	prog   *Program
	method *hier.Method // nil in global/field-init context
	frames []*frame     // frames[0] is the method frame
	// scope lists the names in scope, innermost last; a block drops its
	// own when it ends.
	scope []binding

	assignedFormals map[int]bool
	hasReturn       bool // a return statement was lowered
	sites           []*CallSite
	// candidates maps each created site to the raw per-arg formal
	// candidates, filtered against assignedFormals after lowering.
	candidates map[*CallSite][]PassPair
	errs       Errors // every error met so far, kept across reset
}

// failed is the node lowering continues with in place of a construct
// it could not lower; the program is discarded, so nodes may share it.
var failed = Const{Kind: KNil}

// fail records err and returns the stand-in node.
func (lw *lowerer) fail(err error) Node {
	lw.errs = append(lw.errs, err)
	return &failed
}

// reset readies lw for the method m, or for an initializer when m is
// nil. The body it lowered keeps its sites, so they start afresh.
func (lw *lowerer) reset(m *hier.Method) {
	lw.method, lw.hasReturn, lw.sites = m, false, nil
	lw.frames, lw.scope = lw.frames[:0], lw.scope[:0]
	clear(lw.assignedFormals)
	clear(lw.candidates)
}

func (lw *lowerer) lowerMethod(m *hier.Method) *MethodBody {
	lw.reset(m)
	f := &frame{numParams: len(m.Decl.Params)}
	lw.frames = append(lw.frames, f)
	for _, prm := range m.Decl.Params {
		lw.declare(prm.Name)
	}

	code := lw.block(m.Decl.Body)

	// Finalize PassThroughArgs: drop formals that are assigned anywhere
	// in the method (including inside closures).
	for _, s := range lw.sites {
		for _, pp := range lw.candidates[s] {
			if !lw.assignedFormals[pp.Formal] {
				s.PassThrough = append(s.PassThrough, pp)
			}
		}
	}

	assigned := make([]bool, f.numParams)
	for i := range assigned {
		assigned[i] = lw.assignedFormals[i]
	}
	return &MethodBody{Method: m, NumSlots: f.numSlots, Code: code, Sites: lw.sites,
		AssignedFormals: assigned, Size: Size(code), HasReturn: lw.hasReturn, ClosureWrites: f.closureWrites}
}

func (lw *lowerer) curFrame() *frame { return lw.frames[len(lw.frames)-1] }

// declare allocates a new slot in the current frame for name.
func (lw *lowerer) declare(name string) int {
	f := lw.curFrame()
	slot := f.numSlots
	f.numSlots++
	lw.scope = append(lw.scope, binding{name, len(lw.frames) - 1, slot})
	return slot
}

// resolve finds name in the lexical scope chain, returning (depth from
// current frame, slot, frameIdx, found).
func (lw *lowerer) resolve(name string) (depth, slot, frameIdx int, ok bool) {
	for i := len(lw.scope) - 1; i >= 0; i-- {
		if b := lw.scope[i]; b.name == name {
			return len(lw.frames) - 1 - b.frameIdx, b.slot, b.frameIdx, true
		}
	}
	return 0, 0, 0, false
}

func (lw *lowerer) newSite(g *hier.GF, pos lang.Pos) *CallSite {
	s := &CallSite{ID: len(lw.prog.Sites), GF: g, Caller: lw.method, Pos: pos}
	lw.prog.Sites = append(lw.prog.Sites, s)
	lw.sites = append(lw.sites, s)
	return s
}

func (lw *lowerer) block(b *lang.Block) Node {
	outer := len(lw.scope)
	seq := &Seq{Nodes: make([]Node, len(b.Stmts))}
	for i, s := range b.Stmts {
		seq.Nodes[i] = lw.stmt(s)
	}
	lw.scope = lw.scope[:outer]
	if len(seq.Nodes) == 1 {
		return seq.Nodes[0]
	}
	return seq
}

func (lw *lowerer) stmt(s lang.Stmt) Node {
	switch s := s.(type) {
	case *lang.VarStmt:
		if len(lw.frames) == 0 || lw.curFrame().numParams < 0 {
			lw.fail(fmt.Errorf("%s: 'var' not allowed in a global initializer expression", s.Pos))
			if len(lw.frames) == 0 {
				// Declare the name anyway, so later uses resolve to it.
				lw.frames = append(lw.frames, &frame{numParams: -1})
			}
		}
		// Evaluate the initializer before the slot is visible, so
		// "var x := x;" refers to any outer x.
		init := lw.expr(s.Init)
		slot := lw.declare(s.Name)
		return &SetLocal{Depth: 0, Slot: slot, Name: s.Name, X: init}

	case *lang.ExprStmt:
		return lw.expr(s.X)

	case *lang.AssignStmt:
		rhs := lw.expr(s.RHS)
		switch lhs := s.LHS.(type) {
		case *lang.Ident:
			if depth, slot, frameIdx, ok := lw.resolve(lhs.Name); ok {
				if frameIdx == 0 && slot < lw.frames[0].numParams && lw.method != nil {
					lw.assignedFormals[slot] = true
				}
				if f := lw.frames[frameIdx]; depth > 0 && !slices.Contains(f.closureWrites, slot) {
					f.closureWrites = append(f.closureWrites, slot)
				}
				return &SetLocal{Depth: depth, Slot: slot, Name: lhs.Name, X: rhs}
			}
			if gi, ok := lw.prog.GlobalIdx[lhs.Name]; ok {
				lw.prog.GlobalAssigned[gi] = true
				return &SetGlobal{Slot: gi, Name: lhs.Name, X: rhs}
			}
			return lw.fail(fmt.Errorf("%s: assignment to undefined variable %q", s.Pos, lhs.Name))
		case *lang.FieldAccess:
			return &SetField{Obj: lw.expr(lhs.Recv), Name: lhs.Name, Slot: -1, X: rhs}
		}
		return lw.fail(fmt.Errorf("%s: invalid assignment target", s.Pos))

	case *lang.ReturnStmt:
		if lw.method == nil {
			lw.fail(fmt.Errorf("%s: 'return' outside a method", s.Pos))
		}
		lw.hasReturn = true
		var x Node
		if s.X != nil {
			x = lw.expr(s.X)
		}
		return &Return{X: x}

	case *lang.WhileStmt:
		return &While{Cond: lw.expr(s.Cond), Body: lw.block(s.Body)}

	case *lang.IfStmt:
		n := &If{Cond: lw.expr(s.Cond), Then: lw.block(s.Then)}
		if s.Else != nil {
			n.Else = lw.block(s.Else)
		}
		return n
	}
	return lw.fail(fmt.Errorf("ir: unknown statement %T", s))
}

func (lw *lowerer) exprs(es []lang.Expr) []Node {
	out := make([]Node, len(es))
	for i, e := range es {
		out[i] = lw.expr(e)
	}
	return out
}

// send lowers a message send to the generic function g, recording
// pass-through candidates for arguments that are direct, unassigned
// method formals.
func (lw *lowerer) send(g *hier.GF, pos lang.Pos, args []Node) Node {
	site := lw.newSite(g, pos)
	if lw.method != nil {
		var cands []PassPair
		for i, a := range args {
			if l, ok := a.(*Local); ok &&
				l.Depth == len(lw.frames)-1 && // resolves to the method frame
				l.Slot < lw.frames[0].numParams {
				cands = append(cands, PassPair{Formal: l.Slot, ArgPos: i})
			}
		}
		lw.candidates[site] = cands
	}
	return &Send{Site: site, Args: args}
}

// smallInts holds one Const per integer 0..1023, which every literal
// of that value shares: no pass changes a Const after lowering.
var smallInts = func() (t [1024]Const) {
	for i := range t {
		t[i] = Const{Kind: KInt, Int: int64(i)}
	}
	return t
}()

func (lw *lowerer) expr(e lang.Expr) Node {
	switch e := e.(type) {
	case *lang.IntLit:
		if 0 <= e.Val && e.Val < int64(len(smallInts)) {
			return &smallInts[e.Val]
		}
		return &Const{Kind: KInt, Int: e.Val}
	case *lang.StrLit:
		return &Const{Kind: KStr, Str: e.Val}
	case *lang.BoolLit:
		return &Const{Kind: KBool, Bool: e.Val}
	case *lang.NilLit:
		return &Const{Kind: KNil}

	case *lang.Ident:
		if depth, slot, _, ok := lw.resolve(e.Name); ok {
			return &Local{Depth: depth, Slot: slot, Name: e.Name}
		}
		if gi, ok := lw.prog.GlobalIdx[e.Name]; ok {
			return &Global{Slot: gi, Name: e.Name}
		}
		return lw.fail(fmt.Errorf("%s: undefined variable %q", e.Pos, e.Name))

	case *lang.Call:
		args := lw.exprs(e.Args)
		// A name bound to a variable is a closure call; otherwise a
		// generic-function send; otherwise a primitive.
		if depth, slot, _, ok := lw.resolve(e.Name); ok {
			return &CallClosure{Fn: &Local{Depth: depth, Slot: slot, Name: e.Name}, Args: args, Pos: e.Pos}
		}
		if gi, ok := lw.prog.GlobalIdx[e.Name]; ok {
			return &CallClosure{Fn: &Global{Slot: gi, Name: e.Name}, Args: args, Pos: e.Pos}
		}
		if g, ok := lw.prog.H.GF(e.Name, len(args)); ok {
			return lw.send(g, e.Pos, args)
		}
		sig, isPrim := primSigs[e.Name]
		if isPrim && sig.Arity == len(args) {
			return &PrimCall{Prim: sig.Prim, Args: args}
		}
		uc := &UnresolvedCall{Pos: e.Pos, Name: e.Name, Arity: len(args), PrimArity: -1}
		if isPrim {
			uc.PrimArity = sig.Arity
		}
		return lw.fail(uc)

	case *lang.SendSugar:
		recv := lw.expr(e.Recv)
		all := append([]Node{recv}, lw.exprs(e.Args)...)
		g, ok := lw.prog.H.GF(e.Sel, len(all))
		if !ok {
			return lw.fail(&UnresolvedCall{Pos: e.Pos, Name: e.Sel, Arity: len(all), ReceiverSyntax: true, PrimArity: -1})
		}
		return lw.send(g, e.Pos, all)

	case *lang.FieldAccess:
		return &GetField{Obj: lw.expr(e.Recv), Name: e.Name, Slot: -1}

	case *lang.ApplyExpr:
		return &CallClosure{Fn: lw.expr(e.Fn), Args: lw.exprs(e.Args), Pos: e.Pos}

	case *lang.NewExpr:
		c, ok := lw.prog.H.Class(e.Class)
		if !ok {
			lw.fail(fmt.Errorf("%s: unknown class %q in new", e.Pos, e.Class))
		} else if len(e.Args) > len(c.Fields) {
			lw.fail(fmt.Errorf("%s: new %s: %d arguments for %d fields", e.Pos, e.Class, len(e.Args), len(c.Fields)))
		}
		return &New{Class: c, Args: lw.exprs(e.Args)}

	case *lang.FnExpr:
		f := &frame{numParams: len(e.Params)}
		lw.frames = append(lw.frames, f)
		outer := len(lw.scope)
		for _, pn := range e.Params {
			lw.declare(pn)
		}
		body := lw.block(e.Body)
		lw.scope = lw.scope[:outer]
		lw.frames = lw.frames[:len(lw.frames)-1]
		return &MakeClosure{Fn: &ClosureCode{
			NumParams:     len(e.Params),
			NumSlots:      f.numSlots,
			Body:          body,
			Owner:         lw.method,
			ClosureWrites: f.closureWrites,
		}}

	case *lang.UnaryExpr:
		x := lw.expr(e.X)
		if e.Op == lang.NOT {
			return &Un{Op: OpNot, X: x}
		}
		return &Un{Op: OpNeg, X: x}

	case *lang.BinaryExpr:
		l, r := lw.expr(e.L), lw.expr(e.R)
		switch e.Op {
		case lang.ANDAND:
			return &And{L: l, R: r}
		case lang.OROR:
			return &Or{L: l, R: r}
		case lang.PLUS:
			return &Bin{Op: OpAdd, L: l, R: r}
		case lang.MINUS:
			return &Bin{Op: OpSub, L: l, R: r}
		case lang.STAR:
			return &Bin{Op: OpMul, L: l, R: r}
		case lang.SLASH:
			return &Bin{Op: OpDiv, L: l, R: r}
		case lang.PERCENT:
			return &Bin{Op: OpMod, L: l, R: r}
		case lang.EQ:
			return &Bin{Op: OpEQ, L: l, R: r}
		case lang.NE:
			return &Bin{Op: OpNE, L: l, R: r}
		case lang.LT:
			return &Bin{Op: OpLT, L: l, R: r}
		case lang.LE:
			return &Bin{Op: OpLE, L: l, R: r}
		case lang.GT:
			return &Bin{Op: OpGT, L: l, R: r}
		case lang.GE:
			return &Bin{Op: OpGE, L: l, R: r}
		}
		return lw.fail(fmt.Errorf("%s: unknown binary operator", e.Pos))

	case *lang.BlockExpr:
		return lw.block(e.Block)
	}
	return lw.fail(fmt.Errorf("ir: unknown expression %T", e))
}
