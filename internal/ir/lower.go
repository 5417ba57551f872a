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

// Load parses nothing: it lowers an already-parsed program against its
// hierarchy. Use Lower(prog) for the common path.
func Lower(src *lang.Program) (*Program, error) {
	h, err := hier.Build(src)
	if err != nil {
		return nil, err
	}
	return LowerWith(src, h)
}

// LowerWith lowers src against a pre-built (frozen) hierarchy.
func LowerWith(src *lang.Program, h *hier.Hierarchy) (*Program, error) {
	p := &Program{
		H:          h,
		GlobalIdx:  map[string]int{},
		Bodies:     map[*hier.Method]*MethodBody{},
		FieldInits: map[*hier.Class][]Node{},
	}

	// Reject generic functions that collide with primitives.
	for _, g := range h.GFs() {
		if sig, ok := primSigs[g.Name]; ok && sig.Arity == g.Arity {
			return nil, fmt.Errorf("method %s/%d collides with built-in primitive", g.Name, g.Arity)
		}
	}

	// Predeclare all globals so initializers may reference any of them
	// (later ones are still nil at evaluation time).
	for _, g := range src.Globals {
		if _, dup := p.GlobalIdx[g.Name]; dup {
			return nil, fmt.Errorf("%s: global %s already defined", g.Pos, g.Name)
		}
		p.GlobalIdx[g.Name] = len(p.Globals)
		p.Globals = append(p.Globals, &GlobalVar{Name: g.Name})
	}
	p.GlobalAssigned = make([]bool, len(p.Globals))
	// One lowerer serves every initializer and method; reset keeps the
	// capacity its scope, frame stack and maps grew to.
	lw := &lowerer{prog: p, assignedFormals: map[int]bool{}, candidates: map[*CallSite][]PassPair{}}
	for i, g := range src.Globals {
		lw.reset(nil)
		n, err := lw.expr(g.Init)
		if err != nil {
			return nil, err
		}
		p.Globals[i].Init = n
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
			n, err := lw.expr(f.Init)
			if err != nil {
				return nil, err
			}
			inits[i] = n
		}
		p.FieldInits[c] = inits
	}

	// Method bodies.
	for _, m := range h.Methods() {
		body, err := lw.lowerMethod(m)
		if err != nil {
			return nil, err
		}
		p.Bodies[m] = body
	}

	if g, ok := h.GF("main", 0); ok {
		p.Main = g
	}
	return p, nil
}

// frame is one lexical frame (a method activation or a closure
// activation) during lowering.
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
	// candidatePass maps each created site to the raw per-arg formal
	// candidates, filtered against assignedFormals after lowering.
	candidates map[*CallSite][]PassPair
}

// reset readies lw for the method m, or for an initializer when m is
// nil. The body it lowered keeps its sites, so they start afresh.
func (lw *lowerer) reset(m *hier.Method) {
	lw.method, lw.hasReturn, lw.sites = m, false, nil
	lw.frames, lw.scope = lw.frames[:0], lw.scope[:0]
	clear(lw.assignedFormals)
	clear(lw.candidates)
}

func (lw *lowerer) lowerMethod(m *hier.Method) (*MethodBody, error) {
	lw.reset(m)
	f := &frame{numParams: len(m.Decl.Params)}
	lw.frames = append(lw.frames, f)
	for _, prm := range m.Decl.Params {
		lw.declare(prm.Name)
	}

	code, err := lw.block(m.Decl.Body)
	if err != nil {
		return nil, err
	}

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
		AssignedFormals: assigned, Size: Size(code), HasReturn: lw.hasReturn, ClosureWrites: f.closureWrites}, nil
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

func (lw *lowerer) block(b *lang.Block) (Node, error) {
	outer := len(lw.scope)
	seq := &Seq{Nodes: make([]Node, len(b.Stmts))}
	for i, s := range b.Stmts {
		n, err := lw.stmt(s)
		if err != nil {
			return nil, err
		}
		seq.Nodes[i] = n
	}
	lw.scope = lw.scope[:outer]
	if len(seq.Nodes) == 1 {
		return seq.Nodes[0], nil
	}
	return seq, nil
}

func (lw *lowerer) stmt(s lang.Stmt) (Node, error) {
	switch s := s.(type) {
	case *lang.VarStmt:
		if len(lw.frames) == 0 {
			return nil, fmt.Errorf("%s: 'var' not allowed in a global initializer expression", s.Pos)
		}
		init, err := lw.expr(s.Init)
		if err != nil {
			return nil, err
		}
		// Evaluate the initializer before the slot is visible, so
		// "var x := x;" refers to any outer x.
		slot := lw.declare(s.Name)
		return &SetLocal{Depth: 0, Slot: slot, Name: s.Name, X: init}, nil

	case *lang.ExprStmt:
		return lw.expr(s.X)

	case *lang.AssignStmt:
		rhs, err := lw.expr(s.RHS)
		if err != nil {
			return nil, err
		}
		switch lhs := s.LHS.(type) {
		case *lang.Ident:
			if depth, slot, frameIdx, ok := lw.resolve(lhs.Name); ok {
				if frameIdx == 0 && slot < lw.frames[0].numParams && lw.method != nil {
					lw.assignedFormals[slot] = true
				}
				if f := lw.frames[frameIdx]; depth > 0 && !slices.Contains(f.closureWrites, slot) {
					f.closureWrites = append(f.closureWrites, slot)
				}
				return &SetLocal{Depth: depth, Slot: slot, Name: lhs.Name, X: rhs}, nil
			}
			if gi, ok := lw.prog.GlobalIdx[lhs.Name]; ok {
				lw.prog.GlobalAssigned[gi] = true
				return &SetGlobal{Slot: gi, Name: lhs.Name, X: rhs}, nil
			}
			return nil, fmt.Errorf("%s: assignment to undefined variable %q", s.Pos, lhs.Name)
		case *lang.FieldAccess:
			obj, err := lw.expr(lhs.Recv)
			if err != nil {
				return nil, err
			}
			return &SetField{Obj: obj, Name: lhs.Name, Slot: -1, X: rhs}, nil
		default:
			return nil, fmt.Errorf("%s: invalid assignment target", s.Pos)
		}

	case *lang.ReturnStmt:
		if lw.method == nil {
			return nil, fmt.Errorf("%s: 'return' outside a method", s.Pos)
		}
		lw.hasReturn = true
		var x Node
		if s.X != nil {
			var err error
			x, err = lw.expr(s.X)
			if err != nil {
				return nil, err
			}
		}
		return &Return{X: x}, nil

	case *lang.WhileStmt:
		cond, err := lw.expr(s.Cond)
		if err != nil {
			return nil, err
		}
		body, err := lw.block(s.Body)
		if err != nil {
			return nil, err
		}
		return &While{Cond: cond, Body: body}, nil

	case *lang.IfStmt:
		cond, err := lw.expr(s.Cond)
		if err != nil {
			return nil, err
		}
		then, err := lw.block(s.Then)
		if err != nil {
			return nil, err
		}
		var els Node
		if s.Else != nil {
			els, err = lw.block(s.Else)
			if err != nil {
				return nil, err
			}
		}
		return &If{Cond: cond, Then: then, Else: els}, nil
	}
	return nil, fmt.Errorf("ir: unknown statement %T", s)
}

func (lw *lowerer) exprs(es []lang.Expr) ([]Node, error) {
	out := make([]Node, len(es))
	for i, e := range es {
		n, err := lw.expr(e)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
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

func (lw *lowerer) expr(e lang.Expr) (Node, error) {
	switch e := e.(type) {
	case *lang.IntLit:
		if 0 <= e.Val && e.Val < int64(len(smallInts)) {
			return &smallInts[e.Val], nil
		}
		return &Const{Kind: KInt, Int: e.Val}, nil
	case *lang.StrLit:
		return &Const{Kind: KStr, Str: e.Val}, nil
	case *lang.BoolLit:
		return &Const{Kind: KBool, Bool: e.Val}, nil
	case *lang.NilLit:
		return &Const{Kind: KNil}, nil

	case *lang.Ident:
		if depth, slot, _, ok := lw.resolve(e.Name); ok {
			return &Local{Depth: depth, Slot: slot, Name: e.Name}, nil
		}
		if gi, ok := lw.prog.GlobalIdx[e.Name]; ok {
			return &Global{Slot: gi, Name: e.Name}, nil
		}
		return nil, fmt.Errorf("%s: undefined variable %q", e.Pos, e.Name)

	case *lang.Call:
		args, err := lw.exprs(e.Args)
		if err != nil {
			return nil, err
		}
		// A name bound to a variable is a closure call; otherwise a
		// generic-function send; otherwise a primitive.
		if depth, slot, _, ok := lw.resolve(e.Name); ok {
			return &CallClosure{Fn: &Local{Depth: depth, Slot: slot, Name: e.Name}, Args: args, Pos: e.Pos}, nil
		}
		if gi, ok := lw.prog.GlobalIdx[e.Name]; ok {
			return &CallClosure{Fn: &Global{Slot: gi, Name: e.Name}, Args: args, Pos: e.Pos}, nil
		}
		if g, ok := lw.prog.H.GF(e.Name, len(args)); ok {
			return lw.send(g, e.Pos, args), nil
		}
		if sig, ok := primSigs[e.Name]; ok {
			if sig.Arity != len(args) {
				return nil, fmt.Errorf("%s: primitive %s takes %d arguments, got %d", e.Pos, e.Name, sig.Arity, len(args))
			}
			return &PrimCall{Prim: sig.Prim, Args: args}, nil
		}
		return nil, fmt.Errorf("%s: unknown function %s/%d", e.Pos, e.Name, len(args))

	case *lang.SendSugar:
		recv, err := lw.expr(e.Recv)
		if err != nil {
			return nil, err
		}
		args, err := lw.exprs(e.Args)
		if err != nil {
			return nil, err
		}
		all := append([]Node{recv}, args...)
		g, ok := lw.prog.H.GF(e.Sel, len(all))
		if !ok {
			return nil, fmt.Errorf("%s: no method %s/%d (receiver syntax)", e.Pos, e.Sel, len(all))
		}
		return lw.send(g, e.Pos, all), nil

	case *lang.FieldAccess:
		obj, err := lw.expr(e.Recv)
		if err != nil {
			return nil, err
		}
		return &GetField{Obj: obj, Name: e.Name, Slot: -1}, nil

	case *lang.ApplyExpr:
		fn, err := lw.expr(e.Fn)
		if err != nil {
			return nil, err
		}
		args, err := lw.exprs(e.Args)
		if err != nil {
			return nil, err
		}
		return &CallClosure{Fn: fn, Args: args, Pos: e.Pos}, nil

	case *lang.NewExpr:
		c, ok := lw.prog.H.Class(e.Class)
		if !ok {
			return nil, fmt.Errorf("%s: unknown class %q in new", e.Pos, e.Class)
		}
		if len(e.Args) > len(c.Fields) {
			return nil, fmt.Errorf("%s: new %s: %d arguments for %d fields", e.Pos, e.Class, len(e.Args), len(c.Fields))
		}
		args, err := lw.exprs(e.Args)
		if err != nil {
			return nil, err
		}
		return &New{Class: c, Args: args}, nil

	case *lang.FnExpr:
		f := &frame{numParams: len(e.Params)}
		lw.frames = append(lw.frames, f)
		outer := len(lw.scope)
		for _, pn := range e.Params {
			lw.declare(pn)
		}
		body, err := lw.block(e.Body)
		lw.scope = lw.scope[:outer]
		lw.frames = lw.frames[:len(lw.frames)-1]
		if err != nil {
			return nil, err
		}
		return &MakeClosure{Fn: &ClosureCode{
			NumParams:     len(e.Params),
			NumSlots:      f.numSlots,
			Body:          body,
			Owner:         lw.method,
			ClosureWrites: f.closureWrites,
		}}, nil

	case *lang.UnaryExpr:
		x, err := lw.expr(e.X)
		if err != nil {
			return nil, err
		}
		if e.Op == lang.NOT {
			return &Un{Op: OpNot, X: x}, nil
		}
		return &Un{Op: OpNeg, X: x}, nil

	case *lang.BinaryExpr:
		l, err := lw.expr(e.L)
		if err != nil {
			return nil, err
		}
		r, err := lw.expr(e.R)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case lang.ANDAND:
			return &And{L: l, R: r}, nil
		case lang.OROR:
			return &Or{L: l, R: r}, nil
		case lang.PLUS:
			return &Bin{Op: OpAdd, L: l, R: r}, nil
		case lang.MINUS:
			return &Bin{Op: OpSub, L: l, R: r}, nil
		case lang.STAR:
			return &Bin{Op: OpMul, L: l, R: r}, nil
		case lang.SLASH:
			return &Bin{Op: OpDiv, L: l, R: r}, nil
		case lang.PERCENT:
			return &Bin{Op: OpMod, L: l, R: r}, nil
		case lang.EQ:
			return &Bin{Op: OpEQ, L: l, R: r}, nil
		case lang.NE:
			return &Bin{Op: OpNE, L: l, R: r}, nil
		case lang.LT:
			return &Bin{Op: OpLT, L: l, R: r}, nil
		case lang.LE:
			return &Bin{Op: OpLE, L: l, R: r}, nil
		case lang.GT:
			return &Bin{Op: OpGT, L: l, R: r}, nil
		case lang.GE:
			return &Bin{Op: OpGE, L: l, R: r}, nil
		}
		return nil, fmt.Errorf("%s: unknown binary operator", e.Pos)

	case *lang.BlockExpr:
		return lw.block(e.Block)
	}
	return nil, fmt.Errorf("ir: unknown expression %T", e)
}
