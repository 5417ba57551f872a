// Package ir defines the tree intermediate representation that method
// bodies are lowered to, the call-site and method-version structures
// shared by the optimizer, the specializer and the interpreter, and the
// PassThroughArgs computation from the paper (§3: "the formal is passed
// directly as an actual parameter in the call").
package ir

import (
	"fmt"

	"selspec/internal/hier"
	"selspec/internal/lang"
)

// Node is one IR tree node. Lowered nodes are never changed: the
// optimizer builds new nodes, edits only those while it builds a body,
// and may share unchanged subtrees of the lowered code. Both tiers treat
// nodes as read-only.
type Node interface{ node() }

// ConstKind discriminates constant values.
type ConstKind int

// Constant kinds.
const (
	KInt ConstKind = iota
	KStr
	KBool
	KNil
)

// Const is a literal constant.
type Const struct {
	Kind ConstKind
	Int  int64
	Str  string
	Bool bool
}

// Local reads a frame slot. Depth is the number of lexical frames to
// hop outward (0 = current fn/method frame).
type Local struct {
	Depth, Slot int
	Name        string // for diagnostics only
}

// SetLocal writes a frame slot and yields the value.
type SetLocal struct {
	Depth, Slot int
	Name        string
	X           Node
}

// Global reads a global slot.
type Global struct {
	Slot int
	Name string
}

// SetGlobal writes a global slot and yields the value.
type SetGlobal struct {
	Slot int
	Name string
	X    Node
}

// GetField reads an object field by name. Slot is -1 when the field
// index must be resolved at run time (the interpreter uses an inline
// cache); the optimizer fills Slot in when the receiver's class set is
// known precisely enough that all possible classes agree on the index.
type GetField struct {
	Obj  Node
	Name string
	Slot int // resolved field index, or -1
}

// SetField writes an object field and yields the value. See GetField
// for Slot.
type SetField struct {
	Obj  Node
	Name string
	Slot int // resolved field index, or -1
	X    Node
}

// Seq evaluates nodes left to right; value is the last node's value
// (nil for an empty Seq).
type Seq struct {
	Nodes []Node
}

// If is a conditional expression; a nil Else yields nil.
type If struct {
	Cond Node
	Then Node
	Else Node // may be nil
}

// While loops while Cond is true; value is nil.
type While struct {
	Cond Node
	Body Node
}

// Return performs a (possibly non-local) return from the enclosing
// method activation.
type Return struct {
	X Node // may be nil → returns nil
}

// New instantiates a class. Args cover the first len(Args) flattened
// fields; remaining fields take their FieldInit thunks (or nil).
type New struct {
	Class *hier.Class
	Args  []Node
}

// MakeClosure creates a closure over the current frame chain.
type MakeClosure struct {
	Fn *ClosureCode
}

// ClosureCode is the code of a closure literal. It is shared by all
// closures created at this syntactic point within one compiled version.
type ClosureCode struct {
	NumParams int
	NumSlots  int // params + locals
	Body      Node
	Owner     *hier.Method // lexically enclosing method (nil in global init)
	// ClosureWrites lists the slots of this closure's own frame that
	// closures nested in Body assign: the optimizer's class analysis
	// keeps them at Top, because such a closure may run at any point.
	ClosureWrites []int
}

// CallClosure invokes a closure value. Pos is the call position, so
// runtime faults (non-closure callee, arity, call-depth limit) report
// file:line:col.
type CallClosure struct {
	Fn   Node
	Args []Node
	Pos  lang.Pos
}

// Send is a dynamically-dispatched message send.
type Send struct {
	Site *CallSite
	Args []Node
}

// StaticCall is a statically-bound call to a specific compiled version.
// Site is retained so the profiler can count statically-bound arcs
// (needed by cascadeSpecializations).
type StaticCall struct {
	Target *Version
	Site   *CallSite
	Args   []Node
}

// VersionSelect is a call whose target *method* is statically known but
// whose specialized *version* must be chosen from the actual argument
// classes at run time (paper §3.5: "message lookup needs to select the
// appropriate specialized version").
type VersionSelect struct {
	Method *hier.Method
	Site   *CallSite
	Args   []Node
}

// BinOp is a primitive binary operator.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpLT
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
)

var binOpNames = [...]string{"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!="}

func (op BinOp) String() string { return binOpNames[op] }

// Bin applies a primitive binary operator (the paper's "hard-wired
// class prediction for a small number of common messages such as if
// and +": these never go through dispatch).
type Bin struct {
	Op   BinOp
	L, R Node
}

// UnOp is a primitive unary operator.
type UnOp int

// Unary operators.
const (
	OpNot UnOp = iota
	OpNeg
)

// Un applies a primitive unary operator.
type Un struct {
	Op UnOp
	X  Node
}

// Prim is a built-in primitive function.
type Prim int

// Primitive functions callable from Mini-Cecil.
const (
	PrimPrint     Prim = iota // print(x)
	PrimPrintln               // println(x)
	PrimStr                   // str(x) -> String
	PrimNewArray              // newarray(n) -> Array of nils
	PrimAGet                  // aget(a, i)
	PrimAPut                  // aput(a, i, v) -> v
	PrimALen                  // alen(a) -> Int
	PrimStrLen                // strlen(s) -> Int
	PrimSubstr                // substr(s, i, j) -> String  [i, j)
	PrimCharAt                // charat(s, i) -> String of length 1
	PrimOrd                   // ord(s) -> Int (first byte)
	PrimChr                   // chr(i) -> String
	PrimAbort                 // abort(msg) -> runtime error
	PrimClassName             // classname(x) -> String
	PrimSame                  // same(a, b) -> Bool (identity)
)

// primSigs maps source names to primitives and their arities.
var primSigs = map[string]struct {
	Prim  Prim
	Arity int
}{
	"print": {PrimPrint, 1}, "println": {PrimPrintln, 1}, "str": {PrimStr, 1},
	"newarray": {PrimNewArray, 1}, "aget": {PrimAGet, 2}, "aput": {PrimAPut, 3},
	"alen": {PrimALen, 1}, "strlen": {PrimStrLen, 1}, "substr": {PrimSubstr, 3},
	"charat": {PrimCharAt, 2}, "ord": {PrimOrd, 1}, "chr": {PrimChr, 1},
	"abort": {PrimAbort, 1}, "classname": {PrimClassName, 1}, "same": {PrimSame, 2},
}

// PrimCall invokes a built-in primitive.
type PrimCall struct {
	Prim Prim
	Args []Node
}

// And and Or are short-circuit boolean operators.
type And struct{ L, R Node }

// Or is short-circuit disjunction.
type Or struct{ L, R Node }

func (*Const) node()         {}
func (*Local) node()         {}
func (*SetLocal) node()      {}
func (*Global) node()        {}
func (*SetGlobal) node()     {}
func (*GetField) node()      {}
func (*SetField) node()      {}
func (*Seq) node()           {}
func (*If) node()            {}
func (*While) node()         {}
func (*Return) node()        {}
func (*New) node()           {}
func (*MakeClosure) node()   {}
func (*CallClosure) node()   {}
func (*Send) node()          {}
func (*StaticCall) node()    {}
func (*VersionSelect) node() {}
func (*Bin) node()           {}
func (*Un) node()            {}
func (*PrimCall) node()      {}
func (*And) node()           {}
func (*Or) node()            {}

// PassPair maps a caller formal position to a callee argument position
// (the paper's PassThroughArgs entries "<fpos → apos>").
type PassPair struct {
	Formal int // caller formal index
	ArgPos int // callee argument position
}

// CallSite identifies one message-send site in the source program. Site
// identity is stable across configurations (it is created during
// lowering, before optimization), so profiles gathered under one
// configuration can guide compilation under another.
type CallSite struct {
	ID     int
	GF     *hier.GF
	Caller *hier.Method // lexically enclosing method; nil in global init
	Pos    lang.Pos

	// PassThrough is the paper's PassThroughArgs[site]: each entry says
	// "callee argument ArgPos is exactly caller formal Formal" (and the
	// formal is never assigned anywhere in the caller).
	PassThrough []PassPair
}

func (s *CallSite) String() string {
	caller := "<global>"
	if s.Caller != nil {
		caller = s.Caller.Name()
	}
	return fmt.Sprintf("site#%d %s in %s at %s", s.ID, s.GF.Key(), caller, s.Pos)
}

// Version is one compiled version of a method: the paper's unit of
// specialization. The Tuple gives the static class-set information for
// each formal that the body was optimized under; the general version
// uses the method's fully general tuple.
type Version struct {
	Method   *hier.Method
	Tuple    hier.Tuple
	Index    int // position in the method's version list
	General  bool
	Body     Node
	NumSlots int // frame size: params + locals
}

func (v *Version) String() string {
	kind := "spec"
	if v.General {
		kind = "general"
	}
	return fmt.Sprintf("%s[v%d %s]", v.Method.Name(), v.Index, kind)
}
