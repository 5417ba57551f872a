// Package interp executes compiled Mini-Cecil programs. It is the
// "runtime system" of the reproduction: it performs method lookup with
// polymorphic inline caches (or dispatch tables), selects specialized
// versions, counts every dynamic dispatch / version select / static
// call, charges an abstract cycle cost model, and can record the
// weighted call graph that drives the selective specialization
// algorithm.
package interp

import (
	"fmt"
	"math"
	"strings"
	"unsafe"

	"selspec/internal/hier"
	"selspec/internal/ir"
	"selspec/internal/lang"
)

// Kind tags a runtime value.
type Kind uint8

// Value kinds.
const (
	KNil Kind = iota
	KInt
	KBool
	KStr
	KObj
	KClosure
	KArray
)

// Object is an instance of a user-defined class.
type Object struct {
	Class  *hier.Class
	Fields []Value
}

// Array is a mutable fixed-length vector. Its storage is allocated on
// the first store. While every stored element is an integer it is
// kept unboxed in ints, where the reserved nilInt marks an element
// never stored; a store of any other value, or of nilInt itself, moves
// the array to vals for good.
type Array struct {
	n    int
	ints []int64
	vals []Value
}

// nilInt encodes a never-stored element of an integer array.
const nilInt = math.MinInt64

// NewArray makes an array of n nil elements.
func NewArray(n int) *Array { return &Array{n: n} }

// Len returns the array's length.
func (a *Array) Len() int { return a.n }

// Load returns element i, and false when i is out of range.
func (a *Array) Load(i int64) (Value, bool) {
	if uint64(i) < uint64(len(a.ints)) {
		if e := a.ints[i]; e != nilInt {
			return IntV(e), true
		}
		return NilV, true
	}
	if uint64(i) < uint64(len(a.vals)) {
		return a.vals[i], true
	}
	return NilV, uint64(i) < uint64(a.n)
}

// TryStore sets element i to v when i is in range and the array's
// storage already holds values like v, and reports whether it did.
// It changes nothing otherwise; Store does the rest.
func (a *Array) TryStore(i int64, v Value) bool {
	if uint64(i) < uint64(len(a.ints)) {
		if v.K != KInt || v.I == nilInt {
			return false
		}
		a.ints[i] = v.I
		return true
	}
	if uint64(i) < uint64(len(a.vals)) {
		a.vals[i] = v
		return true
	}
	return false
}

// Store sets element i to v, and reports false when i is out of range.
// The first store allocates the storage; a store that does not fit an
// integer array moves it to vals.
func (a *Array) Store(i int64, v Value) bool {
	if a.TryStore(i, v) {
		return true
	}
	if uint64(i) >= uint64(a.n) {
		return false
	}
	if a.vals == nil {
		if v.K == KInt && v.I != nilInt {
			a.ints = make([]int64, a.n)
			for j := range a.ints {
				a.ints[j] = nilInt
			}
			a.ints[i] = v.I
			return true
		}
		a.vals = make([]Value, a.n)
		for j, e := range a.ints {
			if e != nilInt {
				a.vals[j] = IntV(e)
			}
		}
		a.ints = nil
	}
	a.vals[i] = v
	return true
}

// Frame is one activation record; closures capture their defining
// frame, forming a static chain via Parent.
type Frame struct {
	Slots  []Value
	Parent *Frame
}

// At follows the static chain depth hops and reads a slot.
func (f *Frame) At(depth, slot int) Value {
	for ; depth > 0; depth-- {
		f = f.Parent
	}
	return f.Slots[slot]
}

// Set follows the static chain and writes a slot.
func (f *Frame) Set(depth, slot int, v Value) {
	for ; depth > 0; depth-- {
		f = f.Parent
	}
	f.Slots[slot] = v
}

// Activation identifies a live method activation, the target of
// (possibly non-local) returns.
type Activation struct {
	alive bool
}

// Closure is a first-class function value: code plus the captured
// defining frame and the method activation non-local returns unwind to.
type Closure struct {
	Code  *ir.ClosureCode
	Frame *Frame      // defining frame (static link)
	Act   *Activation // enclosing method activation, for Return
}

// Value is a runtime value: a kind tag, an integer word and one
// reference word, 24 bytes on 64-bit targets. Ints and booleans live
// in I. A string keeps its data pointer in p and its length in I.
// Objects, closures and arrays keep their pointer in p. The reference
// is reached only through the kind-checked accessors below, so a value
// of one kind never yields another kind's pointer.
type Value struct {
	K Kind
	I int64 // int value, 0/1 for bool, or string length
	p unsafe.Pointer
}

// Constructors.
var (
	// NilV is the nil value.
	NilV = Value{K: KNil}
	// TrueV and FalseV are the boolean values.
	TrueV  = Value{K: KBool, I: 1}
	FalseV = Value{K: KBool}
)

// IntV makes an integer value.
func IntV(i int64) Value { return Value{K: KInt, I: i} }

// StrV makes a string value.
func StrV(s string) Value {
	return Value{K: KStr, I: int64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// ObjV makes an object value.
func ObjV(o *Object) Value { return Value{K: KObj, p: unsafe.Pointer(o)} }

// CloV makes a closure value.
func CloV(c *Closure) Value { return Value{K: KClosure, p: unsafe.Pointer(c)} }

// ArrV makes an array value.
func ArrV(a *Array) Value { return Value{K: KArray, p: unsafe.Pointer(a)} }

// Str returns the string of a KStr value, "" for any other kind.
func (v Value) Str() string {
	if v.K != KStr {
		return ""
	}
	return unsafe.String((*byte)(v.p), v.I)
}

// Obj returns the object of a KObj value, nil for any other kind.
func (v Value) Obj() *Object {
	if v.K != KObj {
		return nil
	}
	return (*Object)(v.p)
}

// Clo returns the closure of a KClosure value, nil for any other kind.
func (v Value) Clo() *Closure {
	if v.K != KClosure {
		return nil
	}
	return (*Closure)(v.p)
}

// Arr returns the array of a KArray value, nil for any other kind.
func (v Value) Arr() *Array {
	if v.K != KArray {
		return nil
	}
	return (*Array)(v.p)
}

// BoolV makes a boolean value.
func BoolV(b bool) Value {
	if b {
		return TrueV
	}
	return FalseV
}

// Truthy reports whether the value is the boolean true; conditions on
// non-booleans are runtime errors.
func (v Value) Truthy() (bool, bool) {
	if v.K != KBool {
		return false, false
	}
	return v.I != 0, true
}

// Class returns the runtime class of the value.
func (v Value) Class(h *hier.Hierarchy) *hier.Class {
	switch v.K {
	case KInt:
		return h.B.Int
	case KBool:
		return h.B.Bool
	case KStr:
		return h.B.String
	case KObj:
		return v.Obj().Class
	case KClosure:
		return h.B.Closure
	case KArray:
		return h.B.Array
	default:
		return h.B.Nil
	}
}

// Equal implements the == primitive: value equality for immediates,
// identity for objects, closures and arrays.
func (v Value) Equal(w Value) bool {
	if v.K != w.K {
		return false
	}
	switch v.K {
	case KNil:
		return true
	case KInt, KBool:
		return v.I == w.I
	case KStr:
		return v.Str() == w.Str()
	case KObj, KClosure, KArray:
		return v.p == w.p
	}
	return false
}

// String renders the value as the str/print primitives do.
func (v Value) String() string {
	switch v.K {
	case KNil:
		return "nil"
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KStr:
		return v.Str()
	case KObj:
		var b strings.Builder
		b.WriteString(v.Obj().Class.Name)
		b.WriteByte('(')
		for i, f := range v.Obj().Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			if f.K == KObj {
				// Avoid unbounded recursion through cyclic structures.
				b.WriteString(f.Obj().Class.Name)
				b.WriteString("(...)")
			} else {
				b.WriteString(f.String())
			}
		}
		b.WriteByte(')')
		return b.String()
	case KClosure:
		return "<closure>"
	case KArray:
		var b strings.Builder
		b.WriteByte('[')
		a := v.Arr()
		for i := 0; i < a.n; i++ {
			e, _ := a.Load(int64(i))
			if i > 0 {
				b.WriteString(", ")
			}
			if e.K == KArray || e.K == KObj {
				b.WriteString("...")
			} else {
				b.WriteString(e.String())
			}
		}
		b.WriteByte(']')
		return b.String()
	}
	return "<?>"
}

// RuntimeError is a Mini-Cecil runtime error (message-not-understood,
// type errors, aborts, ...). Dispatch faults carry the source position
// of the failing send, matching the locations internal/check reports
// statically.
type RuntimeError struct {
	Pos lang.Pos // zero when no source location applies
	Msg string
}

func (e *RuntimeError) Error() string {
	if e.Pos.Line > 0 {
		return fmt.Sprintf("runtime error at %s: %s", e.Pos, e.Msg)
	}
	return "runtime error: " + e.Msg
}

// Position returns the error's source position (zero when none
// applies), for the pipeline boundary's position extraction.
func (e *RuntimeError) Position() lang.Pos { return e.Pos }

// returnSignal implements (non-local) return via panic/recover.
type returnSignal struct {
	act *Activation
	val Value
}
