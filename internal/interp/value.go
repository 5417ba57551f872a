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

// Array is a mutable fixed-length vector.
type Array struct {
	Elems []Value
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
		for i, e := range v.Arr().Elems {
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
