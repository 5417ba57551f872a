package interp

import (
	"testing"
	"unsafe"

	"selspec/internal/ir"
)

// TestValueSize pins the compact layout: a kind, an int word and one
// reference word. Every register move, field load and array load in
// both tiers copies a Value.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 24 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want <= 24", n)
	}
}

// TestValueAccessorsCheckKind: each accessor answers only for its own
// kind, so a value never yields another kind's reference.
func TestValueAccessorsCheckKind(t *testing.T) {
	o, c, a := &Object{}, &Closure{}, &Array{}
	vals := []Value{NilV, IntV(7), TrueV, FalseV, StrV("abc"), StrV(""), ObjV(o), CloV(c), ArrV(a)}
	for _, v := range vals {
		if got := v.Obj(); (v.K == KObj) != (got != nil) || (got != nil && got != o) {
			t.Errorf("%v (kind %d).Obj() = %p", v, v.K, got)
		}
		if got := v.Clo(); (v.K == KClosure) != (got != nil) || (got != nil && got != c) {
			t.Errorf("%v (kind %d).Clo() = %p", v, v.K, got)
		}
		if got := v.Arr(); (v.K == KArray) != (got != nil) || (got != nil && got != a) {
			t.Errorf("%v (kind %d).Arr() = %p", v, v.K, got)
		}
		if v.K != KStr && v.Str() != "" {
			t.Errorf("%v (kind %d).Str() = %q, want \"\"", v, v.K, v.Str())
		}
	}
	// An int whose value equals a string's length is still not a string.
	if s := IntV(3).Str(); s != "" {
		t.Errorf("IntV(3).Str() = %q", s)
	}
}

// TestStringValues covers the string encoding: the empty string, and
// concatenation, comparison and equality through the primitives.
func TestStringValues(t *testing.T) {
	empty := StrV("")
	if empty.K != KStr || empty.Str() != "" || empty.String() != "" {
		t.Errorf("StrV(\"\") = %+v %q", empty, empty.Str())
	}
	if !empty.Equal(StrV("")) || empty.Equal(NilV) || empty.Equal(IntV(0)) {
		t.Error("empty string equality wrong")
	}
	ab := EvalBin(ir.OpAdd, StrV("a"), StrV("b"))
	if ab.K != KStr || ab.Str() != "ab" {
		t.Errorf(`"a" + "b" = %v`, ab)
	}
	if v := EvalBin(ir.OpAdd, empty, StrV("x")); v.Str() != "x" {
		t.Errorf(`"" + "x" = %v`, v)
	}
	// Equal strings with distinct backing arrays compare equal.
	buf := []byte("ab")
	if v := EvalBin(ir.OpEQ, ab, StrV(string(buf))); v != TrueV {
		t.Errorf(`"ab" == "ab" = %v`, v)
	}
	if v := EvalBin(ir.OpNE, ab, StrV("ac")); v != TrueV {
		t.Errorf(`"ab" != "ac" = %v`, v)
	}
	if v := EvalBin(ir.OpLT, ab, StrV("ac")); v != TrueV {
		t.Errorf(`"ab" < "ac" = %v`, v)
	}
	val, out := run(t, `method main() { var s := "ab" + ""; println(s + "c"); println(s == "ab"); strlen(s + "cd"); }`)
	if val != "4" || out != "abc\ntrue\n" {
		t.Errorf("string program: value %q output %q", val, out)
	}
}

// TestArrayRepresentation: an array allocates nothing until its first
// store, keeps integers unboxed, and moves to boxed values for good on
// a store of a non-integer or of the integer reserved for nil.
func TestArrayRepresentation(t *testing.T) {
	a := NewArray(3)
	if v, ok := a.Load(2); !ok || v != NilV || a.ints != nil || a.vals != nil {
		t.Fatalf("fresh array: Load(2) = %v, %v; ints %v, vals %v", v, ok, a.ints, a.vals)
	}
	if a.TryStore(0, IntV(1)) {
		t.Error("TryStore succeeded before any storage exists")
	}
	a.Store(0, IntV(1))
	a.Store(2, IntV(-3))
	if a.ints == nil || a.vals != nil {
		t.Fatalf("integer stores boxed the array: ints %v, vals %v", a.ints, a.vals)
	}
	if v, _ := a.Load(1); v != NilV {
		t.Errorf("never-stored element of an integer array = %v, want nil", v)
	}
	if a.TryStore(1, IntV(nilInt)) || a.TryStore(1, NilV) {
		t.Error("TryStore accepted a value an integer array cannot hold")
	}
	a.Store(1, IntV(nilInt))
	if a.ints != nil || a.vals == nil {
		t.Fatalf("storing the reserved integer kept the array unboxed")
	}
	want := []Value{IntV(1), IntV(nilInt), IntV(-3)}
	for i, w := range want {
		if v, _ := a.Load(int64(i)); v != w {
			t.Errorf("after boxing, element %d = %v, want %v", i, v, w)
		}
	}
	a.Store(1, IntV(4))
	if a.vals == nil || a.ints != nil {
		t.Error("an integer store moved a boxed array back")
	}
	for _, i := range []int64{-1, 3} {
		if _, ok := a.Load(i); ok || a.Store(i, IntV(0)) {
			t.Errorf("index %d reads or stores in range", i)
		}
	}
	b := NewArray(2)
	b.Store(1, StrV("s"))
	if v, _ := b.Load(0); b.ints != nil || v != NilV {
		t.Errorf("first store of a string: ints %v, element 0 = %v", b.ints, v)
	}
}
