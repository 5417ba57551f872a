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
