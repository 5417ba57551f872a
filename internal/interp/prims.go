package interp

import (
	"fmt"

	"selspec/internal/ir"
)

// evalPrim implements the built-in primitive functions.
func (in *Interp) evalPrim(p ir.Prim, args []Value) Value {
	switch p {
	case ir.PrimPrint, ir.PrimPrintln:
		if in.Out != nil {
			if p == ir.PrimPrintln {
				fmt.Fprintln(in.Out, args[0].String())
			} else {
				fmt.Fprint(in.Out, args[0].String())
			}
		}
		return NilV

	case ir.PrimStr:
		return StrV(args[0].String())

	case ir.PrimNewArray:
		if args[0].K != KInt || args[0].I < 0 {
			fail("newarray size must be a non-negative integer, got %s", args[0])
		}
		return ArrV(NewArray(int(args[0].I)))

	case ir.PrimAGet:
		a, i := args[0].Arr(), args[1]
		if a == nil || i.K != KInt {
			fail("aget(%s, %s)", args[0], i)
		}
		v, ok := a.Load(i.I)
		if !ok {
			fail("array index %d out of range [0, %d)", i.I, a.Len())
		}
		return v

	case ir.PrimAPut:
		a, i, v := args[0].Arr(), args[1], args[2]
		if a == nil || i.K != KInt {
			fail("aput(%s, %s, _)", args[0], i)
		}
		if !a.Store(i.I, v) {
			fail("array index %d out of range [0, %d)", i.I, a.Len())
		}
		return v

	case ir.PrimALen:
		a := args[0].Arr()
		if a == nil {
			fail("alen on non-array %s", args[0])
		}
		return IntV(int64(a.Len()))

	case ir.PrimStrLen:
		if args[0].K != KStr {
			fail("strlen on non-string %s", args[0])
		}
		return IntV(int64(len(args[0].Str())))

	case ir.PrimSubstr:
		s, i, j := args[0].Str(), args[1], args[2]
		if args[0].K != KStr || i.K != KInt || j.K != KInt {
			fail("substr(%s, %s, %s)", args[0], i, j)
		}
		if i.I < 0 || j.I < i.I || j.I > int64(len(s)) {
			fail("substr bounds [%d, %d) out of range for length %d", i.I, j.I, len(s))
		}
		return StrV(s[i.I:j.I])

	case ir.PrimCharAt:
		s, i := args[0].Str(), args[1]
		if args[0].K != KStr || i.K != KInt {
			fail("charat(%s, %s)", args[0], i)
		}
		if i.I < 0 || i.I >= int64(len(s)) {
			fail("charat index %d out of range for length %d", i.I, len(s))
		}
		return StrV(string(s[i.I]))

	case ir.PrimOrd:
		if len(args[0].Str()) == 0 {
			fail("ord needs a non-empty string, got %s", args[0])
		}
		return IntV(int64(args[0].Str()[0]))

	case ir.PrimChr:
		if args[0].K != KInt || args[0].I < 0 || args[0].I > 255 {
			fail("chr needs an integer in [0, 255], got %s", args[0])
		}
		return StrV(string(rune(byte(args[0].I))))

	case ir.PrimAbort:
		fail("abort: %s", args[0])

	case ir.PrimClassName:
		return StrV(args[0].Class(in.H).Name)

	case ir.PrimSame:
		return BoolV(args[0].Equal(args[1]))
	}
	// Unknown primitives (a lowering/interpreter table mismatch) raise a
	// positioned RuntimeError instead of a bare Go panic, so the fault
	// is contained per compilation unit and reports file:line:col.
	failAt(in.g.callPos, "internal error: unknown primitive %d", p)
	panic("unreachable")
}
