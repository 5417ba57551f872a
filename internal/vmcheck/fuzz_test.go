package vmcheck_test

// FuzzVerify hammers the bytecode verifier with corrupted modules: a
// known-good program is compiled fresh, then one proc is damaged as the
// fuzz input directs — an instruction field rewritten, a side table or
// the code stream truncated, the register file shrunk. The verifier's
// contract under corruption is (a) never panic, and (b) when it does
// reject, return a positioned *vmcheck.Error naming the damaged proc.
// Many mutations are semantically harmless (e.g. swapping one constant
// index for another in-bounds one), so acceptance is not itself a
// failure — the differential target FuzzVMDiff covers behavioral
// correctness of accepted code.

import (
	"errors"
	"testing"

	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/lang"
	"selspec/internal/opt"
	"selspec/internal/vm"
	"selspec/internal/vmcheck"
)

// fuzzVerifySrc exercises every side table: dynamic sends, static
// calls, field ops, object construction, closures, arrays, primitives.
const fuzzVerifySrc = `
class P { field n : Int := 0; }
class Q isa P { }
method bump(p@P, k) { p.n := p.n + k; p.n; }
method bump(q@Q, k) { q.n := q.n + k + 1; q.n; }
method pick(i) { if i < 1 { new P(); } else { new Q(); } }
method main() {
  var i := 0;
  var acc := 0;
  var fs := newarray(1);
  aput(fs, 0, fn(x) { acc := acc + x; x + i; });
  while i < 3 {
    var f := aget(fs, 0);
    acc := acc + bump(pick(i), i) + f(i);
    i := i + 1;
  }
  acc;
}
`

func buildFuzzMachine(tb testing.TB) *vm.Machine {
	tb.Helper()
	parsed, err := lang.Parse(fuzzVerifySrc)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := ir.Lower(parsed)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := opt.Compile(prog, opt.Options{Config: opt.Base})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := vm.New(interp.New(c))
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.Module().CompileAll(); err != nil {
		tb.Fatal(err)
	}
	return m
}

func FuzzVerify(f *testing.F) {
	// One seed per mutation class; the fuzzer explores the rest.
	f.Add(uint8(0), uint16(0), uint8(0), int32(255))   // opcode rewrite
	f.Add(uint8(1), uint16(2), uint8(1), int32(-1))    // negative A operand
	f.Add(uint8(2), uint16(1), uint8(2), int32(1<<20)) // huge B index
	f.Add(uint8(0), uint16(3), uint8(3), int32(-7))    // negative C (branch target)
	f.Add(uint8(3), uint16(0), uint8(4), int32(9999))  // huge D index
	f.Add(uint8(0), uint16(0), uint8(5), int32(0))     // truncate constants
	f.Add(uint8(1), uint16(0), uint8(6), int32(1))     // truncate names
	f.Add(uint8(2), uint16(0), uint8(7), int32(2))     // truncate code
	f.Add(uint8(0), uint16(0), uint8(8), int32(1))     // shrink register file

	f.Fuzz(func(t *testing.T, procSel uint8, pcSel uint16, field uint8, val int32) {
		// A fresh machine per execution: mutations are in place and must
		// not accumulate across runs.
		m := buildFuzzMachine(t)
		procs := m.Module().Procs()
		if len(procs) == 0 {
			t.Fatal("no compiled procs")
		}
		p := procs[int(procSel)%len(procs)].Proc
		if len(p.Code) == 0 {
			return
		}
		pc := int(pcSel) % len(p.Code)

		switch field % 9 {
		case 0:
			p.Code[pc].Op = vm.Op(uint8(val))
		case 1:
			p.Code[pc].A = val
		case 2:
			p.Code[pc].B = val
		case 3:
			p.Code[pc].C = val
		case 4:
			p.Code[pc].D = val
		case 5:
			p.Consts = p.Consts[:int(uint32(val))%(len(p.Consts)+1)]
		case 6:
			p.Names = p.Names[:int(uint32(val))%(len(p.Names)+1)]
		case 7:
			p.Code = p.Code[:int(uint32(val))%len(p.Code)+1]
		case 8:
			// Shrink only: growing NumRegs is always sound for the
			// catalogue, and huge values would just stress allocation.
			p.NumRegs = int(uint32(val)) % (p.NumRegs + 1)
		}

		err := vmcheck.Verify(m)
		if err == nil {
			return // mutation happened to preserve every invariant
		}
		var ve *vmcheck.Error
		if !errors.As(err, &ve) {
			t.Fatalf("rejection is not a *vmcheck.Error: %T %v", err, err)
		}
		if ve.Proc == "" {
			t.Errorf("rejection names no proc: %v", ve)
		}
		if ve.Error() == "" {
			t.Error("rejection has empty message")
		}
	})
}
