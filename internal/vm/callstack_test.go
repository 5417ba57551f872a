package vm_test

// Differential tests for the edges of the VM's flattened call stack:
// the frame stack growing by append under live frames, the register
// arena running out mid-recursion (calls then recurse natively through
// heap windows), non-local returns unwinding through flattened frames,
// closures entered in place, and guard trips raised deep inside the
// flattened stack. In every case value, output, error text, counters
// and steps must equal the tree interpreter's.

import (
	"bytes"
	"testing"

	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/lang"
	"selspec/internal/opt"
	"selspec/internal/vm"
)

// deepSrc recurses 3000 levels deep: far past the frame stack's first
// allocations, and past the 4096-value register arena (each level's
// window starts a few registers above its caller's).
const deepSrc = `
class Cell { field v : Int := 1; }
method down(n@Int, c@Cell, acc@Int) {
  if n == 0 { acc; } else { down(n - 1, c, acc + n % 7 + c.v); }
}
method main() {
  var c := new Cell();
  var r := down(3000, c, 0);
  println(r);
  r + down(40, c, 1);
}
`

// nonLocalSrc returns from find through the closure called at the
// bottom of a 60-level flattened walk, five times, then reuses the
// popped frame records for a walk that returns normally, and recurses
// through a closure entered in place at every level (its free variable
// read through the static chain).
const nonLocalSrc = `
method walk(f, n@Int) {
  if n == 0 { f(n); } else { walk(f, n - 1); }
  0;
}
method find(k@Int) {
  walk(fn(x) { return k * 2 + x; }, 60);
  99;
}
method rec(f, n@Int) {
  if n == 0 { 0; } else { f(n) + rec(f, n - 1); }
}
method main() {
  var s := 0;
  var j := 0;
  while j < 5 { s := s + find(j); println(s); j := j + 1; }
  var k := 3;
  s + walk(fn(x) { x; }, 30) + rec(fn(x) { x * k; }, 500);
}
`

// closureCtxSrc enters closure b in place from inside closure a, then
// has a read a free variable (through the static chain) and return
// non-locally after b returns: both need a's closure context restored
// when b's flattened frame pops. The closures and mk's receiver travel
// through arrays, so the optimizer cannot inline the calls away.
const closureCtxSrc = `
class M { } class M5 isa M { } class M6 isa M { }
method mk(m@M5) { var j := 5; fn(x) { x + j; }; }
method mk(m@M6) { var j := 6; fn(x) { x + j; }; }
method find(fs) {
  aput(fs, 1, fn(x) { var b := aget(fs, 0); var y := b(x); if y > 6 { return y; } 0; });
  var a := aget(fs, 1);
  var i := 0;
  while i < 5 { a(i); i := i + 1; }
  0 - 1;
}
method main() {
  var k := 10;
  var ms := newarray(1);
  aput(ms, 0, new M5());
  var fs := newarray(2);
  aput(fs, 0, mk(aget(ms, 0)));
  aput(fs, 1, fn(x) { var b := aget(fs, 0); var y := b(x); y + k; });
  var s := 0;
  var i := 0;
  while i < 3 { var a := aget(fs, 1); s := s + a(i); k := k + 1; i := i + 1; }
  println(s);
  s + find(fs);
}
`

type stackRun struct {
	out                diffOutcome
	frames, top, arena int
}

// runStack runs src under one engine with the given guards (0 = the
// interpreter's defaults) and, for the VM, the flattened stack's high
// water.
func runStack(t *testing.T, src string, cfg opt.Config, useVM bool, steps uint64, depth int) stackRun {
	t.Helper()
	parsed, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Lower(parsed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := opt.Compile(prog, opt.Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	in := interp.New(c)
	var buf bytes.Buffer
	in.Out = &buf
	in.StepLimit, in.DepthLimit = steps, depth
	var r stackRun
	var val interp.Value
	var rerr error
	if useVM {
		m, err := vm.New(in)
		if err != nil {
			t.Fatalf("%v: bytecode compile: %v", cfg, err)
		}
		val, rerr = m.Run()
		r.frames, r.top, r.arena = vm.FlattenedHighWater(m)
	} else {
		val, rerr = in.Run()
	}
	r.out = diffOutcome{val: val.String(), output: buf.String(), counters: in.Counters, steps: in.Steps()}
	if rerr != nil {
		r.out.errMsg = rerr.Error()
	}
	return r
}

// diffStack runs src under both engines for every configuration that
// needs no profile and fails on any divergence; it returns the VM runs.
func diffStack(t *testing.T, src string, steps uint64, depth int) map[opt.Config]stackRun {
	t.Helper()
	vms := map[opt.Config]stackRun{}
	for _, cfg := range []opt.Config{opt.Base, opt.Cust, opt.CustMM, opt.CHA} {
		tree := runStack(t, src, cfg, false, steps, depth).out
		v := runStack(t, src, cfg, true, steps, depth)
		if v.out.val != tree.val {
			t.Errorf("%v: value diverged: vm %q, tree %q", cfg, v.out.val, tree.val)
		}
		if v.out.errMsg != tree.errMsg {
			t.Errorf("%v: error diverged:\n  vm:   %q\n  tree: %q", cfg, v.out.errMsg, tree.errMsg)
		}
		if v.out.output != tree.output {
			t.Errorf("%v: output diverged: vm %q, tree %q", cfg, v.out.output, tree.output)
		}
		if v.out.counters != tree.counters {
			t.Errorf("%v: counters diverged:\n  vm:   %+v\n  tree: %+v", cfg, v.out.counters, tree.counters)
		}
		if v.out.steps != tree.steps {
			t.Errorf("%v: steps diverged: vm %d, tree %d", cfg, v.out.steps, tree.steps)
		}
		vms[cfg] = v
	}
	return vms
}

func TestCallStackDeepRecursion(t *testing.T) {
	for cfg, v := range diffStack(t, deepSrc, 0, 5000) {
		if v.out.errMsg != "" {
			t.Fatalf("%v: %s", cfg, v.out.errMsg)
		}
		// The flattened stack grew well past its first allocations, and
		// its windows climbed to within a few registers of the arena's
		// end: the next level could not fit and recursed natively.
		if v.frames < 1000 {
			t.Errorf("%v: flattened stack held only %d frames", cfg, v.frames)
		}
		if v.top < v.arena-32 {
			t.Errorf("%v: flattened windows reached register %d of %d: the arena never ran out", cfg, v.top, v.arena)
		}
	}
}

func TestCallStackNonLocalReturn(t *testing.T) {
	for cfg, v := range diffStack(t, nonLocalSrc, 0, 0) {
		if v.out.errMsg != "" {
			t.Fatalf("%v: %s", cfg, v.out.errMsg)
		}
		if v.frames < 400 {
			t.Errorf("%v: flattened stack held only %d frames", cfg, v.frames)
		}
	}
}

func TestCallStackClosureContext(t *testing.T) {
	for cfg, v := range diffStack(t, closureCtxSrc, 0, 0) {
		if v.out.errMsg != "" {
			t.Fatalf("%v: %s", cfg, v.out.errMsg)
		}
		if want := "58"; v.out.val != want {
			t.Errorf("%v: value %s, want %s", cfg, v.out.val, want)
		}
	}
}

// TestCallStackGuardTrips raises the depth and step guards deep inside
// the flattened stack (and, for the step limit, past the arena's end):
// the batched cycle and primitive charges must still be flushed exactly.
func TestCallStackGuardTrips(t *testing.T) {
	for _, tc := range []struct {
		name  string
		src   string
		steps uint64
		depth int
	}{
		{"depth", deepSrc, 0, 2000},
		{"steps mid-arena", deepSrc, 800, 5000},
		{"steps past arena", deepSrc, 2900, 5000},
		{"steps in walk", nonLocalSrc, 200, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for cfg, v := range diffStack(t, tc.src, tc.steps, tc.depth) {
				if v.out.errMsg == "" {
					t.Errorf("%v: the guard did not trip", cfg)
				}
			}
		})
	}
}
