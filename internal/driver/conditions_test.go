package driver

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"selspec/internal/interp"
	"selspec/internal/opt"
	"selspec/internal/pipeline"
	"selspec/internal/vm"
)

// condShapes returns condition shapes over the leaf placeholder "#":
// every shape nesting &&, || and ! to depth 2, and a fixed sample of
// the depth-3 shapes.
func condShapes() []string {
	grow := func(sub []string) []string {
		out := []string{"#"}
		for _, a := range sub {
			out = append(out, "!("+a+")")
		}
		for _, a := range sub {
			for _, b := range sub {
				out = append(out, "("+a+") && ("+b+")", "("+a+") || ("+b+")")
			}
		}
		return out
	}
	d1 := grow([]string{"#"})
	d2 := grow(d1)
	d3 := grow(d2)
	r := rand.New(rand.NewSource(19))
	shapes := append([]string(nil), d2...)
	for i := 0; i < 24; i++ {
		shapes = append(shapes, d3[len(d2)+r.Intn(len(d3)-len(d2))])
	}
	return shapes
}

// condLeaves are the boolean leaves ($ is the loop variable): constant,
// register and field comparisons, boolean locals, and a send that
// prints before it answers. condNonBools are the leaves that are not
// booleans: an integer local and a printing send.
var (
	condLeaves   = []string{"$ < 2", "a < $", "$ < o.n", "t", "f", "p($, $ > 1)", "$ == 1"}
	condNonBools = []string{"z", "p($, 5)"}
)

// condProgram puts cond in an If (statement form, or value form when
// valueIf) inside one loop and, conjoined with the loop bound, in a
// While condition, run first when whileFirst. The locals come out of an
// array so the optimizer cannot fold any leaf.
func condProgram(cond string, valueIf, whileFirst bool) string {
	ifCond := strings.ReplaceAll(cond, "$", "i")
	whileCond := strings.ReplaceAll(cond, "$", "w")
	ifLoop := fmt.Sprintf(`
  var i := 0;
  var hits := 0;
  while i < 4 {
    if %s { hits := hits + 1; } else { hits := hits + 10; }
    i := i + 1;
  }
  println(hits);`, ifCond)
	if valueIf {
		ifLoop = fmt.Sprintf(`
  var i := 0;
  var hits := 0;
  while i < 4 {
    hits := hits + (if %s { 1; } else { 10; });
    i := i + 1;
  }
  println(hits);`, ifCond)
	}
	whileLoop := fmt.Sprintf(`
  var w := 0;
  while w < 4 && (%s) { w := w + 1; }
  println(w);`, whileCond)
	body := ifLoop + whileLoop
	if whileFirst {
		body = whileLoop + ifLoop
	}
	return `
class Box { field n : Int := 2; }
method p(k@Int, v) { print(k); v; }
method main() {
  var bs := newarray(3);
  aput(bs, 0, true); aput(bs, 1, false); aput(bs, 2, 7);
  var t := aget(bs, 0);
  var f := aget(bs, 1);
  var z := aget(bs, 2);
  var a := alen(bs) - 2;
  var o := new Box();` + body + `
  0;
}
`
}

type condOutcome struct {
	val, out, err string
	counters      interp.Counters
	steps         uint64
}

// runCond builds src under cfg (Selective trains on the same engine)
// and runs it on eng, keeping the counters of a run that fails too.
func runCond(t *testing.T, src string, cfg opt.Config, eng Engine) condOutcome {
	t.Helper()
	p := MustLoad(src)
	c, _, err := p.Build(BuildOptions{
		Opt:   opt.Options{Config: cfg},
		Train: RunOptions{Engine: eng, Mechanism: interp.MechPIC, StepLimit: 1_000_000},
	})
	if err != nil {
		// Selective's training run failed: the same error, earlier.
		return condOutcome{err: strings.TrimPrefix(err.Error(), "training run: ")}
	}
	in := interp.New(c)
	var buf bytes.Buffer
	in.Out = &buf
	in.StepLimit = 1_000_000
	var val interp.Value
	var rerr error
	if eng == EngineVM {
		m, merr := vm.New(in)
		if merr != nil {
			t.Fatalf("vm compile: %v\n%s", merr, src)
		}
		if verr := pipeline.VerifyMachine("", cfg.String(), m); verr != nil {
			t.Fatalf("verify: %v\n%s", verr, src)
		}
		val, rerr = m.Run()
	} else {
		val, rerr = in.Run()
	}
	o := condOutcome{val: val.String(), out: buf.String(), counters: in.Counters, steps: in.Steps()}
	if rerr != nil {
		o.err = rerr.Error()
	}
	return o
}

// TestConditionShapesAllConfigs compiles If and While conditions that
// nest &&, || and ! to depth 3 over boolean leaves, and again with a
// non-boolean at each leaf position in turn, and runs them on both
// engines under every config. The VM compiles these conditions to
// jumping code that never materializes a boolean; it must still agree
// with the tree tier on the value, the output, the error text (the
// construct whose check fails) and every counter, cycles included.
func TestConditionShapesAllConfigs(t *testing.T) {
	n := 0
	for si, shape := range condShapes() {
		nleaf := strings.Count(shape, "#")
		for bad := -1; bad < nleaf; bad++ {
			cond, leaf := shape, 0
			for strings.Contains(cond, "#") {
				l := condLeaves[(leaf+si)%len(condLeaves)]
				if leaf == bad {
					l = condNonBools[(si+bad)%len(condNonBools)]
				}
				cond = strings.Replace(cond, "#", l, 1)
				leaf++
			}
			src := condProgram(cond, n%2 == 1, n%3 == 2)
			n++
			var ref condOutcome
			for ci, cfg := range opt.Configs() {
				tree := runCond(t, src, cfg, EngineTree)
				vmo := runCond(t, src, cfg, EngineVM)
				where := fmt.Sprintf("%v, condition %s", cfg, cond)
				if vmo != tree {
					t.Fatalf("%s: engines diverged:\n  tree: %+v\n  vm:   %+v\n%s", where, tree, vmo, src)
				}
				if ci == 0 {
					ref = tree
				} else if tree.err != ref.err || (tree.steps > 0 && (tree.val != ref.val || tree.out != ref.out)) {
					t.Fatalf("%s: diverged from Base: %+v, Base %+v", where, tree, ref)
				}
			}
			if bad < 0 && ref.err != "" {
				t.Fatalf("all-boolean condition %s failed: %s", cond, ref.err)
			}
		}
	}
	if n < 300 {
		t.Fatalf("only %d condition programs generated", n)
	}
}
