package interp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"selspec/internal/ir"
	"selspec/internal/lang"
	"selspec/internal/opt"
)

func compileFor(t *testing.T, src string) *opt.Compiled {
	t.Helper()
	prog, err := ir.Lower(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	c, err := opt.Compile(prog, opt.Options{Config: opt.Base})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const deepRecursion = `
method f(n) { if n == 0 { 0; } else { f(n - 1); } }
method main() { f(100000000); }
`

// TestDepthLimitDefault: unbounded guest recursion must hit the default
// call-depth guard as a positioned RuntimeError, not fatally overflow
// the Go stack (which no recover could contain).
func TestDepthLimitDefault(t *testing.T) {
	in := New(compileFor(t, deepRecursion))
	_, err := in.Run()
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *RuntimeError", err, err)
	}
	if !strings.Contains(re.Msg, "call depth limit exceeded") {
		t.Fatalf("msg = %q", re.Msg)
	}
	// Anchored at the recursive call site, line 2 of the fixture.
	if re.Pos.Line != 2 {
		t.Errorf("pos = %v, want line 2", re.Pos)
	}
}

// TestDepthLimitConfigurable: the limit scales with DepthLimit — a
// recursion deeper than the limit faults, a shallower one completes.
func TestDepthLimitConfigurable(t *testing.T) {
	src := `
method f(n) { if n == 0 { 0; } else { f(n - 1); } }
method main() { f(200); }
`
	in := New(compileFor(t, src))
	in.DepthLimit = 100
	if _, err := in.Run(); err == nil || !strings.Contains(err.Error(), "call depth limit exceeded (100)") {
		t.Fatalf("limit 100: err = %v", err)
	}

	in = New(compileFor(t, src))
	in.DepthLimit = 1000
	if _, err := in.Run(); err != nil {
		t.Fatalf("limit 1000: err = %v", err)
	}
}

// TestDepthLimitRecoversAcrossRuns: after a depth fault the guard state
// is reset, so a fresh Run on the same interpreter is unaffected.
func TestDepthLimitRecoversAcrossRuns(t *testing.T) {
	in := New(compileFor(t, `
method f(n) { if n == 0 { 0; } else { f(n - 1); } }
method main() { f(50); }
`))
	in.DepthLimit = 10
	if _, err := in.Run(); err == nil {
		t.Fatal("first run: expected depth fault")
	}
	in.DepthLimit = 100
	if _, err := in.Run(); err != nil {
		t.Fatalf("second run: err = %v", err)
	}
}

// TestContextTimeout: a runaway loop is cancelled by a deadline as a
// RuntimeError naming the cause.
func TestContextTimeout(t *testing.T) {
	in := New(compileFor(t, `method main() { while true { 1; } }`))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	in.Ctx = ctx
	_, err := in.Run()
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *RuntimeError", err, err)
	}
	if !strings.Contains(re.Msg, "interpreter cancelled") ||
		!strings.Contains(re.Msg, context.DeadlineExceeded.Error()) {
		t.Fatalf("msg = %q", re.Msg)
	}
}

// TestContextCancelCause: an explicit cancellation cause surfaces in
// the error text.
func TestContextCancelCause(t *testing.T) {
	in := New(compileFor(t, `method main() { while true { 1; } }`))
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errors.New("grid cell evicted"))
	in.Ctx = ctx
	_, err := in.Run()
	if err == nil || !strings.Contains(err.Error(), "grid cell evicted") {
		t.Fatalf("err = %v", err)
	}
}

// TestStepLimitStillWins: the pre-existing step guard is unaffected by
// the new guards being present.
func TestStepLimitStillWins(t *testing.T) {
	in := New(compileFor(t, `method main() { while true { 1; } }`))
	in.StepLimit = 1000
	in.DepthLimit = 5
	if _, err := in.Run(); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("err = %v", err)
	}
}

// TestGuardTripSteps pins the exact step at which each guard trips: the
// step past the limit, and for a cancelled context the first multiple
// of CtxCheckInterval — also when the step count carries over from an
// earlier run on the same Guard.
func TestGuardTripSteps(t *testing.T) {
	tripAt := func(g *Guard) (n uint64, msg string) {
		defer func() {
			r := recover()
			re, ok := r.(*RuntimeError)
			if !ok {
				t.Fatalf("guard raised %v, want a *RuntimeError", r)
			}
			n, msg = g.Steps(), re.Msg
		}()
		for i := 0; i < 10*CtxCheckInterval; i++ {
			g.Step()
		}
		t.Fatal("guard never tripped")
		return 0, ""
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	var g Guard
	g.Arm(0, 0, nil)
	for i := 0; i < 60; i++ {
		g.Step() // unguarded: nothing can trip
	}
	g.Arm(100, 0, nil) // a later Arm tightens the guard mid-count
	if n, msg := tripAt(&g); n != 101 || !strings.Contains(msg, "step limit exceeded (100)") {
		t.Errorf("step limit 100 tripped at step %d: %s", n, msg)
	}
	g.Arm(0, 0, cancelled) // steps carry over from the run above
	if n, msg := tripAt(&g); n != CtxCheckInterval || !strings.Contains(msg, "cancelled") {
		t.Errorf("cancelled context tripped at step %d, want %d: %s", n, CtxCheckInterval, msg)
	}
	g.Arm(3*CtxCheckInterval+5, 0, cancelled)
	if n, _ := tripAt(&g); n != 2*CtxCheckInterval {
		t.Errorf("cancelled context under a step limit tripped at step %d, want %d", n, 2*CtxCheckInterval)
	}
	g.Arm(2*CtxCheckInterval+10, 0, context.Background())
	if n, msg := tripAt(&g); n != 2*CtxCheckInterval+11 || !strings.Contains(msg, "step limit") {
		t.Errorf("step limit under a live context tripped at step %d: %s", n, msg)
	}
}
