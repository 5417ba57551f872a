package interp

import (
	"context"
	"math"

	"selspec/internal/lang"
)

// DefaultDepthLimit is the call-depth guard applied when
// Interp.DepthLimit is zero. It is far above what the benchmarks need
// but low enough that the Go stack frames behind each guest call stay
// well under the runtime's stack ceiling.
const DefaultDepthLimit = 10_000

// CtxCheckInterval is how many interpreter steps pass between context
// polls: a power of two so the check is a mask, cheap enough to leave
// in the hot step path. Both execution tiers share this constant via
// Guard, so a cancelled run aborts after the same number of steps
// whichever engine executes it.
const CtxCheckInterval = 1024

// Guard is the shared resource-limit enforcer for both execution tiers
// (the tree-walking interpreter and the bytecode VM): step budget,
// Mini-Cecil call depth, and wall-clock cancellation via a context
// polled every CtxCheckInterval steps. Keeping one implementation —
// with identical trip messages, identical poll cadence, and identical
// step accounting — is what lets the differential tests demand
// byte-identical failure behavior across engines.
//
// A Guard is single-goroutine state, owned by the Interp whose run it
// protects; the VM borrows the same instance so both tiers draw from
// one step budget even when a run mixes them (e.g. tree fallback).
type Guard struct {
	stepLimit  uint64
	depthLimit int // resolved: <=0 disables, never the raw 0 sentinel
	ctx        context.Context

	steps   uint64
	next    uint64 // the step count at which Step must take its slow path
	depth   int
	callPos lang.Pos // innermost call-site position, for faults with no node position
}

// Arm resolves and installs the limits for one run. A zero depthLimit
// selects DefaultDepthLimit, negative disables the depth guard; a zero
// stepLimit or nil ctx disables those guards. The call depth resets to
// zero; the step counter is deliberately left running so repeated runs
// on one Interp keep accumulating into the same observable total.
func (g *Guard) Arm(stepLimit uint64, depthLimit int, ctx context.Context) {
	g.stepLimit = stepLimit
	g.depthLimit = depthLimit
	if g.depthLimit == 0 {
		g.depthLimit = DefaultDepthLimit
	}
	g.ctx = ctx
	g.depth = 0
	g.next = 0 // the first step recomputes it
}

// Step charges one interpreter step and trips the step-limit and
// cancellation guards. Both failure modes raise Mini-Cecil
// RuntimeErrors (the cancellation one anchored at the innermost call
// site), so they are contained by the normal run boundary. Step is
// small enough to inline: only the steps at which a guard could trip
// or a context poll is due call the slow path.
func (g *Guard) Step() {
	g.steps++
	if g.steps >= g.next {
		g.stepSlow()
	}
}

// stepSlow runs the guards for the current step, then sets next to the
// first later step at which one of them needs to run again: the step
// past the limit, or the next multiple of CtxCheckInterval.
func (g *Guard) stepSlow() {
	if g.stepLimit > 0 && g.steps > g.stepLimit {
		fail("step limit exceeded (%d)", g.stepLimit)
	}
	if g.ctx != nil && g.steps%CtxCheckInterval == 0 {
		select {
		case <-g.ctx.Done():
			failAt(g.callPos, "interpreter cancelled: %v", context.Cause(g.ctx))
		default:
		}
	}
	g.next = math.MaxUint64
	if g.stepLimit > 0 {
		g.next = g.stepLimit + 1
	}
	if g.ctx != nil {
		if poll := (g.steps/CtxCheckInterval + 1) * CtxCheckInterval; poll < g.next {
			g.next = poll
		}
	}
}

// Enter charges one level of Mini-Cecil call depth, failing with a
// positioned RuntimeError when the guard trips. pos is the call site
// (zero for main). Every Enter must be matched by a Leave on ordinary
// exits; non-local unwinds may skip Leaves and instead restore the
// absolute depth via SetDepth at the catch point.
func (g *Guard) Enter(pos lang.Pos) {
	g.depth++
	if g.depthLimit > 0 && g.depth > g.depthLimit {
		failAt(pos, "call depth limit exceeded (%d)", g.depthLimit)
	}
	if pos.Line > 0 {
		g.callPos = pos
	}
}

// Leave undoes one Enter.
func (g *Guard) Leave() { g.depth-- }

// Steps returns the total interpreter steps charged so far.
func (g *Guard) Steps() uint64 { return g.steps }

// Depth returns the current Mini-Cecil call depth.
func (g *Guard) Depth() int { return g.depth }

// SetDepth restores an absolute call depth. The bytecode VM uses this
// at non-local-return catch points: a returnSignal unwind skips the
// Leave of every frame between the throwing closure and the caught
// activation, and restoring the saved depth in one store replaces the
// per-frame deferred Leaves the tree interpreter relies on.
func (g *Guard) SetDepth(d int) { g.depth = d }

// CallPos returns the innermost call-site position recorded by Enter,
// the anchor for faults that carry no node position of their own.
func (g *Guard) CallPos() lang.Pos { return g.callPos }
