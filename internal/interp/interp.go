package interp

import (
	"context"
	"fmt"
	"io"
	"strings"

	"selspec/internal/dispatch"
	"selspec/internal/hier"
	"selspec/internal/ir"
	"selspec/internal/lang"
	"selspec/internal/opt"
	"selspec/internal/profile"
)

// Mechanism selects the run-time lookup mechanism for dynamically
// dispatched sends (§3.5 ablation).
type Mechanism int

// Lookup mechanisms.
const (
	// MechPIC uses per-site polymorphic inline caches backed by the
	// global lookup routine (the Cecil/Self arrangement).
	MechPIC Mechanism = iota
	// MechGlobal always runs the full lookup (no caching).
	MechGlobal
	// MechTables uses compressed multi-method dispatch tables, with a
	// per-site PIC only for version selection results.
	MechTables
)

var mechNames = [...]string{"PIC", "Global", "Tables"}

func (m Mechanism) String() string { return mechNames[m] }

// MechanismNames returns the valid dispatch-mechanism names — the
// single source of truth for CLI help text and error messages.
func MechanismNames() []string { return append([]string(nil), mechNames[:]...) }

// ParseMechanism resolves a mechanism name (as printed by String).
func ParseMechanism(s string) (Mechanism, error) {
	for i, n := range mechNames {
		if n == s {
			return Mechanism(i), nil
		}
	}
	return 0, fmt.Errorf("interp: unknown dispatch mechanism %q (valid: %s)", s, strings.Join(mechNames[:], ", "))
}

// Cycle cost model: abstract costs that mirror what the operations
// would cost in the paper's compiled code. Wall-clock interpreter time
// is also measurable, but the cycle counter is deterministic and
// machine-independent, so EXPERIMENTS.md reports it as "execution
// speed".
const (
	CostPrim          = 1
	CostBin           = 1
	CostFieldCached   = 2
	CostFieldLookup   = 6
	CostStaticCall    = 2
	CostClosureCall   = 4
	CostClosureMake   = 4
	CostMethodEntry   = 2
	CostPICHit        = 6
	CostFullLookup    = 30
	CostTableLookup   = 8
	CostVersionSelect = 8
	CostNewBase       = 4
)

// Counters aggregates the runtime event counts that Figures 5 and 6 are
// built from.
type Counters struct {
	Dispatches     uint64 // dynamically-dispatched sends executed
	PICHits        uint64
	PICMisses      uint64
	VersionSelects uint64 // run-time specialized-version selections on statically-bound calls
	StaticCalls    uint64
	ClosureCalls   uint64
	MethodEntries  uint64
	PrimOps        uint64
	Cycles         uint64 // abstract cost model total
}

// DynamicDispatches is the Figure-5 metric: dispatched sends plus
// version-selection tests (a hoisted dispatch is still a dispatch, just
// executed less often).
func (c Counters) DynamicDispatches() uint64 { return c.Dispatches + c.VersionSelects }

// Add accumulates other into c. Concurrent runs each keep their own
// Interp (and therefore their own Counters); aggregation into suite
// totals happens after the goroutines join, via this method, so no
// counter is ever shared between running interpreters.
func (c *Counters) Add(o Counters) {
	c.Dispatches += o.Dispatches
	c.PICHits += o.PICHits
	c.PICMisses += o.PICMisses
	c.VersionSelects += o.VersionSelects
	c.StaticCalls += o.StaticCalls
	c.ClosureCalls += o.ClosureCalls
	c.MethodEntries += o.MethodEntries
	c.PrimOps += o.PrimOps
	c.Cycles += o.Cycles
}

// Interp executes one compiled program. An Interp is single-goroutine
// state (PICs, counters, the invoked-version set); to run one Compiled
// program from several goroutines, give each its own Interp — the
// shared pieces underneath (Hierarchy.Lookup caches, eagerly-compiled
// version bodies, Compiled.SelectVersion) are safe for concurrent use.
// Lazy-compiling configurations (Cust-MM) additionally serialize body
// compilation through Compiled's internal lock, but sharing one lazy
// Compiled between concurrently-running interpreters is not supported.
type Interp struct {
	C *opt.Compiled
	H *hier.Hierarchy

	Out io.Writer // print/println target; nil discards

	Mech      Mechanism
	Counters  Counters
	Profile   *profile.CallGraph // non-nil: record (site, callee, weight) arcs
	StepLimit uint64             // 0 = unlimited; guards runaway programs

	// DepthLimit bounds the Mini-Cecil call depth (methods + closure
	// calls). eval is recursive, so unbounded guest recursion would
	// overflow the Go stack — a fatal, unrecoverable fault — before any
	// error boundary could contain it. 0 selects DefaultDepthLimit;
	// negative disables the guard (callers accept the overflow risk).
	// Exceeding the limit raises a positioned RuntimeError.
	DepthLimit int

	// Ctx, when non-nil, is polled every ctxCheckInterval steps: once it
	// is cancelled (deadline or explicit), the run aborts with a
	// RuntimeError. This is the per-cell wall-clock guard the experiment
	// harness threads through driver.RunOptions.
	Ctx context.Context

	// Trace, when non-nil, receives one line per dynamic dispatch and
	// version selection: which site dispatched to which method/version.
	// A debugging aid; enormous on real runs, so keep inputs small.
	Trace io.Writer

	// Obs, when non-nil, feeds the shared observability counters: PIC
	// and table behavior live, send/step totals flushed when Run ends.
	// Nil (the default) costs the hot path a few nil checks.
	Obs *Metrics

	Globals      []Value
	globalsReady []bool
	g            Guard // step/depth/cancellation limits, shared with the VM tier
	returning    bool  // a returnSignal unwind is in flight (see runBody)

	pics     []dispatch.PIC // per call-site ID, probed in place by the VM
	memos    []sendMemo     // per call-site ID; nil until the site's PIC is full
	mmTables map[*hier.GF]*dispatch.MMTable

	invoked map[*ir.Version]bool
}

// New prepares an interpreter for a compiled program.
func New(c *opt.Compiled) *Interp {
	in := &Interp{
		C:        c,
		H:        c.Prog.H,
		Mech:     MechPIC,
		pics:     make([]dispatch.PIC, len(c.Prog.Sites)),
		memos:    make([]sendMemo, len(c.Prog.Sites)),
		mmTables: map[*hier.GF]*dispatch.MMTable{},
		invoked:  map[*ir.Version]bool{},
	}
	return in
}

// InvokedVersions returns the number of distinct method versions that
// actually ran (Figure 6 right).
func (in *Interp) InvokedVersions() int { return len(in.invoked) }

// fail raises a Mini-Cecil runtime error.
func fail(format string, args ...any) {
	panic(&RuntimeError{Msg: fmt.Sprintf(format, args...)})
}

// failAt raises a Mini-Cecil runtime error anchored at a source
// position, so runtime dispatch faults point at the same location as
// the static diagnostics of internal/check.
func failAt(pos lang.Pos, format string, args ...any) {
	panic(&RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (in *Interp) charge(c uint64) { in.Counters.Cycles += c }

// step, enter and leave delegate to the shared Guard (guard.go) so the
// tree tier and the bytecode VM enforce byte-identical limits.
func (in *Interp) step()              { in.g.Step() }
func (in *Interp) enter(pos lang.Pos) { in.g.Enter(pos) }
func (in *Interp) leave()             { in.g.Leave() }

// Guard exposes the interpreter's resource guard. The bytecode VM runs
// against the same instance, so both tiers share one step budget, one
// depth counter and one cancellation poll cadence.
func (in *Interp) Guard() *Guard { return &in.g }

// Steps returns the interpreter steps charged so far (both tiers).
func (in *Interp) Steps() uint64 { return in.g.Steps() }

// Run initializes globals and invokes main(); it returns main's value.
func (in *Interp) Run() (v Value, err error) {
	defer in.Obs.flushRun(in)
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*RuntimeError); ok {
				err = re
				return
			}
			if _, ok := r.(returnSignal); ok {
				in.returning = false
				err = &RuntimeError{Msg: "return from a method activation that already exited"}
				return
			}
			panic(r)
		}
	}()

	in.g.Arm(in.StepLimit, in.DepthLimit, in.Ctx)
	in.returning = false

	in.Globals = make([]Value, len(in.C.GlobalInits))
	in.globalsReady = make([]bool, len(in.C.GlobalInits))
	for i, init := range in.C.GlobalInits {
		in.Globals[i] = in.eval(init, nil, nil)
		in.globalsReady[i] = true
	}

	if in.C.Prog.Main == nil {
		return NilV, fmt.Errorf("interp: program has no main() method")
	}
	m, derr := in.H.Lookup(in.C.Prog.Main)
	if derr != nil {
		return NilV, derr
	}
	return in.invoke(in.C.SelectVersion(m, nil), nil, lang.Pos{}), nil
}

// invoke runs one method version with the given arguments. pos is the
// call-site position (zero for main), anchoring depth-limit faults.
func (in *Interp) invoke(v *ir.Version, args []Value, pos lang.Pos) Value {
	in.enter(pos)
	defer in.leave()
	body, err := in.C.Body(v)
	if err != nil {
		fail("compile: %v", err)
	}
	if in.Profile != nil && len(args) > 0 {
		in.Profile.RecordEntry(v.Method, in.ClassesOf(args, make([]*hier.Class, 0, len(args))))
	}
	if !in.invoked[v] {
		in.invoked[v] = true
	}
	in.Counters.MethodEntries++
	in.charge(CostMethodEntry)
	in.step()

	fr := &Frame{Slots: make([]Value, v.NumSlots)}
	copy(fr.Slots, args)
	act := &Activation{alive: true}
	return in.runBody(body, fr, act)
}

// callClosureBody runs a closure body one call-depth level down, so
// closure recursion is bounded by the same guard as method recursion.
func (in *Interp) callClosureBody(clo *Closure, nf *Frame, pos lang.Pos) Value {
	in.enter(pos)
	defer in.leave()
	return in.eval(clo.Code.Body, nf, clo.Act)
}

// runBody evaluates a method body, catching returns aimed at this
// activation. The in.returning flag gates the recover: only a
// returnSignal unwind is ever intercepted here, and recovering +
// re-panicking a fatal RuntimeError at every activation would make a
// deep-stack fault (e.g. the call-depth guard tripping at 10,000)
// quadratic in depth — each re-panic restarts the runtime's unwinder.
// Letting fatal panics pass through unrecovered keeps them one linear
// unwind to Run's boundary.
func (in *Interp) runBody(body ir.Node, fr *Frame, act *Activation) (result Value) {
	defer func() {
		act.alive = false
		if !in.returning {
			return
		}
		if r := recover(); r != nil {
			if rs, ok := r.(returnSignal); ok && rs.act == act {
				in.returning = false
				result = rs.val
				return
			}
			panic(r) // a return aimed at an outer activation: keep unwinding
		}
	}()
	return in.eval(body, fr, act)
}

// dispatchSend performs dynamic dispatch for a send: lookup (via the
// configured mechanism) plus specialized version selection.
func (in *Interp) dispatchSend(site *ir.CallSite, args []Value) *ir.Version {
	classes := in.ClassesOf(args, make([]*hier.Class, 0, len(args)))
	return in.DispatchSendClasses(site, classes)
}

// DispatchSendClasses is the engine-shared core of dynamic dispatch:
// given the already-computed argument classes for a send, it runs the
// configured lookup mechanism, selects the specialized version, and
// charges exactly the counters the tree interpreter always has. The
// bytecode VM calls this with a reused scratch classes buffer — safe
// because every structure fed from here (PIC entries, the hierarchy's
// lookup cache, dispatch errors) copies or re-encodes the slice rather
// than retaining it.
func (in *Interp) DispatchSendClasses(site *ir.CallSite, classes []*hier.Class) *ir.Version {
	in.Counters.Dispatches++

	switch in.Mech {
	case MechPIC:
		pic := &in.pics[site.ID]
		if pic.Len() == 0 && in.Obs != nil {
			pic.M = in.Obs.PIC // the site's first dispatch
		}
		memo := in.memos[site.ID]
		if memo != nil {
			if t, ok := memo[memoKey(classes)]; ok {
				// A full lookup, as far as anything can observe.
				pic.NoteMiss()
				in.Counters.PICMisses++
				in.charge(CostFullLookup)
				in.H.NoteLookupHit(site.GF)
				in.record(site, t.Method)
				if in.Trace != nil {
					in.trace("lookup", site, t.Version)
				}
				return t.Version
			}
		}
		if t, ok := pic.Lookup(classes); ok {
			in.picHit(site, t)
			return t.Version
		}
		in.Counters.PICMisses++
		in.charge(CostFullLookup)
		m, derr := in.H.Lookup(site.GF, classes...)
		if derr != nil {
			failAt(site.Pos, "%v", derr)
		}
		v := in.C.SelectVersion(m, classes)
		t := dispatch.Target{Method: m, Version: v}
		if !pic.Megamorphic() {
			pic.Add(classes, t)
		} else if len(classes) == 1 || len(classes) == 2 {
			if memo == nil {
				memo = sendMemo{}
				in.memos[site.ID] = memo
			}
			if len(memo) < sendMemoCap {
				memo[memoKey(classes)] = t
			}
		}
		in.record(site, m)
		if in.Trace != nil {
			in.trace("lookup", site, v)
		}
		return v

	case MechGlobal:
		in.charge(CostFullLookup)
		m, derr := in.H.Lookup(site.GF, classes...)
		if derr != nil {
			failAt(site.Pos, "%v", derr)
		}
		in.record(site, m)
		return in.C.SelectVersion(m, classes)

	case MechTables:
		in.charge(CostTableLookup)
		m := in.tableLookup(site, classes)
		in.record(site, m)
		return in.C.SelectVersion(m, classes)
	}
	panic("interp: unknown mechanism")
}

// picHit charges a send resolved by a hit in its site's PIC, apart from
// the PIC's own counters and the Dispatches counter.
func (in *Interp) picHit(site *ir.CallSite, t dispatch.Target) {
	in.Counters.PICHits++
	in.charge(CostPICHit)
	in.record(site, t.Method)
	if in.Trace != nil {
		in.trace("pic-hit", site, t.Version)
	}
}

// sendMemo holds the targets of tuples that missed one send site's full
// PIC, keyed by memoKey. A full PIC never changes its tuples, so a
// memoized tuple misses it every time: replaying the miss's counters,
// cycle charge, GF-cache hit, profile record and trace line from the
// memo is indistinguishable from redoing the lookup and version
// selection, which the §3.5 cost model still charges in full.
type sendMemo map[uint64]dispatch.Target

// sendMemoCap bounds one site's memo; tuples beyond it take the full
// path every time.
const sendMemoCap = 64

// memoKey packs the full 32-bit class IDs of a one- or two-argument
// tuple. A site's arity is fixed, so arity needs no encoding.
func memoKey(classes []*hier.Class) uint64 {
	k := uint64(uint32(classes[0].ID))
	if len(classes) == 2 {
		k |= uint64(uint32(classes[1].ID)) << 32
	}
	return k
}

func (in *Interp) tableLookup(site *ir.CallSite, classes []*hier.Class) *hier.Method {
	if in.Obs != nil {
		in.Obs.TableLookups.Inc()
	}
	g := site.GF
	if len(g.DispatchedPositions()) == 0 {
		if len(g.Methods) == 1 {
			return g.Methods[0]
		}
	}
	t := in.mmTables[g]
	if t == nil {
		var err error
		t, err = dispatch.NewMMTable(in.H, g)
		if err != nil {
			fail("dispatch: %v", err)
		}
		in.mmTables[g] = t
	}
	m, amb := t.Lookup(classes)
	if m == nil {
		names := make([]string, len(classes))
		for i, c := range classes {
			names[i] = c.Name
		}
		if amb {
			failAt(site.Pos, "message ambiguous: %s(%s)", g.Name, strings.Join(names, ", "))
		}
		failAt(site.Pos, "message not understood: %s(%s)", g.Name, strings.Join(names, ", "))
	}
	return m
}

// checkFieldType enforces a declared field type on a store.
func (in *Interp) checkFieldType(cls *hier.Class, idx int, v Value) {
	dt := cls.Fields[idx].DeclType
	if dt == nil {
		return
	}
	if !v.Class(in.H).IsSubclassOf(dt) {
		fail("field %s.%s declared %s cannot hold %s",
			cls.Name, cls.Fields[idx].Name, dt.Name, v)
	}
}

// record adds one invocation to the profile call graph, if enabled.
func (in *Interp) record(site *ir.CallSite, callee *hier.Method) {
	if in.Profile != nil {
		in.Profile.Record(site, callee, 1)
	}
}

// trace logs one dispatch decision when tracing is on.
func (in *Interp) trace(kind string, site *ir.CallSite, v *ir.Version) {
	if in.Trace == nil {
		return
	}
	fmt.Fprintf(in.Trace, "%-8s site#%-4d %-14s -> %s\n", kind, site.ID, site.GF.Key(), v)
}

// eval evaluates one IR node. fr is the current frame (nil only in
// global initializers), act the enclosing method activation for
// returns.
func (in *Interp) eval(n ir.Node, fr *Frame, act *Activation) Value {
	switch n := n.(type) {
	case *ir.Const:
		switch n.Kind {
		case ir.KInt:
			return IntV(n.Int)
		case ir.KStr:
			return StrV(n.Str)
		case ir.KBool:
			return BoolV(n.Bool)
		default:
			return NilV
		}

	case *ir.Local:
		return fr.At(n.Depth, n.Slot)

	case *ir.SetLocal:
		v := in.eval(n.X, fr, act)
		fr.Set(n.Depth, n.Slot, v)
		return v

	case *ir.Global:
		if !in.globalsReady[n.Slot] {
			fail("global %s read before its initializer has run", n.Name)
		}
		return in.Globals[n.Slot]

	case *ir.SetGlobal:
		v := in.eval(n.X, fr, act)
		in.Globals[n.Slot] = v
		in.globalsReady[n.Slot] = true
		return v

	case *ir.GetField:
		obj := in.eval(n.Obj, fr, act)
		o := obj.Obj()
		if o == nil {
			fail("field %q read on non-object %s", n.Name, obj)
		}
		idx := n.Slot
		if idx < 0 {
			in.charge(CostFieldLookup)
			idx = o.Class.FieldIndex(n.Name)
			if idx < 0 {
				fail("class %s has no field %q", o.Class.Name, n.Name)
			}
		} else {
			in.charge(CostFieldCached)
		}
		return o.Fields[idx]

	case *ir.SetField:
		obj := in.eval(n.Obj, fr, act)
		v := in.eval(n.X, fr, act)
		o := obj.Obj()
		if o == nil {
			fail("field %q written on non-object %s", n.Name, obj)
		}
		idx := n.Slot
		if idx < 0 {
			in.charge(CostFieldLookup)
			idx = o.Class.FieldIndex(n.Name)
			if idx < 0 {
				fail("class %s has no field %q", o.Class.Name, n.Name)
			}
		} else {
			in.charge(CostFieldCached)
		}
		in.checkFieldType(o.Class, idx, v)
		o.Fields[idx] = v
		return v

	case *ir.Seq:
		var v Value = NilV
		for _, c := range n.Nodes {
			v = in.eval(c, fr, act)
		}
		return v

	case *ir.If:
		cond := in.eval(n.Cond, fr, act)
		b, ok := cond.Truthy()
		if !ok {
			fail("if condition is not a boolean: %s", cond)
		}
		in.charge(CostBin)
		if b {
			return in.eval(n.Then, fr, act)
		}
		if n.Else != nil {
			return in.eval(n.Else, fr, act)
		}
		return NilV

	case *ir.While:
		for {
			in.step()
			cond := in.eval(n.Cond, fr, act)
			b, ok := cond.Truthy()
			if !ok {
				fail("while condition is not a boolean: %s", cond)
			}
			in.charge(CostBin)
			if !b {
				return NilV
			}
			in.eval(n.Body, fr, act)
		}

	case *ir.Return:
		var v Value = NilV
		if n.X != nil {
			v = in.eval(n.X, fr, act)
		}
		if act == nil || !act.alive {
			fail("return from a method activation that already exited")
		}
		in.returning = true
		panic(returnSignal{act: act, val: v})

	case *ir.New:
		cls := n.Class
		in.charge(CostNewBase + uint64(len(cls.Fields)))
		obj := &Object{Class: cls, Fields: make([]Value, len(cls.Fields))}
		for i := range obj.Fields {
			obj.Fields[i] = NilV
		}
		for i, arg := range n.Args {
			obj.Fields[i] = in.eval(arg, fr, act)
		}
		inits := in.C.FieldInits[cls]
		for i := len(n.Args); i < len(cls.Fields); i++ {
			if i < len(inits) && inits[i] != nil {
				obj.Fields[i] = in.eval(inits[i], nil, nil)
			}
		}
		// Declared field types are enforced at construction: class
		// hierarchy analysis relies on every store conforming.
		for i := range cls.Fields {
			in.checkFieldType(cls, i, obj.Fields[i])
		}
		return ObjV(obj)

	case *ir.MakeClosure:
		in.charge(CostClosureMake)
		return CloV(&Closure{Code: n.Fn, Frame: fr, Act: act})

	case *ir.CallClosure:
		fn := in.eval(n.Fn, fr, act)
		clo := fn.Clo()
		if clo == nil {
			failAt(n.Pos, "calling a non-closure value %s", fn)
		}
		if len(n.Args) != clo.Code.NumParams {
			failAt(n.Pos, "closure expects %d arguments, got %d", clo.Code.NumParams, len(n.Args))
		}
		nf := &Frame{Slots: make([]Value, clo.Code.NumSlots), Parent: clo.Frame}
		for i, arg := range n.Args {
			nf.Slots[i] = in.eval(arg, fr, act)
		}
		in.Counters.ClosureCalls++
		in.charge(CostClosureCall)
		in.step()
		return in.callClosureBody(clo, nf, n.Pos)

	case *ir.Send:
		args := make([]Value, len(n.Args))
		for i, arg := range n.Args {
			args[i] = in.eval(arg, fr, act)
		}
		v := in.dispatchSend(n.Site, args)
		return in.invoke(v, args, n.Site.Pos)

	case *ir.StaticCall:
		args := make([]Value, len(n.Args))
		for i, arg := range n.Args {
			args[i] = in.eval(arg, fr, act)
		}
		in.Counters.StaticCalls++
		in.charge(CostStaticCall)
		in.record(n.Site, n.Target.Method)
		return in.invoke(n.Target, args, n.Site.Pos)

	case *ir.VersionSelect:
		args := make([]Value, len(n.Args))
		for i, arg := range n.Args {
			args[i] = in.eval(arg, fr, act)
		}
		v := in.SelectVersionClasses(n.Site, n.Method, in.ClassesOf(args, make([]*hier.Class, 0, len(args))))
		return in.invoke(v, args, n.Site.Pos)

	case *ir.Bin:
		l := in.eval(n.L, fr, act)
		r := in.eval(n.R, fr, act)
		in.Counters.PrimOps++
		in.charge(CostBin)
		return evalBin(n.Op, l, r)

	case *ir.Un:
		x := in.eval(n.X, fr, act)
		in.Counters.PrimOps++
		in.charge(CostBin)
		switch n.Op {
		case ir.OpNot:
			b, ok := x.Truthy()
			if !ok {
				fail("'!' on non-boolean %s", x)
			}
			return BoolV(!b)
		default:
			if x.K != KInt {
				fail("unary '-' on non-integer %s", x)
			}
			return IntV(-x.I)
		}

	case *ir.PrimCall:
		args := make([]Value, len(n.Args))
		for i, arg := range n.Args {
			args[i] = in.eval(arg, fr, act)
		}
		in.Counters.PrimOps++
		in.charge(CostPrim)
		return in.evalPrim(n.Prim, args)

	case *ir.And:
		l := in.eval(n.L, fr, act)
		b, ok := l.Truthy()
		if !ok {
			fail("'&&' on non-boolean %s", l)
		}
		in.charge(CostBin)
		if !b {
			return FalseV
		}
		r := in.eval(n.R, fr, act)
		if _, ok := r.Truthy(); !ok {
			fail("'&&' on non-boolean %s", r)
		}
		return r

	case *ir.Or:
		l := in.eval(n.L, fr, act)
		b, ok := l.Truthy()
		if !ok {
			fail("'||' on non-boolean %s", l)
		}
		in.charge(CostBin)
		if b {
			return TrueV
		}
		r := in.eval(n.R, fr, act)
		if _, ok := r.Truthy(); !ok {
			fail("'||' on non-boolean %s", r)
		}
		return r
	}
	// An unknown node is an interpreter bug, but it must surface as a
	// positioned, recoverable RuntimeError (anchored at the innermost
	// call site) rather than a bare Go panic string: the pipeline
	// boundary reports file:line:col and the rest of a grid keeps going.
	failAt(in.g.callPos, "internal error: unknown IR node %T", n)
	panic("unreachable")
}

func evalBin(op ir.BinOp, l, r Value) Value {
	switch op {
	case ir.OpEQ:
		return BoolV(l.Equal(r))
	case ir.OpNE:
		return BoolV(!l.Equal(r))
	case ir.OpAdd:
		if l.K == KInt && r.K == KInt {
			return IntV(l.I + r.I)
		}
		if l.K == KStr && r.K == KStr {
			return StrV(l.Str() + r.Str())
		}
		fail("'+' on %s and %s", l, r)
	case ir.OpLT, ir.OpLE, ir.OpGT, ir.OpGE:
		if l.K == KStr && r.K == KStr {
			switch op {
			case ir.OpLT:
				return BoolV(l.Str() < r.Str())
			case ir.OpLE:
				return BoolV(l.Str() <= r.Str())
			case ir.OpGT:
				return BoolV(l.Str() > r.Str())
			default:
				return BoolV(l.Str() >= r.Str())
			}
		}
		if l.K != KInt || r.K != KInt {
			fail("comparison on %s and %s", l, r)
		}
		switch op {
		case ir.OpLT:
			return BoolV(l.I < r.I)
		case ir.OpLE:
			return BoolV(l.I <= r.I)
		case ir.OpGT:
			return BoolV(l.I > r.I)
		default:
			return BoolV(l.I >= r.I)
		}
	}
	// Remaining arithmetic requires integers.
	if l.K != KInt || r.K != KInt {
		fail("'%s' on %s and %s", op, l, r)
	}
	switch op {
	case ir.OpSub:
		return IntV(l.I - r.I)
	case ir.OpMul:
		return IntV(l.I * r.I)
	case ir.OpDiv:
		if r.I == 0 {
			fail("division by zero")
		}
		return IntV(l.I / r.I)
	case ir.OpMod:
		if r.I == 0 {
			fail("modulo by zero")
		}
		return IntV(l.I % r.I)
	}
	panic("interp: unknown binary op")
}
