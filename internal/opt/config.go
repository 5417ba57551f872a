// Package opt is the optimizing middle end: it compiles lowered method
// bodies into per-version optimized IR under one of the five compiler
// configurations of the paper's Table 1 (Base, Cust, Cust-MM, CHA,
// Selective), performing intraprocedural class analysis, static binding
// of message sends, inlining, and closure elimination.
package opt

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"selspec/internal/bits"
	"selspec/internal/hier"
	"selspec/internal/ir"
)

// Config selects a compiler configuration (paper Table 1).
type Config int

// The five configurations evaluated in the paper.
const (
	// Base: intraprocedural class analysis, inlining, constant folding,
	// closure elimination, hard-wired prediction for primitives. One
	// compiled version per source method; formals carry no class info.
	Base Config = iota
	// Cust: Base + simple customization — one version per inheriting
	// class of the receiver (first dispatched) argument, as in Self,
	// Sather and Trellis.
	Cust
	// CustMM: Base + customization over every combination of dispatched
	// argument classes. Practical only with lazy (dynamic) compilation.
	CustMM
	// CHA: Base + class hierarchy analysis — formals are analyzed with
	// their applicable class sets, converting dynamically-bound calls
	// with no overriding methods into statically-bound ones.
	CHA
	// Selective: CHA + the paper's profile-guided selective
	// specialization algorithm (directives supplied via Options).
	Selective
)

var configNames = [...]string{"Base", "Cust", "Cust-MM", "CHA", "Selective"}

func (c Config) String() string {
	if int(c) < len(configNames) {
		return configNames[c]
	}
	return fmt.Sprintf("Config(%d)", int(c))
}

// ConfigNames returns the valid configuration names in paper order —
// the single source of truth for CLI help text and error messages.
func ConfigNames() []string { return append([]string(nil), configNames[:]...) }

// ParseConfig resolves a configuration name (as printed by String).
func ParseConfig(s string) (Config, error) {
	for i, n := range configNames {
		if n == s {
			return Config(i), nil
		}
	}
	return 0, fmt.Errorf("opt: unknown configuration %q (valid: %s)", s, strings.Join(configNames[:], ", "))
}

// Configs lists all configurations in paper order.
func Configs() []Config { return []Config{Base, Cust, CustMM, CHA, Selective} }

// Options controls compilation.
type Options struct {
	Config Config

	// Specializations supplies, for Selective, the specialization
	// tuples per method produced by the selective specialization
	// algorithm. Each list must include the method's general tuple and
	// be closed under pairwise non-empty intersection (the algorithm
	// guarantees both).
	Specializations map[*hier.Method][]hier.Tuple

	// InlineThreshold is the maximum callee source-body size (IR nodes)
	// eligible for inlining; 0 selects the default.
	InlineThreshold int
	// MaxInlineDepth bounds nested inlining; 0 selects the default.
	MaxInlineDepth int
	// DisableInlining turns inlining off (ablation of the indirect
	// benefit of static binding).
	DisableInlining bool

	// Lazy defers version body compilation to first invocation and, for
	// CustMM, creates version entries on demand — the paper's dynamic
	// compilation mode (§3.7.3, Figure 6 right). Compile sets it for
	// CustMM.
	Lazy bool

	// InstantiationAnalysis restricts CHA/Selective class sets to
	// classes the program actually instantiates (plus builtins) — Rapid
	// Type Analysis in the style of Bacon & Sweeney, the natural
	// companion the Vortex line adopted after the paper. Never-created
	// classes cannot appear at run time, so excluding them from formal
	// and field-read sets is sound and lets more sends bind (e.g.
	// abstract intermediate classes stop blocking unique-target proofs).
	InstantiationAnalysis bool

	// ReturnTypeAnalysis enables the paper's §6 future-work extension:
	// "specializing callers for the return values of the called
	// methods, so that knowledge of the class of the return value can
	// be propagated to the caller". Statically-bound calls then carry
	// the callee version's computed return class set instead of Top,
	// letting callers bind further sends. Off by default to keep the
	// evaluation faithful to the published system.
	ReturnTypeAnalysis bool
}

const (
	defaultInlineThreshold = 48
	defaultMaxInlineDepth  = 4
)

func (o Options) inlineThreshold() int {
	if o.DisableInlining {
		return 0
	}
	if o.InlineThreshold == 0 {
		return defaultInlineThreshold
	}
	return o.InlineThreshold
}

func (o Options) maxInlineDepth() int {
	if o.MaxInlineDepth == 0 {
		return defaultMaxInlineDepth
	}
	return o.MaxInlineDepth
}

// methodVersions tracks the compiled versions of one method.
type methodVersions struct {
	list []*ir.Version
	// byKey indexes CustMM/Cust versions by dispatched-class key for
	// O(1) runtime selection and lazy instantiation.
	byKey map[string]*ir.Version
}

// Compiled is a program compiled under one configuration: optimized
// global and field initializers plus the version set of every method.
// It is the unit the interpreter executes.
type Compiled struct {
	Prog *ir.Program
	Opts Options

	GlobalInits []ir.Node
	FieldInits  map[*hier.Class][]ir.Node

	mu       sync.Mutex
	versions map[*hier.Method]*methodVersions

	// globalInfos[i] is the class info of global i: derived from the
	// initializer for never-assigned globals (sound because reading an
	// uninitialized global is a runtime error), Top otherwise.
	globalInfos []info

	// instantiated is the set of class IDs the program can create
	// (InstantiationAnalysis); nil when the analysis is off.
	instantiated *bits.Set

	// retInfo caches each compiled version's return class info
	// (ReturnTypeAnalysis); retInProgress breaks recursion cycles.
	retInfo       map[*ir.Version]info
	retInProgress map[*ir.Version]bool

	// sendArgs, when non-nil, receives each send's argument class sets
	// as static binding sees them, indexed by CallSite.ID (SendArgSets).
	sendArgs [][]*bits.Set

	// Statistics. Atomic: method bodies compile on a worker pool and
	// each worker's analyzer bumps these; addition commutes, so the
	// totals stay deterministic under any compile order.
	inlinedCalls   atomic.Int64
	staticBound    atomic.Int64
	versionSelects atomic.Int64 // compile-time converted static→version-select
	lazyCompiles   atomic.Int64
}

// Compile compiles the program under the given options.
func Compile(p *ir.Program, opts Options) (*Compiled, error) {
	return compileProgram(p, opts, nil)
}

// SendArgSets runs the class analysis that every configuration shares,
// under CHA with inlining off, and reports each send's argument class
// sets just before static binding tries the send. out[id] belongs to
// the send whose CallSite.ID is id. A nil set is ⊤ (no information).
// out[id] itself is nil for a send the analysis never reaches, because
// constant folding proved its branch dead. instantiation sharpens the
// sets as InstantiationAnalysis does. internal/check reads its
// dispatch diagnostics from these sets.
func SendArgSets(p *ir.Program, instantiation bool) ([][]*bits.Set, error) {
	out := make([][]*bits.Set, len(p.Sites))
	opts := Options{Config: CHA, DisableInlining: true, InstantiationAnalysis: instantiation}
	if _, err := compileProgram(p, opts, out); err != nil {
		return nil, err
	}
	return out, nil
}

func compileProgram(p *ir.Program, opts Options, sendArgs [][]*bits.Set) (*Compiled, error) {
	if opts.Config == Selective && opts.Specializations == nil {
		return nil, fmt.Errorf("opt: Selective configuration requires Specializations")
	}
	// The paper: Cust-MM "is practical only for dynamic compilation
	// systems", so it always compiles lazily.
	opts.Lazy = opts.Lazy || opts.Config == CustMM
	c := &Compiled{
		Prog:          p,
		Opts:          opts,
		FieldInits:    map[*hier.Class][]ir.Node{},
		versions:      map[*hier.Method]*methodVersions{},
		retInfo:       map[*ir.Version]info{},
		retInProgress: map[*ir.Version]bool{},
		sendArgs:      sendArgs,
	}

	if opts.InstantiationAnalysis {
		c.computeInstantiated()
	}
	c.computeGlobalInfos()

	// Define version entries for every method.
	for _, m := range p.H.Methods() {
		mv := &methodVersions{byKey: map[string]*ir.Version{}}
		c.versions[m] = mv
		for _, tpl := range c.versionTuples(m) {
			c.defineVersion(m, tpl)
		}
	}

	// Compile bodies eagerly unless lazy.
	if !opts.Lazy {
		var all []*ir.Version
		for _, m := range p.H.Methods() {
			all = append(all, c.versions[m].list...)
		}
		if err := c.compileAll(all); err != nil {
			return nil, err
		}
	}

	// Global and field initializers are always compiled (they run once;
	// formals do not exist, so the configuration matters little).
	for _, g := range p.Globals {
		n, err := c.optimizeTopLevel(g.Init)
		if err != nil {
			return nil, err
		}
		c.GlobalInits = append(c.GlobalInits, n)
	}
	for cls, inits := range p.FieldInits {
		out := make([]ir.Node, len(inits))
		for i, init := range inits {
			if init == nil {
				continue
			}
			n, err := c.optimizeTopLevel(init)
			if err != nil {
				return nil, err
			}
			out[i] = n
		}
		c.FieldInits[cls] = out
	}
	return c, nil
}

// compileAll compiles every listed version body, fanning out over a
// GOMAXPROCS-sized worker pool. Versions are independent except for
// return-type analysis, whose recursion-cycle cutoff depends on
// compile order — that mode stays serial so bodies remain
// deterministic. Per-version outcomes land in a slot array and the
// lowest-index error wins, so failures are deterministic too.
func (c *Compiled) compileAll(all []*ir.Version) error {
	workers := runtime.GOMAXPROCS(0)
	if c.Opts.ReturnTypeAnalysis || workers < 2 || len(all) < 2 {
		for _, v := range all {
			if err := c.EnsureBody(v); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > len(all) {
		workers = len(all)
	}
	errs := make([]error, len(all))
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(errs) {
					return
				}
				errs[i] = ensureBodyContained(c, all[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ensureBodyContained compiles one version with a panic boundary. The
// pool's goroutines cannot rely on the pipeline guard on the calling
// goroutine — a recover never crosses goroutines — so a compiler panic
// here must become this version's error slot, not a process abort.
func ensureBodyContained(c *Compiled, v *ir.Version) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("compile %v panicked: %v\n%s", v, r, debug.Stack())
		}
	}()
	return c.EnsureBody(v)
}

// versionTuples lists the specialization tuples to define eagerly for a
// method under the current configuration.
func (c *Compiled) versionTuples(m *hier.Method) []hier.Tuple {
	h := c.Prog.H
	switch c.Opts.Config {
	case Base:
		return []hier.Tuple{h.GeneralTuple(m)}

	case CHA:
		return []hier.Tuple{c.generalTuple(m)}

	case Cust:
		// One version per class inheriting the method at the receiver
		// position (the first dispatched position). Methods whose GF
		// does not dispatch keep a single general version.
		pos := receiverPos(m.GF)
		if pos < 0 {
			return []hier.Tuple{h.GeneralTuple(m)}
		}
		app := h.ApplicableClasses(m)
		var out []hier.Tuple
		for _, id := range app[pos].Elems() {
			t := h.GeneralTuple(m)
			t[pos].Clear()
			t[pos].Add(id)
			out = append(out, t)
		}
		if len(out) == 0 {
			// Method unreachable by dispatch (fully shadowed): keep a
			// general version so static calls still have a target.
			out = []hier.Tuple{h.GeneralTuple(m)}
		}
		return out

	case CustMM:
		// Defined lazily from actual argument classes; start with the
		// general fallback so statically-reached calls have a target.
		return []hier.Tuple{h.GeneralTuple(m)}

	case Selective:
		if tuples, ok := c.Opts.Specializations[m]; ok && len(tuples) > 0 {
			out := make([]hier.Tuple, len(tuples))
			copy(out, tuples)
			return out
		}
		return []hier.Tuple{c.generalTuple(m)}
	}
	panic("opt: unknown config")
}

// generalTuple is the tuple used for the single version under CHA-like
// configurations: the exact ApplicableClasses when available, otherwise
// the always-safe cone tuple.
func (c *Compiled) generalTuple(m *hier.Method) hier.Tuple {
	h := c.Prog.H
	if app, exact := h.ApplicableClassesExact(m); exact {
		return app.Clone()
	}
	return h.GeneralTuple(m)
}

// receiverPos returns the first dispatched position of a GF, or -1.
func receiverPos(g *hier.GF) int {
	for _, p := range g.DispatchedPositions() {
		return p
	}
	return -1
}

// defineVersion registers a version entry (body compiled later).
func (c *Compiled) defineVersion(m *hier.Method, tpl hier.Tuple) *ir.Version {
	mv := c.versions[m]
	v := &ir.Version{
		Method:  m,
		Tuple:   tpl,
		Index:   len(mv.list),
		General: len(mv.list) == 0 && c.isGeneralTuple(m, tpl),
	}
	mv.list = append(mv.list, v)
	if key, ok := c.dispatchKey(m, tpl); ok {
		mv.byKey[key] = v
	}
	return v
}

func (c *Compiled) isGeneralTuple(m *hier.Method, tpl hier.Tuple) bool {
	switch c.Opts.Config {
	case Base, CustMM:
		return tpl.Equal(c.Prog.H.GeneralTuple(m))
	case CHA, Selective:
		return tpl.Equal(c.generalTuple(m))
	case Cust:
		return receiverPos(m.GF) < 0
	}
	return false
}

// dispatchKey builds the exact-class selection key for Cust/CustMM
// version tuples: the concatenation of singleton dispatched-position
// class IDs. Returns false when the tuple is not keyed that way.
func (c *Compiled) dispatchKey(m *hier.Method, tpl hier.Tuple) (string, bool) {
	var positions []int
	switch c.Opts.Config {
	case Cust:
		p := receiverPos(m.GF)
		if p < 0 {
			return "", false
		}
		positions = []int{p}
	case CustMM:
		positions = m.GF.DispatchedPositions()
		if len(positions) == 0 {
			return "", false
		}
	default:
		return "", false
	}
	key := make([]byte, 0, 2*len(positions))
	for _, p := range positions {
		if tpl[p].Len() != 1 {
			return "", false
		}
		id := tpl[p].Min()
		key = append(key, byte(id), byte(id>>8))
	}
	return string(key), true
}

func classesKey(positions []int, classes []*hier.Class) string {
	key := make([]byte, 0, 2*len(positions))
	for _, p := range positions {
		id := classes[p].ID
		key = append(key, byte(id), byte(id>>8))
	}
	return string(key)
}

// VersionsOf returns the currently defined versions of a method.
func (c *Compiled) VersionsOf(m *hier.Method) []*ir.Version {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*ir.Version(nil), c.versions[m].list...)
}

// General returns the method's general (fallback) version.
func (c *Compiled) General(m *hier.Method) *ir.Version {
	for _, v := range c.versions[m].list {
		if v.General {
			return v
		}
	}
	return c.versions[m].list[0]
}

// SelectVersion picks the version of m to run for the given actual
// argument classes — the paper's §3.5 run-time selection. For Cust and
// Cust-MM it keys on exact classes (creating the version lazily for
// Cust-MM); for Selective it returns the unique minimal specialization
// tuple containing the actuals (uniqueness follows from intersection
// closure); for Base/CHA it returns the single version.
func (c *Compiled) SelectVersion(m *hier.Method, classes []*hier.Class) *ir.Version {
	mv := c.versions[m]
	switch c.Opts.Config {
	case Base, CHA:
		return mv.list[0]

	case Cust:
		p := receiverPos(m.GF)
		if p < 0 {
			return mv.list[0]
		}
		if v, ok := mv.byKey[classesKey([]int{p}, classes)]; ok {
			return v
		}
		return c.General(m)

	case CustMM:
		positions := m.GF.DispatchedPositions()
		if len(positions) == 0 {
			return mv.list[0]
		}
		key := classesKey(positions, classes)
		c.mu.Lock()
		v, ok := mv.byKey[key]
		if !ok {
			tpl := c.Prog.H.GeneralTuple(m)
			for _, p := range positions {
				tpl[p].Clear()
				tpl[p].Add(classes[p].ID)
			}
			v = &ir.Version{Method: m, Tuple: tpl, Index: len(mv.list)}
			mv.list = append(mv.list, v)
			mv.byKey[key] = v
		}
		c.mu.Unlock()
		return v

	case Selective:
		ids := make([]int, len(classes))
		for i, cl := range classes {
			ids[i] = cl.ID
		}
		var best *ir.Version
		for _, v := range mv.list {
			if v.Tuple.ContainsIDs(ids) && (best == nil || v.Tuple.SubsetOf(best.Tuple)) {
				best = v
			}
		}
		if best == nil {
			best = c.General(m) // approximate-applicable fallback
		}
		return best
	}
	panic("opt: unknown config")
}

// Stats reports compile-time statistics.
type Stats struct {
	Config          Config
	Versions        int // defined versions (lazy: includes uncompiled)
	CompiledBodies  int
	IRNodes         int // total IR nodes across compiled bodies
	InlinedCalls    int
	StaticBound     int
	VersionSelects  int
	LazyCompiles    int
	SourceMethods   int
	SpecializedMeth int // methods with >1 version
}

// Stats computes statistics over the current compilation state.
func (c *Compiled) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Config:         c.Opts.Config,
		InlinedCalls:   int(c.inlinedCalls.Load()),
		StaticBound:    int(c.staticBound.Load()),
		VersionSelects: int(c.versionSelects.Load()),
		LazyCompiles:   int(c.lazyCompiles.Load()),
		SourceMethods:  len(c.Prog.H.Methods()),
	}
	for _, m := range c.Prog.H.Methods() {
		mv := c.versions[m]
		s.Versions += len(mv.list)
		if len(mv.list) > 1 {
			s.SpecializedMeth++
		}
		for _, v := range mv.list {
			if v.Body != nil {
				s.CompiledBodies++
				s.IRNodes += ir.Size(v.Body)
			}
		}
	}
	return s
}

// StaticVersionCount returns the number of versions a fully static
// (eager) compile would produce under this configuration. For Cust-MM
// this is computed analytically (the paper reports it the same way: the
// code-space requirements "make it impractical for statically-compiled
// systems").
func (c *Compiled) StaticVersionCount() int {
	h := c.Prog.H
	total := 0
	for _, m := range h.Methods() {
		switch c.Opts.Config {
		case CustMM:
			positions := m.GF.DispatchedPositions()
			if len(positions) == 0 {
				total++
				continue
			}
			app := h.ApplicableClasses(m)
			n := 1
			for _, p := range positions {
				n *= app[p].Len()
			}
			if n == 0 {
				n = 1 // unreachable method still has its source version
			}
			total += n
		default:
			total += len(c.versions[m].list)
		}
	}
	return total
}

// InvokedVersionCount counts versions whose bodies were actually
// compiled (in lazy mode: invoked at least once) — Figure 6 right.
func (c *Compiled) InvokedVersionCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, mv := range c.versions {
		for _, v := range mv.list {
			if v.Body != nil {
				n++
			}
		}
	}
	return n
}

// SpecializationHistogram returns, for methods with more than one
// version, the number of versions per such method, sorted descending
// (paper §3.2: "an average of 1.9 specializations per method receiving
// any specializations, with a maximum of 8").
func (c *Compiled) SpecializationHistogram() []int {
	var out []int
	for _, m := range c.Prog.H.Methods() {
		if n := len(c.versions[m].list); n > 1 {
			out = append(out, n)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
