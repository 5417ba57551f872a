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

	// DisableInlining turns inlining off (ablation of the indirect
	// benefit of static binding).
	DisableInlining bool

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
	// inlineThreshold is the largest callee source body (IR nodes)
	// eligible for inlining.
	inlineThreshold = 48
	// maxInlineDepth bounds nested inlining.
	maxInlineDepth = 4
)

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
	// compiledBodies and irNodes count the version bodies built so far
	// and their total ir.Size, added under mu where EnsureBody installs
	// a body; onBody, when set, hears each installed body's counts.
	compiledBodies, irNodes int
	onBody                  func(staticBound, inlined int)

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

	// empty and intOrString are shared info sets: bottom, and the
	// classes a + yields when either operand may be a string.
	empty, intOrString *bits.Set

	// sendArgs, when non-nil, receives each send's argument class sets
	// as static binding sees them, indexed by CallSite.ID (SendArgSets).
	sendArgs [][]*bits.Set

	// Statistics. Atomic: method bodies compile on a worker pool and
	// each body's counts are added where it is installed; addition
	// commutes, so the totals stay deterministic under any compile order.
	inlinedCalls   atomic.Int64
	staticBound    atomic.Int64
	versionSelects atomic.Int64 // compile-time converted static→version-select
}

// Compile defines the program's versions under the given options and
// optimizes its global and field initializers. It builds no version
// body: a body is built on its version's first call (EnsureBody), as
// the paper's dynamic compilation does (§3.7.3), or for every static
// version at once by CompileAll.
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
	c, err := compileProgram(p, opts, out)
	if err == nil {
		err = c.CompileAll()
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

func compileProgram(p *ir.Program, opts Options, sendArgs [][]*bits.Set) (*Compiled, error) {
	if opts.Config == Selective && opts.Specializations == nil {
		return nil, fmt.Errorf("opt: Selective configuration requires Specializations")
	}
	c := &Compiled{
		Prog:          p,
		Opts:          opts,
		FieldInits:    map[*hier.Class][]ir.Node{},
		versions:      map[*hier.Method]*methodVersions{},
		retInfo:       map[*ir.Version]info{},
		retInProgress: map[*ir.Version]bool{},
		sendArgs:      sendArgs,
		empty:         bits.New(p.H.NumClasses()),
		intOrString:   bits.Union(p.H.B.Int.Singleton(), p.H.B.String.Singleton()),
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

// CompileAll builds the body of every version a static compile would
// build: all defined versions, except under Cust-MM, whose version set
// exists only on demand (the paper: Cust-MM "is practical only for
// dynamic compilation systems"), so CompileAll builds nothing there.
// Callers that report code space call it; a run builds only the bodies
// it reaches.
//
// The bodies compile on a GOMAXPROCS-sized worker pool. Versions are
// independent except for return-type analysis, whose recursion-cycle
// cutoff depends on compile order — that mode stays serial, in method
// order, so bodies remain deterministic. Per-version outcomes land in a
// slot array and the lowest-index error wins, so failures are
// deterministic too.
func (c *Compiled) CompileAll() error {
	if c.Opts.Config == CustMM {
		return nil
	}
	var all []*ir.Version
	for _, m := range c.Prog.H.Methods() {
		all = append(all, c.versions[m].list...)
	}
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

// isGeneralTuple reports whether tpl is the tuple of m's general
// version under the configuration: the one versionTuples defines for
// Base, Cust-MM, CHA and Selective. It compares in place, building no
// tuple.
func (c *Compiled) isGeneralTuple(m *hier.Method, tpl hier.Tuple) bool {
	switch c.Opts.Config {
	case CHA, Selective:
		if app, exact := c.Prog.H.ApplicableClassesExact(m); exact {
			return tpl.Equal(app)
		}
		fallthrough
	case Base, CustMM:
		if len(tpl) != len(m.Specs) {
			return false
		}
		for i, s := range m.Specs {
			if !tpl[i].Equal(s.Cone()) {
				return false
			}
		}
		return true
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
	key := make([]byte, 0, 4*len(positions))
	for _, p := range positions {
		if tpl[p].Len() != 1 {
			return "", false
		}
		key = appendClassID(key, tpl[p].Min())
	}
	return string(key), true
}

// appendClassID appends a class ID's full 32 bits to a version key, so
// IDs that agree in their low bits still key distinct versions.
func appendClassID(key []byte, id int) []byte {
	return append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
}

// classesKey appends the version key of the classes at positions to
// key. Callers pass a stack buffer and index the version map with
// string(key), which does not allocate.
func classesKey(key []byte, positions []int, classes []*hier.Class) []byte {
	for _, p := range positions {
		key = appendClassID(key, classes[p].ID)
	}
	return key
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
// Cust-MM it keys on exact classes (creating the version on demand for
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
		var buf [4]byte
		if v, ok := mv.byKey[string(appendClassID(buf[:0], classes[p].ID))]; ok {
			return v
		}
		return c.General(m)

	case CustMM:
		positions := m.GF.DispatchedPositions()
		if len(positions) == 0 {
			return mv.list[0]
		}
		var buf [16]byte
		key := classesKey(buf[:0], positions, classes)
		c.mu.Lock()
		v, ok := mv.byKey[string(key)]
		if !ok {
			tpl := c.Prog.H.GeneralTuple(m)
			for _, p := range positions {
				tpl[p].Clear()
				tpl[p].Add(classes[p].ID)
			}
			v = &ir.Version{Method: m, Tuple: tpl, Index: len(mv.list)}
			mv.list = append(mv.list, v)
			mv.byKey[string(key)] = v
		}
		c.mu.Unlock()
		return v

	case Selective:
		// The class IDs go in a stack buffer: a run-time selection over
		// a seen tuple allocates nothing (wider tuples than the buffer
		// fall back to the heap).
		var buf [8]int
		ids := buf[:0]
		for _, cl := range classes {
			ids = append(ids, cl.ID)
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
	Versions        int // defined versions, built or not
	CompiledBodies  int // version bodies built so far
	IRNodes         int // total IR nodes across built bodies
	InlinedCalls    int // over initializers and built bodies
	StaticBound     int
	VersionSelects  int
	SourceMethods   int
	SpecializedMeth int // methods with >1 version
}

// Stats computes statistics over the current compilation state.
func (c *Compiled) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Config:         c.Opts.Config,
		CompiledBodies: c.compiledBodies,
		IRNodes:        c.irNodes,
		InlinedCalls:   int(c.inlinedCalls.Load()),
		StaticBound:    int(c.staticBound.Load()),
		VersionSelects: int(c.versionSelects.Load()),
		SourceMethods:  len(c.Prog.H.Methods()),
	}
	for _, m := range c.Prog.H.Methods() {
		mv := c.versions[m]
		s.Versions += len(mv.list)
		if len(mv.list) > 1 {
			s.SpecializedMeth++
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
