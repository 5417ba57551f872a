// Package hier models the class hierarchy and generic functions of a
// Mini-Cecil program: the multiple-inheritance class DAG, multi-method
// specificity and lookup, cones (a class plus all its descendants), and
// the ApplicableClasses computation that the PLDI'95 selective
// specialization algorithm is built on.
package hier

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"selspec/internal/bits"
	"selspec/internal/lang"
)

// Names of the built-in classes. They are real classes in the
// hierarchy, so user methods can dispatch on them ("method fib(n@Int)").
const (
	AnyName     = "Any"
	IntName     = "Int"
	BoolName    = "Bool"
	StringName  = "String"
	NilName     = "Nil"
	ArrayName   = "Array"
	ClosureName = "Closure"
)

var builtinNames = []string{AnyName, IntName, BoolName, StringName, NilName, ArrayName, ClosureName}

// Field is one instance field (slot) of a class, with the class that
// declared it, its optional declared type, and its optional default
// initializer expression. When DeclType is non-nil the runtime rejects
// stores of non-conforming values (including nil), which is what lets
// class hierarchy analysis trust the cone of the declared type for
// field reads.
type Field struct {
	Name     string
	TypeName string // "" = untyped
	DeclType *Class // resolved by Build/ResolveFieldTypes; nil = untyped
	Init     lang.Expr
	Owner    *Class
}

// Class is one class in the hierarchy.
type Class struct {
	ID      int
	Name    string
	Parents []*Class

	// Fields is the flattened slot layout: inherited fields first (in
	// parent declaration order, deduplicated), then own fields.
	Fields    []Field
	OwnFields []Field

	ancestors *bits.Set // self + transitive parents
	cone      *bits.Set // self + transitive children; valid after Freeze
	singleton *bits.Set // {ID}; valid after Freeze
}

func (c *Class) String() string { return c.Name }

// FieldIndex returns the slot index of the named field, or -1.
func (c *Class) FieldIndex(name string) int {
	for i, f := range c.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// IsSubclassOf reports whether c ⊑ d (reflexive).
func (c *Class) IsSubclassOf(d *Class) bool { return c.ancestors.Has(d.ID) }

// Cone returns the set of class IDs of c and all its descendants.
// Valid only after Hierarchy.Freeze.
func (c *Class) Cone() *bits.Set {
	if c.cone == nil {
		panic("hier: Cone called before Freeze")
	}
	return c.cone
}

// Singleton returns the set {c.ID}, built once by Hierarchy.Freeze and
// shared by every caller, which must not modify it. Valid only after
// Freeze.
func (c *Class) Singleton() *bits.Set {
	if c.singleton == nil {
		panic("hier: Singleton called before Freeze")
	}
	return c.singleton
}

// Method is one multi-method: an implementation attached to a generic
// function with one specializer class per formal position.
type Method struct {
	ID    int // global, dense; index into Hierarchy.Methods()
	GF    *GF
	Specs []*Class // specializer per position; Any for undispatched
	Decl  *lang.MethodDecl
}

// Name returns a human-readable identity like "do(@ListSet,@Any)".
func (m *Method) Name() string {
	var b strings.Builder
	b.WriteString(m.GF.Name)
	b.WriteByte('(')
	for i, s := range m.Specs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('@')
		b.WriteString(s.Name)
	}
	b.WriteByte(')')
	return b.String()
}

func (m *Method) String() string { return m.Name() }

// SpecializesOn reports whether this method dispatches on position i
// (i.e. its specializer there is not Any).
func (m *Method) SpecializesOn(i int, h *Hierarchy) bool { return m.Specs[i] != h.Any() }

// PointwiseLE reports whether m's specializer tuple is pointwise ⊑ n's
// (m at least as specific as n at every position).
func (m *Method) PointwiseLE(n *Method) bool {
	for i := range m.Specs {
		if !m.Specs[i].IsSubclassOf(n.Specs[i]) {
			return false
		}
	}
	return true
}

// Overrides reports whether m strictly overrides n: pointwise ⊑ and
// not identical tuples.
func (m *Method) Overrides(n *Method) bool {
	if m == n || !m.PointwiseLE(n) {
		return false
	}
	for i := range m.Specs {
		if m.Specs[i] != n.Specs[i] {
			return true
		}
	}
	return false
}

// GF is a generic function: all methods sharing a name and arity.
type GF struct {
	Name    string
	Arity   int
	Methods []*Method

	dispatched []bool   // positions where some method specializes
	positions  []int    // the true indices of dispatched (DispatchedPositions)
	cache      *gfCache // memoized lookups; installed by Freeze
	poles      []*Poles // per position, computed on demand; guarded by Hierarchy.polesMu
}

// Key returns the map key "name/arity" identifying the GF.
func (g *GF) Key() string { return GFKey(g.Name, g.Arity) }

// GFKey builds the canonical generic-function key.
func GFKey(name string, arity int) string { return fmt.Sprintf("%s/%d", name, arity) }

// DispatchedPositions returns the argument positions this generic
// function actually dispatches on, in increasing order. The slice is
// shared and must not be modified; AddMethod replaces it, never writes
// into it.
func (g *GF) DispatchedPositions() []int { return g.positions }

// DispatchesOn reports whether position i is a dispatched position.
func (g *GF) DispatchesOn(i int) bool {
	return i < len(g.dispatched) && g.dispatched[i]
}

// DispatchError reports a failed lookup.
type DispatchError struct {
	GF        *GF
	Classes   []*Class
	Ambiguous bool // false = message not understood
}

func (e *DispatchError) Error() string {
	names := make([]string, len(e.Classes))
	for i, c := range e.Classes {
		names[i] = c.Name
	}
	what := "message not understood"
	if e.Ambiguous {
		what = "message ambiguous"
	}
	return fmt.Sprintf("%s: %s(%s)", what, e.GF.Name, strings.Join(names, ", "))
}

// Hierarchy is the full class hierarchy and method set of a program.
// Build one with New, add classes/methods, then Freeze before using
// cones, lookup, or ApplicableClasses.
type Hierarchy struct {
	classes []*Class
	byName  map[string]*Class
	gfs     map[string]*GF
	gfList  []*GF
	methods []*Method
	frozen  bool

	any        *Class
	allClasses *bits.Set

	// B caches the built-in class pointers. Runtime class computation
	// (interp.Value.Class) sits on the dispatch hot path of both
	// execution tiers, so it reads these fields instead of paying a
	// name-map lookup per argument per send.
	B Builtins

	// applicableMu guards the ApplicableClasses memo: compilations of
	// different configurations may share one frozen hierarchy across
	// goroutines (the parallel benchmark harness does).
	applicableMu    sync.Mutex
	applicableMemo  map[*Method]Tuple
	applicableExact map[*Method]bool

	// polesMu guards every GF's pole memo (see Poles) and the work
	// buffer computePoles sweeps with. It is taken inside applicableMu,
	// never the other way round.
	polesMu sync.Mutex
	poleBuf []int

	// lookupMetrics, when set, observes the gfCache hit/miss behavior
	// of Lookup (see obs.go). Atomic so observation can be attached
	// while concurrent lookups are in flight.
	lookupMetrics atomic.Pointer[LookupMetrics]
}

// New returns a hierarchy pre-populated with the built-in classes.
func New() *Hierarchy {
	h := &Hierarchy{
		byName:         map[string]*Class{},
		gfs:            map[string]*GF{},
		applicableMemo: map[*Method]Tuple{},
	}
	for _, name := range builtinNames {
		var parents []*Class
		if name != AnyName {
			parents = []*Class{h.any}
		}
		c, err := h.AddClass(name, parents, nil)
		if err != nil {
			panic(err) // cannot happen: fixed names
		}
		if name == AnyName {
			h.any = c
		}
	}
	h.B = Builtins{
		Any:     h.byName[AnyName],
		Int:     h.byName[IntName],
		Bool:    h.byName[BoolName],
		String:  h.byName[StringName],
		Nil:     h.byName[NilName],
		Array:   h.byName[ArrayName],
		Closure: h.byName[ClosureName],
	}
	return h
}

// Builtins holds the built-in class pointers, resolved once at
// hierarchy construction.
type Builtins struct {
	Any, Int, Bool, String, Nil, Array, Closure *Class
}

// Any returns the root class.
func (h *Hierarchy) Any() *Class { return h.any }

// Builtin returns the named builtin class; panics on unknown names
// (programming error, not user error).
func (h *Hierarchy) Builtin(name string) *Class {
	c := h.byName[name]
	if c == nil {
		panic("hier: unknown builtin " + name)
	}
	return c
}

// Class looks up a class by name.
func (h *Hierarchy) Class(name string) (*Class, bool) {
	c, ok := h.byName[name]
	return c, ok
}

// Classes returns all classes, indexed by ID.
func (h *Hierarchy) Classes() []*Class { return h.classes }

// NumClasses returns the number of classes.
func (h *Hierarchy) NumClasses() int { return len(h.classes) }

// AllClasses returns the set of every class ID. Valid after Freeze.
func (h *Hierarchy) AllClasses() *bits.Set {
	if h.allClasses == nil {
		panic("hier: AllClasses called before Freeze")
	}
	return h.allClasses
}

// Methods returns all methods, indexed by ID.
func (h *Hierarchy) Methods() []*Method { return h.methods }

// GFs returns all generic functions in definition order.
func (h *Hierarchy) GFs() []*GF { return h.gfList }

// GF returns the generic function for name/arity, if any.
func (h *Hierarchy) GF(name string, arity int) (*GF, bool) {
	g, ok := h.gfs[GFKey(name, arity)]
	return g, ok
}

// Arities returns the sorted arities for which a generic function with
// the given name is defined (diagnostics: "f/1 undefined, but f/2
// exists").
func (h *Hierarchy) Arities(name string) []int {
	var out []int
	for _, g := range h.gfList {
		if g.Name == name {
			out = append(out, g.Arity)
		}
	}
	sort.Ints(out)
	return out
}

// AddClass declares a new class. Parents defaults to [Any] when empty.
// Field layouts are flattened immediately, so parents must be declared
// before children (the program loader guarantees this by processing
// declarations in order; forward references are a load error).
func (h *Hierarchy) AddClass(name string, parents []*Class, ownFields []Field) (*Class, error) {
	if h.frozen {
		return nil, fmt.Errorf("hier: AddClass(%s) after Freeze", name)
	}
	if _, dup := h.byName[name]; dup {
		return nil, fmt.Errorf("hier: class %s already defined", name)
	}
	if len(parents) == 0 && h.any != nil {
		parents = []*Class{h.any}
	}
	c := &Class{ID: len(h.classes), Name: name, Parents: parents}

	c.ancestors = bits.New(len(h.classes) + 1)
	c.ancestors.Add(c.ID)
	for _, p := range parents {
		c.ancestors.AddAll(p.ancestors)
	}

	// Flatten fields: inherited (dedup by name, first wins must be
	// unique) then own. A single parent's layout is already unique, so
	// only multiple inheritance needs the name map.
	n := len(ownFields)
	for _, p := range parents {
		n += len(p.Fields)
	}
	if n > 0 {
		c.Fields = make([]Field, 0, n)
	}
	var seen map[string]*Class
	if len(parents) > 1 {
		seen = make(map[string]*Class, n)
	}
	for _, p := range parents {
		for _, f := range p.Fields {
			if seen != nil {
				if prev, dup := seen[f.Name]; dup {
					if prev != f.Owner {
						return nil, fmt.Errorf("hier: class %s inherits conflicting field %q from %s and %s",
							name, f.Name, prev.Name, f.Owner.Name)
					}
					continue // diamond: same declaration, keep one copy
				}
				seen[f.Name] = f.Owner
			}
			c.Fields = append(c.Fields, f)
		}
	}
	if len(ownFields) > 0 {
		c.OwnFields = make([]Field, 0, len(ownFields))
	}
	for _, f := range ownFields {
		if c.FieldIndex(f.Name) >= 0 {
			return nil, fmt.Errorf("hier: class %s redeclares field %q", name, f.Name)
		}
		f.Owner = c
		c.Fields = append(c.Fields, f)
		c.OwnFields = append(c.OwnFields, f)
	}

	h.classes = append(h.classes, c)
	h.byName[name] = c
	return c, nil
}

// AddMethod declares a method on the generic function name/len(specs).
func (h *Hierarchy) AddMethod(name string, specs []*Class, decl *lang.MethodDecl) (*Method, error) {
	if h.frozen {
		return nil, fmt.Errorf("hier: AddMethod(%s) after Freeze", name)
	}
	key := GFKey(name, len(specs))
	g := h.gfs[key]
	if g == nil {
		g = &GF{Name: name, Arity: len(specs), dispatched: make([]bool, len(specs))}
		h.gfs[key] = g
		h.gfList = append(h.gfList, g)
	}
	for _, existing := range g.Methods {
		same := true
		for i := range specs {
			if existing.Specs[i] != specs[i] {
				same = false
				break
			}
		}
		if same {
			return nil, fmt.Errorf("hier: method %s already defined with the same specializers", existing.Name())
		}
	}
	m := &Method{ID: len(h.methods), GF: g, Specs: specs, Decl: decl}
	g.Methods = append(g.Methods, m)
	h.methods = append(h.methods, m)
	for i, s := range specs {
		if s != h.any && !g.dispatched[i] {
			g.dispatched[i] = true
			var pos []int
			for j, d := range g.dispatched {
				if d {
					pos = append(pos, j)
				}
			}
			g.positions = pos
		}
	}
	return m, nil
}

// Freeze finalizes the hierarchy: computes cones and singleton sets and
// enables lookup and ApplicableClasses.
func (h *Hierarchy) Freeze() {
	if h.frozen {
		return
	}
	h.frozen = true
	h.allClasses = bits.New(len(h.classes))
	for _, c := range h.classes {
		h.allClasses.Add(c.ID)
		c.cone = bits.New(len(h.classes))
		c.singleton = bits.New(len(h.classes))
		c.singleton.Add(c.ID)
	}
	// cone(a) = {c : a ∈ ancestors(c)}.
	for _, c := range h.classes {
		c.ancestors.ForEach(func(aid int) bool {
			h.classes[aid].cone.Add(c.ID)
			return true
		})
	}
	for _, g := range h.gfList {
		g.cache = newGFCache(g.Arity, len(h.classes))
	}
}

// Frozen reports whether Freeze has run.
func (h *Hierarchy) Frozen() bool { return h.frozen }

// ConeSet returns the cone of a class as a set, and the full class set
// for Any (identical, but avoids the panic path pre-freeze misuse).
func (h *Hierarchy) ConeSet(c *Class) *bits.Set { return c.Cone() }

// Lookup performs multi-method dispatch for the given argument classes:
// it returns the unique most-specific applicable method, or a
// DispatchError (message not understood / ambiguous).
//
// After Freeze, Lookup is safe for concurrent use by multiple
// goroutines and allocation-free on cache hits (the gfCache keeps a
// dense per-class slot for single dispatch and a packed integer key
// for small arities).
func (h *Hierarchy) Lookup(g *GF, classes ...*Class) (*Method, *DispatchError) {
	if len(classes) != g.Arity {
		panic(fmt.Sprintf("hier: Lookup %s with %d classes", g.Key(), len(classes)))
	}
	cache := g.cache
	if cache == nil { // pre-Freeze: uncached
		return h.lookupSlow(g, classes)
	}
	lm := h.lookupMetrics.Load()
	if r, ok := cache.get(classes); ok {
		if lm != nil {
			lm.CacheHits.Inc()
		}
		return r.m, r.err
	}
	m, err := h.lookupSlow(g, classes)
	// Only the goroutine that stores the result counts a miss; one that
	// lost the race to store the same tuple counts a hit, so misses equal
	// the number of distinct tuples looked up.
	stored := cache.put(classes, lookupResult{m: m, err: err})
	if lm != nil {
		if stored {
			lm.CacheMisses.Inc()
		} else {
			lm.CacheHits.Inc()
		}
	}
	return m, err
}

// NoteLookupHit replays the metrics of a Lookup of g that hits the
// cache, for a caller that memoized the result of an earlier Lookup of
// the same tuple (which left it cached) and skips the call.
func (h *Hierarchy) NoteLookupHit(g *GF) {
	if g.cache == nil {
		return
	}
	if lm := h.lookupMetrics.Load(); lm != nil {
		lm.CacheHits.Inc()
	}
}

// lookupSlow finds the most-specific applicable method without
// allocating on success: pass 1 picks the candidate, pass 2 checks it
// is ⊑ every applicable method. Only the error paths allocate.
func (h *Hierarchy) lookupSlow(g *GF, classes []*Class) (*Method, *DispatchError) {
	var best *Method
	for _, m := range g.Methods {
		if applies(m, classes) && (best == nil || m.PointwiseLE(best)) {
			best = m
		}
	}
	if best == nil {
		return nil, &DispatchError{GF: g, Classes: append([]*Class(nil), classes...)}
	}
	for _, m := range g.Methods {
		if applies(m, classes) && !best.PointwiseLE(m) {
			return nil, &DispatchError{GF: g, Classes: append([]*Class(nil), classes...), Ambiguous: true}
		}
	}
	return best, nil
}

// applies reports whether every argument class is ⊑ m's specializer.
func applies(m *Method, classes []*Class) bool {
	for i, s := range m.Specs {
		if !classes[i].IsSubclassOf(s) {
			return false
		}
	}
	return true
}

// SortedGFKeys returns GF keys in sorted order (deterministic output
// for reports and tests).
func (h *Hierarchy) SortedGFKeys() []string {
	keys := make([]string, 0, len(h.gfs))
	for k := range h.gfs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
