// Package profile implements the weighted program call graph the
// selective specialization algorithm consumes: for each call site, the
// set of methods invoked and the number of times each was invoked
// (paper §3: Caller(arc), Callee(arc), CallSite(arc), Weight(arc)).
//
// Profiles are gathered by an instrumented interpreter run and can be
// persisted to JSON, mirroring the paper's "persistent internal
// database of profile information" (§3.7.2).
package profile

import (
	"fmt"
	"sort"

	"selspec/internal/hier"
	"selspec/internal/ir"
)

// Arc is one weighted call-graph edge. A call site can have multiple
// arcs (one per callee method observed) due to dynamic dispatching.
type Arc struct {
	Site   *ir.CallSite
	Callee *hier.Method
	Weight int64
}

// Caller returns the method lexically containing the arc's call site
// (nil for sends in global initializers).
func (a *Arc) Caller() *hier.Method { return a.Site.Caller }

func (a *Arc) String() string {
	caller := "<global>"
	if a.Caller() != nil {
		caller = a.Caller().Name()
	}
	return fmt.Sprintf("%s --%d--> %s [site#%d]", caller, a.Weight, a.Callee.Name(), a.Site.ID)
}

type arcKey struct {
	siteID   int
	calleeID int
}

// MaxTupleSample bounds the number of distinct argument class tuples
// recorded per method; beyond it the sample is marked overflowed and
// treated as "anything was seen" (§3.2: "it is likely to be more
// expensive to gather profiles of argument tuples than simple call arc
// and count information").
const MaxTupleSample = 128

// TupleSample is the set of distinct argument class-ID tuples observed
// for one method during a profiling run — the paper's §3.2 extension
// for pruning never-invoked combined specializations.
type TupleSample struct {
	Tuples   [][]int
	Overflow bool
}

// CallGraph is a weighted dynamic call graph, optionally augmented with
// per-method argument-tuple samples.
type CallGraph struct {
	prog    *ir.Program
	arcs    map[arcKey]*Arc
	entries []tupleSet // indexed by method ID
}

// tupleSet is one method's argument-tuple sample: each tuple as its
// length and then its class IDs, and the hier.ShortKey of the last one
// seen.
type tupleSet struct {
	ids      []int32
	last     uint64
	n        int32
	overflow bool
}

// NewCallGraph returns an empty call graph for the program.
func NewCallGraph(p *ir.Program) *CallGraph {
	return &CallGraph{prog: p, arcs: map[arcKey]*Arc{}, entries: make([]tupleSet, len(p.H.Methods()))}
}

// RecordEntry records one method invocation's argument classes,
// keeping no reference to classes. A short tuple equal to the method's
// last one returns at once; only a new tuple allocates.
func (g *CallGraph) RecordEntry(m *hier.Method, classes []*hier.Class) {
	if ts, k := &g.entries[m.ID], hier.ShortKey(classes); k == 0 || ts.last != k {
		ts.record(classes, k)
	}
}

func (ts *tupleSet) record(classes []*hier.Class, k uint64) {
	if ts.overflow {
		return
	}
	ts.last = k
scan:
	for i := 0; i < len(ts.ids); i += 1 + int(ts.ids[i]) {
		if int(ts.ids[i]) != len(classes) {
			continue
		}
		for j, c := range classes {
			if ts.ids[i+1+j] != int32(c.ID) {
				continue scan
			}
		}
		return
	}
	if ts.n >= MaxTupleSample {
		*ts = tupleSet{overflow: true}
		return
	}
	ts.ids = append(ts.ids, int32(len(classes)))
	for _, c := range classes {
		ts.ids = append(ts.ids, int32(c.ID))
	}
	ts.n++
}

// Entries returns the argument-tuple sample for a method, or nil when
// none was recorded. Tuples are ordered as (*Wire).Sort orders them,
// lexicographically by class ID, so profile JSON is canonical as built.
func (g *CallGraph) Entries(m *hier.Method) *TupleSample {
	ts := &g.entries[m.ID]
	if len(ts.ids) == 0 && !ts.overflow {
		return nil
	}
	out := &TupleSample{Overflow: ts.overflow}
	for i := 0; i < len(ts.ids); i += 1 + int(ts.ids[i]) {
		ids := make([]int, ts.ids[i])
		for j := range ids {
			ids[j] = int(ts.ids[i+1+j])
		}
		out.Tuples = append(out.Tuples, ids)
	}
	sort.Slice(out.Tuples, func(i, j int) bool { return lessTuple(out.Tuples[i], out.Tuples[j]) })
	return out
}

// Program returns the program the graph was built against.
func (g *CallGraph) Program() *ir.Program { return g.prog }

// Record adds weight n to the arc (site → callee).
func (g *CallGraph) Record(site *ir.CallSite, callee *hier.Method, n int64) {
	k := arcKey{site.ID, callee.ID}
	if a, ok := g.arcs[k]; ok {
		a.Weight += n
		return
	}
	g.arcs[k] = &Arc{Site: site, Callee: callee, Weight: n}
}

// Len returns the number of distinct arcs.
func (g *CallGraph) Len() int { return len(g.arcs) }

// TotalWeight sums all arc weights.
func (g *CallGraph) TotalWeight() int64 {
	var t int64
	for _, a := range g.arcs {
		t += a.Weight
	}
	return t
}

// Arcs returns all arcs ordered by (site, callee) for deterministic
// iteration.
func (g *CallGraph) Arcs() []*Arc {
	out := make([]*Arc, 0, len(g.arcs))
	for _, a := range g.arcs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site.ID != out[j].Site.ID {
			return out[i].Site.ID < out[j].Site.ID
		}
		return out[i].Callee.ID < out[j].Callee.ID
	})
	return out
}
