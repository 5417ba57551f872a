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
	"encoding/binary"
	"fmt"
	"math"
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
	entries map[*hier.Method]*tupleSet
}

type tupleSet struct {
	seen     map[string][]int
	overflow bool
}

// NewCallGraph returns an empty call graph for the program.
func NewCallGraph(p *ir.Program) *CallGraph {
	return &CallGraph{prog: p, arcs: map[arcKey]*Arc{}, entries: map[*hier.Method]*tupleSet{}}
}

// RecordEntry records one method invocation's argument classes.
func (g *CallGraph) RecordEntry(m *hier.Method, classes []*hier.Class) {
	ts := g.entries[m]
	if ts == nil {
		ts = &tupleSet{seen: map[string][]int{}}
		g.entries[m] = ts
	}
	if ts.overflow {
		return
	}
	// Four little-endian bytes per class ID, so full-width IDs never
	// collide; Entries sorts by this key, low byte first, which keeps
	// profile JSON stable. The key lives on the stack: a tuple already
	// seen costs no allocation.
	var buf [32]byte
	key := buf[:0]
	for _, c := range classes {
		key = binary.LittleEndian.AppendUint32(key, uint32(c.ID))
	}
	if _, ok := ts.seen[string(key)]; ok {
		return
	}
	if len(ts.seen) >= MaxTupleSample {
		ts.overflow = true
		ts.seen = nil
		return
	}
	ids := make([]int, len(classes))
	for i, c := range classes {
		ids[i] = c.ID
	}
	ts.seen[string(key)] = ids
}

// Entries returns the argument-tuple sample for a method, or nil when
// none was recorded.
func (g *CallGraph) Entries(m *hier.Method) *TupleSample {
	ts := g.entries[m]
	if ts == nil {
		return nil
	}
	out := &TupleSample{Overflow: ts.overflow}
	keys := make([]string, 0, len(ts.seen))
	for k := range ts.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out.Tuples = append(out.Tuples, ts.seen[k])
	}
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

// Merge adds every arc of other into g (same program required). Arc
// weights are summed with the same int64 overflow guard LoadWire
// applies to duplicate arcs: a merge that would wrap errors before
// touching g, so a poisoned aggregate can never come out of repeated
// merging — the failure mode a long-lived profile database would
// otherwise hit first.
func (g *CallGraph) Merge(other *CallGraph) error {
	if other.prog != g.prog {
		return fmt.Errorf("profile: cannot merge call graphs from different programs")
	}
	// Validate the whole merge before applying any of it, so an
	// overflow leaves g untouched rather than partially merged.
	for k, a := range other.arcs {
		if ex, ok := g.arcs[k]; ok && ex.Weight > math.MaxInt64-a.Weight {
			return fmt.Errorf("profile: weight overflow merging arc %d->%d", k.siteID, k.calleeID)
		}
	}
	for _, a := range other.arcs {
		g.Record(a.Site, a.Callee, a.Weight)
	}
	return nil
}
