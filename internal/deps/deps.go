// Package deps implements the selective-recompilation machinery of
// §3.7.1 of the paper: "our compiler maintains fine-grained dependency
// information to selectively recompile those pieces of the program that
// are invalidated as a result of some change to the class hierarchy or
// the set of methods in the program. The dependency information forms a
// directed, acyclic graph, with nodes representing pieces of
// information, and edges representing dependencies."
//
// Nodes represent sources of information (a class declaration, a
// generic function's method set, a method body) and clients (compiled
// method versions). Invalidation propagates downstream; the set of
// invalid version nodes is exactly what an incremental compiler must
// recompile.
package deps

import (
	"fmt"
	"sort"

	"selspec/internal/hier"
	"selspec/internal/ir"
	"selspec/internal/opt"
)

// Kind classifies a dependency node.
type Kind int

// Node kinds.
const (
	// KindClass is the declaration of one class (its parents, fields
	// and declared field types).
	KindClass Kind = iota
	// KindGF is the method set of one generic function (which methods
	// exist and their specializers) — the information static binding
	// and ApplicableClasses consume.
	KindGF
	// KindBody is the source body of one method.
	KindBody
	// KindVersion is one compiled method version (client node).
	KindVersion
)

var kindNames = [...]string{"class", "gf", "body", "version"}

func (k Kind) String() string { return kindNames[k] }

// Node is one vertex of the dependency graph.
type Node struct {
	Kind Kind
	Name string
}

// ID returns the canonical node identifier.
func (n Node) ID() string { return n.Kind.String() + ":" + n.Name }

// Graph is a dependency DAG with validity tracking. It is constructed
// incrementally (AddDep) as compilation consumes information, exactly
// as the paper describes.
type Graph struct {
	nodes   map[string]Node
	clients map[string]map[string]bool // provider ID → dependent IDs
	invalid map[string]bool
}

// NewGraph returns an empty dependency graph.
func NewGraph() *Graph {
	return &Graph{
		nodes:   map[string]Node{},
		clients: map[string]map[string]bool{},
		invalid: map[string]bool{},
	}
}

// ensure registers a node.
func (g *Graph) ensure(n Node) string {
	id := n.ID()
	if _, ok := g.nodes[id]; !ok {
		g.nodes[id] = n
		g.clients[id] = map[string]bool{}
	}
	return id
}

// AddDep records that client depends on provider: whenever provider is
// invalidated, client is too.
func (g *Graph) AddDep(client, provider Node) {
	c := g.ensure(client)
	p := g.ensure(provider)
	g.clients[p][c] = true
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Edges returns the number of dependency edges.
func (g *Graph) Edges() int {
	n := 0
	for _, cs := range g.clients {
		n += len(cs)
	}
	return n
}

// Nodes returns all nodes sorted by ID.
func (g *Graph) Nodes() []Node {
	ids := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Node, len(ids))
	for i, id := range ids {
		out[i] = g.nodes[id]
	}
	return out
}

// Invalidate marks the node and everything transitively depending on it
// invalid, returning the newly invalidated nodes sorted by ID ("the
// compiler computes what source dependency nodes have been affected and
// propagates invalidations downstream").
func (g *Graph) Invalidate(n Node) []Node {
	start := n.ID()
	if _, ok := g.nodes[start]; !ok {
		return nil
	}
	var affectedIDs []string
	seen := map[string]bool{}
	stack := []string{start}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		if !g.invalid[id] {
			g.invalid[id] = true
			affectedIDs = append(affectedIDs, id)
		}
		for c := range g.clients[id] {
			stack = append(stack, c)
		}
	}
	sort.Strings(affectedIDs)
	out := make([]Node, len(affectedIDs))
	for i, id := range affectedIDs {
		out[i] = g.nodes[id]
	}
	return out
}

// Invalid reports whether a node is currently invalid.
func (g *Graph) Invalid(n Node) bool { return g.invalid[n.ID()] }

// InvalidVersions lists the compiled versions that must be recompiled.
func (g *Graph) InvalidVersions() []Node {
	var out []Node
	for id := range g.invalid {
		if n := g.nodes[id]; n.Kind == KindVersion {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Revalidate clears a node's invalid mark (after recompilation).
func (g *Graph) Revalidate(n Node) { delete(g.invalid, n.ID()) }

// ClassNode, GFNode, BodyNode and VersionNode build canonical nodes.
func ClassNode(name string) Node  { return Node{Kind: KindClass, Name: name} }
func GFNode(key string) Node      { return Node{Kind: KindGF, Name: key} }
func BodyNode(method string) Node { return Node{Kind: KindBody, Name: method} }
func VersionNode(v string) Node   { return Node{Kind: KindVersion, Name: v} }
func versionName(v *ir.Version) string {
	return fmt.Sprintf("%s#%d", v.Method.Name(), v.Index)
}

// FromCompiled constructs the dependency graph of a compiled program:
// every compiled version depends on
//
//   - its method's source body,
//   - the method sets of every generic function it still sends to or
//     statically binds (adding/removing a method there changes the
//     binding decision),
//   - the declarations of every class named in its specialization
//     tuple's specializer ancestry (conservatively: the classes of the
//     method's specializers), and
//   - the declarations of classes whose fields it touches (field
//     layout and declared types).
func FromCompiled(c *opt.Compiled) *Graph {
	g := NewGraph()
	for _, m := range c.Prog.H.Methods() {
		for _, v := range c.VersionsOf(m) {
			if v.Body == nil {
				continue // body never built: nothing to invalidate
			}
			vn := VersionNode(versionName(v))
			g.AddDep(vn, BodyNode(m.Name()))
			for _, spec := range m.Specs {
				g.AddDep(vn, ClassNode(spec.Name))
			}
			// The source body records every send whose binding decision
			// was consumed during compilation — including sends that were
			// inlined away entirely.
			if src := c.Prog.Bodies[m]; src != nil {
				for _, site := range src.Sites {
					g.AddDep(vn, GFNode(site.GF.Key()))
				}
			}
			ir.Walk(v.Body, func(n ir.Node) bool {
				switch n := n.(type) {
				case *ir.Send:
					g.AddDep(vn, GFNode(n.Site.GF.Key()))
				case *ir.StaticCall:
					g.AddDep(vn, GFNode(n.Site.GF.Key()))
					// Bound callee: its body matters too.
					g.AddDep(vn, BodyNode(n.Target.Method.Name()))
				case *ir.VersionSelect:
					g.AddDep(vn, GFNode(n.Site.GF.Key()))
				case *ir.GetField:
					g.addFieldDeps(c.Prog.H, vn, n.Name)
				case *ir.SetField:
					g.addFieldDeps(c.Prog.H, vn, n.Name)
				case *ir.New:
					g.AddDep(vn, ClassNode(n.Class.Name))
				}
				// A site from a different method proves that method's
				// body was inlined here.
				if site := siteOf(n); site != nil && site.Caller != nil && site.Caller != m {
					g.AddDep(vn, BodyNode(site.Caller.Name()))
				}
				return true
			})
		}
	}
	// GF method sets depend on the classes their specializers name
	// (changing a class edits ApplicableClasses of every method there)
	// and, coarsely, on their methods' bodies: a body edit can change a
	// callee that callers inlined without leaving any trace in their
	// compiled IR. This coupling keeps invalidation sound.
	for _, gf := range c.Prog.H.GFs() {
		gn := GFNode(gf.Key())
		for _, m := range gf.Methods {
			for _, spec := range m.Specs {
				g.AddDep(gn, ClassNode(spec.Name))
			}
			g.AddDep(gn, BodyNode(m.Name()))
		}
	}
	return g
}

// siteOf extracts the call site of call-like IR nodes.
func siteOf(n ir.Node) *ir.CallSite {
	switch n := n.(type) {
	case *ir.Send:
		return n.Site
	case *ir.StaticCall:
		return n.Site
	case *ir.VersionSelect:
		return n.Site
	}
	return nil
}

// MethodChanged invalidates everything affected by editing the body of
// the named method belonging to the given generic function.
func (g *Graph) MethodChanged(methodName, gfKey string) []Node {
	a := g.Invalidate(BodyNode(methodName))
	b := g.Invalidate(GFNode(gfKey))
	return append(a, b...)
}

// addFieldDeps makes vn depend on every class declaring a field with
// this name (layout or declared-type changes invalidate the access).
func (g *Graph) addFieldDeps(h *hier.Hierarchy, vn Node, field string) {
	for _, cls := range h.Classes() {
		for _, f := range cls.OwnFields {
			if f.Name == field {
				g.AddDep(vn, ClassNode(cls.Name))
			}
		}
	}
}
