// Incremental demonstrates §3.7.1 of the paper: the compiler maintains
// a fine-grained dependency graph so that a change to the class
// hierarchy or the method set selectively invalidates — and an
// incremental compiler recompiles — only the affected compiled code.
//
// The demo compiles the Set example under CHA, then plays three edits
// and shows the recompilation set of each:
//
//  1. editing the body of includes(@HashSet) — invalidates its own
//     versions plus callers that inlined or bound it;
//
//  2. adding a method to the do generic function — invalidates every
//     version whose binding decisions consumed do's method set;
//
//  3. editing an unrelated class — invalidates almost nothing.
//
//     go run ./examples/incremental
package main

import (
	"fmt"
	"log"

	"selspec/internal/deps"
	"selspec/internal/driver"
	"selspec/internal/opt"
	"selspec/internal/programs"
)

func main() {
	b := programs.Sets()
	p, err := driver.Load(b.Source)
	if err != nil {
		log.Fatal(err)
	}
	c, err := opt.Compile(p.Prog, opt.Options{Config: opt.CHA})
	if err == nil {
		err = c.CompileAll()
	}
	if err != nil {
		log.Fatal(err)
	}

	graph := deps.FromCompiled(c)
	fmt.Printf("dependency graph over the compiled Set example: %d nodes, %d edges\n",
		graph.Len(), graph.Edges())

	total := 0
	for _, m := range p.Prog.H.Methods() {
		total += len(c.VersionsOf(m))
	}

	show := func(title string, affected []deps.Node) {
		invalid := graph.InvalidVersions()
		fmt.Printf("\n%s\n", title)
		fmt.Printf("  %d nodes affected; %d of %d compiled versions must be recompiled:\n",
			len(affected), len(invalid), total)
		for _, n := range invalid {
			fmt.Printf("    recompile %s\n", n.Name)
		}
		for _, n := range invalid {
			graph.Revalidate(n)
		}
		// Also revalidate the source nodes so the next scenario starts
		// clean.
		for _, n := range affected {
			graph.Revalidate(n)
		}
	}

	show(`edit the body of includes(@HashSet):`,
		graph.MethodChanged("includes(@HashSet,@Any)", "includes/2"))

	show(`add a method to the do/2 generic function:`,
		graph.Invalidate(deps.GFNode("do/2")))

	show(`change class BitSet's declaration:`,
		graph.Invalidate(deps.ClassNode("BitSet")))
}
