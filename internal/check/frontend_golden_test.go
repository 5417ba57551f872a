package check_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"selspec/internal/check"
	"selspec/internal/gen"
	"selspec/internal/hier"
	"selspec/internal/ir"
	"selspec/internal/lang"
)

var updateFrontEnd = flag.Bool("update-frontend", false, "rewrite testdata/frontend.golden")

const frontEndGolden = "testdata/frontend.golden"

// TestFrontEndGolden pins what the front end makes of every fixedInputs
// source and of gen seeds 1–3 at 200 classes: check.Source's JSON with
// the instantiation analysis off and on, and ir.LowerWith's error text
// or, when lowering succeeds, a digest of every lowered body and of the
// call-site table. Regenerate with -update-frontend only for an
// intended change of the front end or the checker.
func TestFrontEndGolden(t *testing.T) {
	in := fixedInputs(t)
	for seed := uint64(1); seed <= 3; seed++ {
		g := gen.New(gen.Config{Seed: seed, Classes: 200})
		in = append(in, namedSource{g.Name(), g.Source()})
	}
	var out strings.Builder
	for _, s := range in {
		fmt.Fprintf(&out, "== %s\n", s.name)
		lowerDump(&out, s.src)
		for _, inst := range []bool{false, true} {
			fmt.Fprintf(&out, "check instantiation=%v: ", inst)
			ds, err := check.Source(s.name, s.src, check.Options{Instantiation: inst})
			if err != nil {
				fmt.Fprintf(&out, "error: %v\n", err)
				continue
			}
			var js strings.Builder
			if err := check.WriteJSON(&js, ds); err != nil {
				t.Fatal(err)
			}
			if len(ds) > 8 {
				fmt.Fprintf(&out, "%d diagnostics sha256=%x\n", len(ds), sha256.Sum256([]byte(js.String())))
			} else {
				out.WriteString(js.String())
			}
		}
	}
	if *updateFrontEnd {
		if err := os.WriteFile(frontEndGolden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(frontEndGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("front-end output changed; got:\n%s", got)
	}
}

// lowerDump writes src's lowering result to w: the error text, or the
// body and site counts with a digest of each.
func lowerDump(w io.Writer, src string) {
	parsed, err := lang.Parse(src)
	if err != nil {
		fmt.Fprintf(w, "parse: %v\n", err)
		return
	}
	h, err := hier.Build(parsed)
	if err != nil {
		fmt.Fprintf(w, "hier: %v\n", err)
		return
	}
	p, err := ir.LowerWith(parsed, h)
	if err != nil {
		fmt.Fprintf(w, "lower: %v\n", err)
		return
	}
	bodies := sha256.New()
	for _, g := range p.Globals {
		fmt.Fprintf(bodies, "global %s\n%s", g.Name, ir.Dump(g.Init))
	}
	for _, c := range h.Classes() {
		for i, init := range p.FieldInits[c] {
			if init != nil {
				fmt.Fprintf(bodies, "field %s.%s\n%s", c.Name, c.Fields[i].Name, ir.Dump(init))
			}
		}
	}
	for _, m := range h.Methods() {
		b := p.Bodies[m]
		fmt.Fprintf(bodies, "method %s slots=%d assigned=%v size=%d return=%v closurewrites=%v\n%s",
			m.Name(), b.NumSlots, b.AssignedFormals, b.Size, b.HasReturn, b.ClosureWrites, ir.Dump(b.Code))
	}
	sites := sha256.New()
	for _, s := range p.Sites {
		fmt.Fprintf(sites, "%s %v\n", s, s.PassThrough)
	}
	fmt.Fprintf(w, "lower: %d bodies sha256=%x; %d sites sha256=%x\n", len(p.Bodies), bodies.Sum(nil), len(p.Sites), sites.Sum(nil))
}
