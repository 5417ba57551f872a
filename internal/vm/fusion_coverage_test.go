package vm_test

import (
	"testing"

	"selspec/internal/driver"
	"selspec/internal/interp"
	"selspec/internal/opt"
	"selspec/internal/pipeline"
	"selspec/internal/programs"
	"selspec/internal/vm"
)

// fusedOps is the superinstruction set: every opcode that replaces a
// multi-instruction generic sequence.
var fusedOps = map[vm.Op]bool{
	vm.OpCmpBr: true, vm.OpCmpBrK: true, vm.OpCmpBrField: true,
	vm.OpBinK: true, vm.OpFieldBin: true, vm.OpFieldBinK: true,
	vm.OpBinField: true, vm.OpAGet: true, vm.OpAPut: true,
	vm.OpLoop: true, vm.OpAGetField: true,
}

// fusionFloor holds the superinstruction and snapshot-move counts the
// syntactic effectFree-era compiler produced on the paper benchmarks
// (measured immediately before the effect-analysis rewire). The rewire
// must never fuse less, and — since the analysis is strictly sharper
// than the syntactic rule — must not need more snapshot copies either.
var fusionFloor = map[string]map[opt.Config]struct{ fused, moves int }{
	"Richards":    {opt.Base: {91, 183}, opt.CHA: {167, 242}},
	"InstSched":   {opt.Base: {88, 75}, opt.CHA: {112, 80}},
	"Typechecker": {opt.Base: {49, 80}, opt.CHA: {82, 92}},
	"Compiler":    {opt.Base: {48, 121}, opt.CHA: {93, 126}},
}

// TestFusionCoverageNonDecreasing compiles the four paper benchmarks
// and checks the effect-analysis-driven compiler fuses at least as many
// superinstructions as the old syntactic predicate did, without
// emitting more slot-snapshot moves.
func TestFusionCoverageNonDecreasing(t *testing.T) {
	for _, b := range programs.All() {
		floors, ok := fusionFloor[b.Name]
		if !ok {
			t.Fatalf("no fusion floor recorded for benchmark %s", b.Name)
		}
		for cfg, floor := range floors {
			p, err := driver.LoadNamed(b.Name, b.Source)
			if err != nil {
				t.Fatal(err)
			}
			c, err := pipeline.Compile(b.Name, p.Prog, opt.Options{Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			m, err := vm.New(interp.New(c))
			if err == nil {
				err = m.Module().CompileAll()
			}
			if err != nil {
				t.Fatal(err)
			}
			fused, moves := 0, 0
			for _, pi := range m.Module().Procs() {
				for _, ins := range pi.Proc.Code {
					if fusedOps[ins.Op] {
						fused++
					}
					if ins.Op == vm.OpMove {
						moves++
					}
				}
			}
			if fused < floor.fused {
				t.Errorf("%s/%s: fused superinstructions regressed: %d < floor %d",
					b.Name, cfg, fused, floor.fused)
			}
			if moves > floor.moves {
				t.Errorf("%s/%s: snapshot/result moves regressed: %d > ceiling %d",
					b.Name, cfg, moves, floor.moves)
			}
		}
	}
}
