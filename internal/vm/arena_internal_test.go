package vm

import (
	"runtime"
	"testing"
	"unsafe"

	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/lang"
	"selspec/internal/opt"
)

// arenaSrc leaves objects, strings and integers in its registers.
const arenaSrc = `
class P { field x := 0; }
method keep(p, s, n) { var q := p; var t := s + "!"; q.x := n; q; }
method main() {
  var i := 0;
  var last := nil;
  while i < 50 { last := keep(new P(), "s" + str(i), i); i := i + 1; }
  last.x;
}
`

func newArenaMachine(t *testing.T) *Machine {
	t.Helper()
	prog, err := ir.Lower(lang.MustParse(arenaSrc))
	if err != nil {
		t.Fatal(err)
	}
	c, err := opt.Compile(prog, opt.Options{Config: opt.Base})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(interp.New(c))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestArenaReuseStartsZeroed: a run leaves values in its register
// arena, and the arena goes back to the pool cleared, so a reused
// arena starts zeroed and the pool keeps no guest object alive.
func TestArenaReuseStartsZeroed(t *testing.T) {
	m := newArenaMachine(t)
	if v, err := m.Run(); err != nil || v.String() != "49" {
		t.Fatalf("run = %v, %v", v, err)
	}
	if m.stack != nil {
		t.Fatal("the machine kept its arena after the run")
	}
	// Dirty an arena by hand and hand it back; the pool may drop a Put
	// (it does so at random under the race detector), so retry until
	// the same arena comes back.
	reused := false
	for try := 0; try < 100 && !reused; try++ {
		a := takeArena()
		for i := range a {
			a[i] = interp.StrV("stale")
		}
		first := &a[0]
		releaseArena(a)
		b := takeArena()
		reused = &b[0] == first
		for i, v := range b {
			if v != (interp.Value{}) {
				t.Fatalf("arena register %d holds %v after reuse", i, v)
			}
		}
		releaseArena(b)
	}
	if !reused {
		t.Skip("the pool never handed an arena back")
	}
}

// TestNewAllocatesNoArena: vm.New takes no register arena (Run takes a
// pooled one), so building a machine allocates far less than the 98 KB
// arena it used to allocate.
func TestNewAllocatesNoArena(t *testing.T) {
	m := newArenaMachine(t)
	in := m.in
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := New(in); err != nil {
			t.Fatal(err)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := New(in); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perNew := (after.TotalAlloc - before.TotalAlloc) / n
	arena := uint64(arenaSize * unsafe.Sizeof(interp.Value{}))
	t.Logf("vm.New: %.0f allocs, %d bytes per call (arena %d bytes)", allocs, perNew, arena)
	if perNew >= arena {
		t.Errorf("vm.New allocates %d bytes per call, at least an arena's %d", perNew, arena)
	}
}
