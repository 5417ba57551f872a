package profile

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseWireStructural(t *testing.T) {
	good := `{"version": 1, "arcs": [{"site": 3, "callee": 9999, "weight": 7}]}`
	w, err := ParseWire([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	// ParseWire is structural only: id 9999 is fine without a program.
	if len(w.Arcs) != 1 || w.Arcs[0].Callee != 9999 {
		t.Fatalf("parsed = %+v", w.Arcs)
	}
	bad := []struct{ data, sub string }{
		{`{nope`, "profile:"},
		{`{"version": 2, "arcs": []}`, "unsupported format version"},
		{`{"version": 1, "arcs": [{"site": -1, "callee": 0, "weight": 1}]}`, "negative id"},
		{`{"version": 1, "arcs": [{"site": 0, "callee": 0, "weight": -1}]}`, "negative weight"},
		{`{"version": 1, "entries": [{"method": -1}]}`, "negative entry method"},
		{`{"version": 1, "entries": [{"method": 0, "tuples": [[-4]]}]}`, "negative entry class"},
	}
	for _, c := range bad {
		if _, err := ParseWire([]byte(c.data)); err == nil || !strings.Contains(err.Error(), c.sub) {
			t.Errorf("ParseWire(%q) err = %v, want %q", c.data, err, c.sub)
		}
	}
}

func TestWireSortCanonical(t *testing.T) {
	w := &Wire{Version: FormatVersion,
		Arcs: []WireArc{
			{Site: 2, Callee: 0, Weight: 1},
			{Site: 0, Callee: 5, Weight: 2},
			{Site: 0, Callee: 1, Weight: 3},
		},
		Entries: []WireEntry{
			{Method: 4, Tuples: [][]int{{2, 1}, {1, 9}, {1}}},
			{Method: 1},
		},
	}
	w.Sort()
	if w.Arcs[0].Site != 0 || w.Arcs[0].Callee != 1 || w.Arcs[2].Site != 2 {
		t.Fatalf("arc order: %+v", w.Arcs)
	}
	if w.Entries[0].Method != 1 {
		t.Fatalf("entry order: %+v", w.Entries)
	}
	tuples := w.Entries[1].Tuples
	if len(tuples[0]) != 1 || tuples[1][1] != 9 || tuples[2][0] != 2 {
		t.Fatalf("tuple order: %v", tuples)
	}

	// Sorting twice is idempotent and Marshal of equal Wires is
	// byte-equal — the property the profile database's byte-identity
	// guarantee stands on.
	b1, err := w.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	w.Sort()
	b2, _ := w.Marshal()
	if !bytes.Equal(b1, b2) {
		t.Fatal("Sort is not idempotent under Marshal")
	}
}

func TestWireMatchesCallGraphMarshal(t *testing.T) {
	p := load(t)
	mA, mB, f := methods(t, p)
	cg := NewCallGraph(p)
	cg.Record(p.Bodies[f].Sites[1], mB, 9)
	cg.Record(p.Bodies[f].Sites[0], mA, 4)

	viaWire, err := cg.Wire().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := cg.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaWire, direct) {
		t.Fatalf("Wire().Marshal() differs from MarshalJSON:\n%s\nvs\n%s", viaWire, direct)
	}
	if _, err := ParseWire(direct); err != nil {
		t.Fatalf("ParseWire rejects MarshalJSON output: %v", err)
	}
}
