package profile

// FuzzProfile drives the raw profile decoder (UnmarshalInto) with
// arbitrary bytes. Profiles cross a file-system boundary
// (`selspec -use-profile`), so the decoder's contract is: any input
// yields either a valid in-memory call graph or an ordinary error —
// never a panic, and never a silently poisoned graph. Accepted inputs
// must also survive a marshal → unmarshal round trip, byte-stably.

import (
	"bytes"
	"testing"

	"selspec/internal/hier"
	"selspec/internal/ir"
	"selspec/internal/lang"
)

func FuzzProfile(f *testing.F) {
	prog, err := ir.Lower(lang.MustParse(src))
	if err != nil {
		f.Fatal(err)
	}

	// A real profile of the shared test program is the structured seed
	// the mutator works from: arcs on both sites of f plus an entry
	// tuple and an overflow marker.
	{
		var mA, mB, mf *hier.Method
		for _, m := range prog.H.Methods() {
			switch {
			case m.GF.Name == "m" && m.Specs[0].Name == "A":
				mA = m
			case m.GF.Name == "m" && m.Specs[0].Name == "B":
				mB = m
			case m.GF.Name == "f":
				mf = m
			}
		}
		cg := NewCallGraph(prog)
		cg.Record(prog.Bodies[mf].Sites[0], mA, 5)
		cg.Record(prog.Bodies[mf].Sites[0], mB, 3)
		cg.Record(prog.Bodies[mf].Sites[1], mB, 7)
		cg.RecordEntry(mA, []*hier.Class{prog.H.Classes()[0]})
		cg.entries[mB.ID].overflow = true
		data, err := cg.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Hand-written seeds covering every validation branch of the
	// decoder (mirrors the corrupt-input unit tests) plus shape errors.
	for _, s := range []string{
		``,
		`{}`,
		`{"version": 1}`,
		`{"version": 99, "arcs": []}`,
		`{"version": 1, "arcs": [{"site": 0, "callee": 0, "weight": 1}]}`,
		`{"version": 1, "arcs": [{"site": -1, "callee": 0, "weight": 1}]}`,
		`{"version": 1, "arcs": [{"site": 9999, "callee": 0, "weight": 1}]}`,
		`{"version": 1, "arcs": [{"site": 0, "callee": 0, "weight": -5}]}`,
		`{"version": 1, "arcs": [{"site": 0, "callee": 0, "weight": 9223372036854775807}, {"site": 0, "callee": 0, "weight": 1}]}`,
		`{"version": 1, "entries": [{"method": 0, "tuples": [[0]]}]}`,
		`{"version": 1, "entries": [{"method": 0, "tuples": [[0, 1, 2]]}]}`,
		`{"version": 1, "entries": [{"method": 0, "overflow": true}, {"method": 0}]}`,
		`{"version": 1, "entries": [{"method": 0, "tuples": [[-1]]}]}`,
		`[1, 2, 3]`,
		`null`,
		"\x00\xff{",
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cg := NewCallGraph(prog)
		if err := cg.UnmarshalInto(data); err != nil {
			return // rejecting the input with an ordinary error is fine
		}
		// Accepted inputs must produce a graph whose own encoding is
		// accepted back — the round-trip invariant persisted profiles
		// rely on.
		out, err := cg.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted input failed to marshal: %v\ninput: %q", err, data)
		}
		back := NewCallGraph(prog)
		if err := back.UnmarshalInto(out); err != nil {
			t.Fatalf("round trip rejected: %v\nencoded: %q", err, out)
		}
		out2, err := back.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("round trip not stable:\nfirst:  %s\nsecond: %s", out, out2)
		}
	})
}
