package lang_test

// Round-trip property over the real benchmark corpus: every embedded
// Mini-Cecil program must parse, format, reparse, and reach a Format
// fixpoint. (External test package so we can use the corpus in
// internal/programs without an import cycle.)

import (
	"testing"

	"selspec/internal/driver"
	"selspec/internal/lang"
	"selspec/internal/programs"
)

// runSource executes a program under Base and returns value+output.
func runSource(src string) (string, error) {
	p, err := driver.Load(src)
	if err != nil {
		return "", err
	}
	res, err := p.RunConfig(driver.ConfigOptions{
		Run: driver.RunOptions{CaptureOutput: true, StepLimit: 100_000_000},
	})
	if err != nil {
		return "", err
	}
	return res.Value + "\n" + res.Output, nil
}

func TestFormatRoundTripOnBenchmarkCorpus(t *testing.T) {
	corpus := append(programs.All(), programs.Sets())
	for _, b := range corpus {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			p1, err := lang.Parse(b.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			f1 := lang.Format(p1)
			p2, err := lang.Parse(f1)
			if err != nil {
				t.Fatalf("formatted source does not reparse: %v", err)
			}
			f2 := lang.Format(p2)
			if f1 != f2 {
				t.Fatal("Format is not a fixpoint on this benchmark")
			}
			// Shape preservation: same declaration counts.
			if len(p1.Classes) != len(p2.Classes) ||
				len(p1.Methods) != len(p2.Methods) ||
				len(p1.Globals) != len(p2.Globals) {
				t.Fatalf("declaration counts changed: %d/%d/%d vs %d/%d/%d",
					len(p1.Classes), len(p1.Methods), len(p1.Globals),
					len(p2.Classes), len(p2.Methods), len(p2.Globals))
			}
		})
	}
}

// TestFormattedBenchmarksStillRunIdentically pushes the round trip all
// the way through execution: the reformatted source must behave
// exactly like the original.
func TestFormattedBenchmarksStillRunIdentically(t *testing.T) {
	// Sets is the cheapest benchmark with closures and multi-methods.
	b := programs.Sets()
	p1, err := lang.Parse(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	formatted := lang.Format(p1)
	if formatted == b.Source {
		t.Skip("formatting is the identity here; nothing to compare")
	}
	run := func(src string) string {
		out, err := runSource(src)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if a, b := run(b.Source), run(formatted); a != b {
		t.Fatalf("reformatted program behaves differently:\n%q\nvs\n%q", a, b)
	}
}
