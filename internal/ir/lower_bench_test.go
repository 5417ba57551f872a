package ir_test

import (
	"testing"

	"selspec/internal/gen"
	"selspec/internal/hier"
	"selspec/internal/ir"
	"selspec/internal/lang"
)

// BenchmarkLowerGen200 is the lowering step of one gen-unique request:
// ir.LowerWith of a parsed 200-class generated program (seed 1)
// against its hierarchy.
func BenchmarkLowerGen200(b *testing.B) {
	parsed, err := lang.Parse(gen.New(gen.Config{Seed: 1, Classes: 200}).Source())
	if err != nil {
		b.Fatal(err)
	}
	h, err := hier.Build(parsed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ir.LowerWith(parsed, h); err != nil {
			b.Fatal(err)
		}
	}
}
