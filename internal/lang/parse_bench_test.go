package lang_test

import (
	"testing"

	"selspec/internal/gen"
	"selspec/internal/lang"
)

// BenchmarkParseGen200 is the front end of one gen-unique request:
// lang.Parse of a 200-class generated program (seed 1).
func BenchmarkParseGen200(b *testing.B) {
	src := gen.New(gen.Config{Seed: 1, Classes: 200}).Source()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lang.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
