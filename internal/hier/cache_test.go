package hier

import (
	"sync"
	"sync/atomic"
	"testing"

	"selspec/internal/lang"
	"selspec/internal/obs"
)

const cacheHierSrc = `
class A
class B isa A
class C isa A
class D isa B
method m(x@A) { 1; }
method m(x@B) { 2; }
method mm(x@A, y@A) { 1; }
method mm(x@B, y@B) { 2; }
method mm(x@A, y@C) { 3; }
method mm(x@B, y@C) { 4; }
`

func cacheHier(tb testing.TB) (*Hierarchy, []*Class) {
	tb.Helper()
	h, err := Build(lang.MustParse(cacheHierSrc))
	if err != nil {
		tb.Fatal(err)
	}
	var cs []*Class
	for _, n := range []string{"A", "B", "C", "D"} {
		c, ok := h.Class(n)
		if !ok {
			tb.Fatalf("no class %s", n)
		}
		cs = append(cs, c)
	}
	return h, cs
}

// TestCacheFullClassIDs pins the fix for the old string-key truncation:
// classKey kept only 16 bits of Class.ID, so in hierarchies beyond
// 65 535 classes the tuples (1, x) and (65537, x) silently aliased one
// cache entry. The integer-keyed cache must keep full IDs in every
// layout. Classes are fabricated directly (building 65 000+ real
// classes would allocate gigabytes of ancestor bitsets).
func TestCacheFullClassIDs(t *testing.T) {
	const numClasses = 70_000
	low := &Class{ID: 1}
	high := &Class{ID: 65_537} // 1<<16 + 1: truncated to 1 by the old key
	other := &Class{ID: 2}
	mLow := &Method{ID: 1}
	mHigh := &Method{ID: 2}

	t.Run("dense", func(t *testing.T) {
		c := newGFCache(1, numClasses)
		if c.dense == nil {
			t.Fatal("arity 1 should use the dense layout")
		}
		c.put([]*Class{low}, lookupResult{m: mLow})
		c.put([]*Class{high}, lookupResult{m: mHigh})
		if r, ok := c.get([]*Class{low}); !ok || r.m != mLow {
			t.Fatalf("dense get(1) = %v, %t", r.m, ok)
		}
		if r, ok := c.get([]*Class{high}); !ok || r.m != mHigh {
			t.Fatalf("dense get(65537) = %v, %t", r.m, ok)
		}
	})

	t.Run("packed", func(t *testing.T) {
		c := newGFCache(2, numClasses)
		if c.shards == nil {
			t.Fatal("arity 2 over 70k classes should pack into a uint64")
		}
		c.put([]*Class{low, other}, lookupResult{m: mLow})
		c.put([]*Class{high, other}, lookupResult{m: mHigh})
		if r, ok := c.get([]*Class{low, other}); !ok || r.m != mLow {
			t.Fatalf("packed get(1,2) = %v, %t", r.m, ok)
		}
		if r, ok := c.get([]*Class{high, other}); !ok || r.m != mHigh {
			t.Fatalf("packed get(65537,2) = %v, %t", r.m, ok)
		}
	})

	t.Run("wide", func(t *testing.T) {
		c := newGFCache(6, numClasses) // 6×17 bits > 64: wide fallback
		if c.wide == nil {
			t.Fatal("arity 6 over 70k classes should use the wide layout")
		}
		tup := func(first *Class) []*Class {
			return []*Class{first, other, other, other, other, other}
		}
		c.put(tup(low), lookupResult{m: mLow})
		c.put(tup(high), lookupResult{m: mHigh})
		if r, ok := c.get(tup(low)); !ok || r.m != mLow {
			t.Fatalf("wide get(1,...) = %v, %t", r.m, ok)
		}
		if r, ok := c.get(tup(high)); !ok || r.m != mHigh {
			t.Fatalf("wide get(65537,...) = %v, %t", r.m, ok)
		}
	})
}

// TestLookupCacheHitAllocFree: after warmup, Lookup must not allocate
// on cache hits (the dispatch hot path of the interpreter and of the
// unique-target enumeration in opt).
func TestLookupCacheHitAllocFree(t *testing.T) {
	h, cs := cacheHier(t)
	g1, _ := h.GF("m", 1)
	g2, _ := h.GF("mm", 2)

	args1 := []*Class{cs[3]}
	args2 := []*Class{cs[1], cs[2]}
	h.Lookup(g1, args1...)
	h.Lookup(g2, args2...)

	if n := testing.AllocsPerRun(100, func() {
		h.Lookup(g1, args1...)
	}); n != 0 {
		t.Errorf("arity-1 Lookup hit allocates %v objects/op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		h.Lookup(g2, args2...)
	}); n != 0 {
		t.Errorf("arity-2 Lookup hit allocates %v objects/op", n)
	}
}

// TestLookupSlowAllocFree: a successful uncached lookup must not
// allocate either. ApplicableClasses runs it once per pole tuple, and
// every Lookup cache miss at run time goes through it.
func TestLookupSlowAllocFree(t *testing.T) {
	h, cs := cacheHier(t)
	g2, _ := h.GF("mm", 2)
	args := []*Class{cs[3], cs[2]} // mm(D, C): mm(@B,@C) beats mm(@A,@C) and mm(@A,@A)
	m, err := h.lookupSlow(g2, args)
	if err != nil || m.Name() != "mm(@B,@C)" {
		t.Fatalf("lookupSlow(mm, D, C) = %v, %v", m, err)
	}
	if n := testing.AllocsPerRun(100, func() {
		h.lookupSlow(g2, args)
	}); n != 0 {
		t.Errorf("successful 2-argument lookupSlow allocates %v objects/op", n)
	}
}

// TestConcurrentLookup hammers one frozen hierarchy from many
// goroutines, mixing cold and warm tuples, and checks every result
// against the serial answers. Run under -race this is the lookup half
// of the harness-concurrency guarantee.
func TestConcurrentLookup(t *testing.T) {
	h, cs := cacheHier(t)
	g1, _ := h.GF("m", 1)
	g2, _ := h.GF("mm", 2)

	// Serial reference answers from a second, identical hierarchy (so
	// the concurrent run starts with cold caches).
	href, _ := Build(lang.MustParse(cacheHierSrc))
	var refs []*Class
	for _, c := range cs {
		rc, _ := href.Class(c.Name)
		refs = append(refs, rc)
	}
	type want struct {
		name string
		amb  bool
		err  bool
	}
	wantM := make([]want, len(cs))
	wantMM := make([]want, len(cs)*len(cs))
	for i, c := range refs {
		if m, err := href.Lookup(href.gfs[GFKey("m", 1)], c); err != nil {
			wantM[i] = want{err: true, amb: err.Ambiguous}
		} else {
			wantM[i] = want{name: m.Name()}
		}
		for j, d := range refs {
			if m, err := href.Lookup(href.gfs[GFKey("mm", 2)], c, d); err != nil {
				wantMM[i*len(cs)+j] = want{err: true, amb: err.Ambiguous}
			} else {
				wantMM[i*len(cs)+j] = want{name: m.Name()}
			}
		}
	}

	const goroutines = 8
	const rounds = 300
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			args := make([]*Class, 2)
			for r := 0; r < rounds; r++ {
				i := (seed + r) % len(cs)
				j := (seed*3 + r) % len(cs)
				args[0], args[1] = cs[i], cs[j]
				m, err := h.Lookup(g2, args...)
				w2 := wantMM[i*len(cs)+j]
				if (err != nil) != w2.err || (err == nil && m.Name() != w2.name) ||
					(err != nil && err.Ambiguous != w2.amb) {
					errc <- &DispatchError{GF: g2, Classes: []*Class{cs[i], cs[j]}}
					return
				}
				m1, err1 := h.Lookup(g1, args[:1]...)
				w1 := wantM[i]
				if (err1 != nil) != w1.err || (err1 == nil && m1.Name() != w1.name) {
					errc <- &DispatchError{GF: g1, Classes: []*Class{cs[i]}}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("concurrent lookup diverged from serial answer: %v", err)
	}
}

// TestConcurrentLookupCountsExact: goroutines that miss the same tuple
// at once all run the slow lookup, but only the one that stores the
// result counts a miss; the rest count hits. So misses equal the number
// of distinct tuples and hits + misses equal the lookups made, however
// the goroutines interleave.
func TestConcurrentLookupCountsExact(t *testing.T) {
	h, cs := cacheHier(t)
	lm := NewLookupMetrics(obs.NewRegistry())
	h.SetLookupMetrics(lm)
	g1, _ := h.GF("m", 1)  // dense layout
	g2, _ := h.GF("mm", 2) // packed layout

	const goroutines = 8
	const rounds = 20
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			args := make([]*Class, 2)
			for r := 0; r < rounds; r++ {
				for _, c := range cs {
					args[0] = c
					h.Lookup(g1, args[:1]...)
					for _, d := range cs {
						args[1] = d
						h.Lookup(g2, args...)
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	tuples := uint64(len(cs) + len(cs)*len(cs))
	lookups := goroutines * rounds * tuples
	hits, misses := lm.CacheHits.Value(), lm.CacheMisses.Value()
	if misses != tuples {
		t.Errorf("misses = %d, want one per distinct tuple (%d)", misses, tuples)
	}
	if hits+misses != lookups {
		t.Errorf("hits + misses = %d + %d = %d, want %d lookups", hits, misses, hits+misses, lookups)
	}
}

// TestCachePutStoresOnce: in every layout, of the goroutines racing to
// store one tuple exactly one reports that it stored.
func TestCachePutStoresOnce(t *testing.T) {
	a, b := &Class{ID: 1}, &Class{ID: 2}
	for _, tc := range []struct {
		name  string
		c     *gfCache
		tuple []*Class
	}{
		{"dense", newGFCache(1, 4), []*Class{a}},
		{"packed", newGFCache(2, 4), []*Class{a, b}},
		{"wide", newGFCache(6, 70_000), []*Class{a, b, b, b, b, b}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const goroutines = 16
			var stored atomic.Int32
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < goroutines; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if tc.c.put(tc.tuple, lookupResult{m: &Method{ID: 1}}) {
						stored.Add(1)
					}
				}()
			}
			close(start)
			wg.Wait()
			if n := stored.Load(); n != 1 {
				t.Errorf("%d of %d racing puts stored, want 1", n, goroutines)
			}
		})
	}
}

// BenchmarkHierLookup measures cache-hit dispatch; run with -benchmem,
// hits must report 0 allocs/op.
func BenchmarkHierLookup(b *testing.B) {
	h, cs := cacheHier(b)

	b.Run("arity1", func(b *testing.B) {
		g, _ := h.GF("m", 1)
		args := make([]*Class, 1)
		for _, c := range cs {
			args[0] = c
			h.Lookup(g, args...)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			args[0] = cs[i%len(cs)]
			h.Lookup(g, args...)
		}
	})

	b.Run("arity2", func(b *testing.B) {
		g, _ := h.GF("mm", 2)
		args := make([]*Class, 2)
		for _, c1 := range cs {
			for _, c2 := range cs {
				args[0], args[1] = c1, c2
				h.Lookup(g, args...)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			args[0] = cs[i%len(cs)]
			args[1] = cs[(i/2)%len(cs)]
			h.Lookup(g, args...)
		}
	})
}
