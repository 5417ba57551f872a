package hier

import (
	mathbits "math/bits"
	"sync"
	"sync/atomic"
)

// lookupResult is one memoized Lookup outcome: the winning method, or
// the dispatch error when the tuple does not understand the message.
type lookupResult struct {
	m   *Method
	err *DispatchError
}

// cacheShardCount is the number of locked shards of a packed cache.
// Power of two; the shard index is the top bits of a multiplicative
// hash of the key, so adjacent keys spread across shards.
const cacheShardCount = 16

type cacheShard struct {
	mu sync.RWMutex
	m  map[uint64]lookupResult
}

// gfCache memoizes Lookup results for one generic function. It is
// created by Freeze and is safe for concurrent use by multiple
// goroutines. Three layouts, chosen by arity and hierarchy size:
//
//   - arity ≤ 1: a dense per-class slot array read with lock-free
//     atomic loads (one pointer load per hit, zero allocations);
//   - packed: every class ID fits in keyBits bits and the whole tuple
//     packs into one uint64, stored in sharded RWMutex-protected maps
//     (zero allocations on hits);
//   - wide: arities or hierarchies too large to pack fall back to a
//     sync.Map keyed by the full 32-bit IDs (hits allocate the key
//     string but never alias, unlike the old 16-bit truncating key).
type gfCache struct {
	keyBits uint
	dense   []atomic.Pointer[lookupResult]
	shards  *[cacheShardCount]cacheShard
	wide    *sync.Map
}

// newGFCache sizes a cache for a generic function of the given arity
// over a hierarchy of numClasses classes (IDs 0..numClasses-1).
func newGFCache(arity, numClasses int) *gfCache {
	c := &gfCache{keyBits: uint(mathbits.Len(uint(numClasses)))}
	if c.keyBits == 0 {
		c.keyBits = 1
	}
	switch {
	case arity <= 1:
		n := numClasses
		if n == 0 {
			n = 1
		}
		// Arity 0 uses the single slot at index 0.
		c.dense = make([]atomic.Pointer[lookupResult], n)
	case uint(arity)*c.keyBits <= 64:
		c.shards = &[cacheShardCount]cacheShard{}
	default:
		c.wide = &sync.Map{}
	}
	return c
}

// packedKey concatenates the class IDs into one uint64, keyBits bits
// per position. Collision-free: every ID is < 1<<keyBits.
func (c *gfCache) packedKey(classes []*Class) uint64 {
	var k uint64
	for _, cl := range classes {
		k = k<<c.keyBits | uint64(cl.ID)
	}
	return k
}

// wideKey serializes the full 32-bit class IDs (the fallback layout's
// map key). Unlike the pre-cache string key this never truncates IDs.
func wideKey(classes []*Class) string {
	b := make([]byte, 0, 4*len(classes))
	for _, cl := range classes {
		b = append(b, byte(cl.ID), byte(cl.ID>>8), byte(cl.ID>>16), byte(cl.ID>>24))
	}
	return string(b)
}

func shardOf(key uint64) uint64 {
	// Fibonacci hash; top bits select one of the 16 shards.
	return (key * 0x9E3779B97F4A7C15) >> 60
}

// get returns the cached result for the class tuple, if present.
func (c *gfCache) get(classes []*Class) (lookupResult, bool) {
	switch {
	case c.dense != nil:
		idx := 0
		if len(classes) == 1 {
			idx = classes[0].ID
		}
		if p := c.dense[idx].Load(); p != nil {
			return *p, true
		}
		return lookupResult{}, false
	case c.shards != nil:
		key := c.packedKey(classes)
		s := &c.shards[shardOf(key)]
		s.mu.RLock()
		r, ok := s.m[key]
		s.mu.RUnlock()
		return r, ok
	default:
		if v, ok := c.wide.Load(wideKey(classes)); ok {
			return v.(lookupResult), true
		}
		return lookupResult{}, false
	}
}

// put stores a result unless the tuple already has one, and reports
// whether it stored. Racing writers for the same tuple compute the same
// deterministic result; exactly one of them stores it, so Lookup can
// count one miss per distinct tuple however many goroutines raced.
func (c *gfCache) put(classes []*Class, r lookupResult) bool {
	switch {
	case c.dense != nil:
		idx := 0
		if len(classes) == 1 {
			idx = classes[0].ID
		}
		return c.dense[idx].CompareAndSwap(nil, &r)
	case c.shards != nil:
		key := c.packedKey(classes)
		s := &c.shards[shardOf(key)]
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.m[key]; ok {
			return false
		}
		if s.m == nil {
			s.m = map[uint64]lookupResult{}
		}
		s.m[key] = r
		return true
	default:
		_, loaded := c.wide.LoadOrStore(wideKey(classes), r)
		return !loaded
	}
}
