package server

import (
	"container/list"
	"crypto/sha256"
	"sort"
	"strconv"
	"strings"
	"sync"

	"selspec/internal/profile"
)

// profileCacheSize bounds the profile memo, as maxEntries bounds the
// breaker: a stream of distinct programs cannot grow server memory
// without bound.
const profileCacheSize = 256

// profileKey identifies one training run. The paper gathers a profile
// once and reuses it across compilations because profiles "remain
// fairly constant across different inputs" (§3.7.2); the server does
// the same per program. The key is the full sha256 of the source — not
// the 8-byte ProgramKey, whose collision would silently apply one
// program's profile to another — plus the training overrides in
// canonical sorted name=value form. Nothing else a request carries
// changes the recorded call graph: threshold, label, verify and
// timeout act after training or only decide whether it finishes, and
// the engine and dispatch mechanism record identical profiles (tested
// in internal/programs).
type profileKey struct {
	source [sha256.Size]byte
	train  string
}

func newProfileKey(sum [sha256.Size]byte, train map[string]int64) profileKey {
	names := make([]string, 0, len(train))
	for n := range train {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(train[n], 10))
		b.WriteByte(';')
	}
	return profileKey{source: sum, train: b.String()}
}

// profileCache is a fixed-size LRU of successful training profiles in
// wire form. A Wire names sites, methods and classes by the dense IDs
// lowering assigns deterministically, so a cached Wire loads into any
// fresh parse of the same source. Values are never mutated once
// stored; LoadWire only reads them.
type profileCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // of *profileEntry, most recently used first
	byKey map[profileKey]*list.Element
}

type profileEntry struct {
	key  profileKey
	wire *profile.Wire
}

func newProfileCache(max int) *profileCache {
	return &profileCache{max: max, order: list.New(), byKey: map[profileKey]*list.Element{}}
}

// get returns the cached profile for k (nil on a miss) and marks it
// most recently used.
func (c *profileCache) get(k profileKey) *profile.Wire {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.byKey[k]
	if e == nil {
		return nil
	}
	c.order.MoveToFront(e)
	return e.Value.(*profileEntry).wire
}

// put stores w under k, evicting the least recently used entry when
// the cache is full. Two requests that missed on the same key both
// train and both put; their profiles are identical, so the later one
// simply refreshes the entry.
func (c *profileCache) put(k profileKey, w *profile.Wire) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.byKey[k]; e != nil {
		e.Value.(*profileEntry).wire = w
		c.order.MoveToFront(e)
		return
	}
	if c.order.Len() >= c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*profileEntry).key)
	}
	c.byKey[k] = c.order.PushFront(&profileEntry{key: k, wire: w})
}

// len reports the number of cached profiles.
func (c *profileCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
