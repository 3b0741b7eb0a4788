package par

import (
	"hash/maphash"
	"sync"
)

const cacheShards = 32

// Cache is a sharded, concurrency-safe memoization map over any comparable
// key type. It is intended for caching pure functions: concurrent writers
// racing on the same key must be storing equal values, and whichever lands
// is kept. That keeps lookups deterministic without cross-shard
// coordination.
//
// Keys are hashed with maphash.Comparable, so fixed-size struct keys (e.g.
// logic.Key, digest.D) shard without allocating — the reason the hot
// identification caches stopped keying on strings.
type Cache[K comparable, V any] struct {
	shards [cacheShards]struct {
		mu sync.RWMutex
		m  map[K]V
	}
}

var cacheHashSeed = maphash.MakeSeed()

// NewCache returns an empty cache.
func NewCache[K comparable, V any]() *Cache[K, V] {
	c := &Cache[K, V]{}
	for i := range c.shards {
		c.shards[i].m = make(map[K]V)
	}
	return c
}

func (c *Cache[K, V]) shard(key K) *struct {
	mu sync.RWMutex
	m  map[K]V
} {
	return &c.shards[maphash.Comparable(cacheHashSeed, key)%cacheShards]
}

// Get returns the cached value for key. Hits and misses feed the aggregate
// live counters par.cache_hits / par.cache_misses (one atomic add — the
// warm-hit path stays allocation-free, pinned by the resynth AllocsPerRun
// tests). The split is scheduling-dependent — two workers racing on a cold
// key both miss where a serial run hits once — which is why the counters
// live in the Live registry, not in run reports.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	s := c.shard(key)
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	if ok {
		lHits.Inc()
	} else {
		lMisses.Inc()
	}
	return v, ok
}

// Set stores v under key.
func (c *Cache[K, V]) Set(key K, v V) {
	s := c.shard(key)
	s.mu.Lock()
	s.m[key] = v
	s.mu.Unlock()
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.RLock()
		n += len(c.shards[i].m)
		c.shards[i].mu.RUnlock()
	}
	return n
}
