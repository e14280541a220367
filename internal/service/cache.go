package service

import (
	"encoding/json"
	"sync"

	"nwforest/internal/lru"
	"nwforest/internal/persist"
)

// resultCache memoizes completed job results keyed by
// (graph hash, algorithm, canonical options key) — see JobSpec.CacheKey.
// Because every algorithm is deterministic given Options.Seed, a cached
// result is bit-identical to what a recomputation would produce. The
// cache is bounded both by entry count and by approximate total bytes:
// results carry per-edge slices, so counting entries alone would let a
// client with one large graph and many seeds grow the daemon without
// bound.
type resultCache struct {
	mu      sync.Mutex
	entries *lru.Cache[string, *JobResult]

	hits, misses int64
}

// CacheStats are the result cache's counters, as served by /stats.
type CacheStats struct {
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"maxBytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// DefaultMaxCacheBytes is the result-cache byte budget applied when the
// configured value is <= 0. The same default bounds retained job results.
const DefaultMaxCacheBytes = 256 << 20

func newResultCache(capacity int, maxBytes int64) *resultCache {
	return &resultCache{entries: lru.New[string, *JobResult](capacity, maxBytes, nil)}
}

// approxResultBytes estimates a result's resident size: the per-edge
// slices dominate, the rest is a small constant.
func approxResultBytes(r *JobResult) int64 {
	const overhead = 256
	if r == nil {
		return overhead
	}
	b := int64(overhead)
	if d := r.Decomposition; d != nil {
		b += int64(len(d.Colors))*4 + int64(len(d.Phases))*64
	}
	if o := r.Orientation; o != nil {
		b += int64(len(o.FromU)) + int64(len(o.Phases))*64
	}
	return b
}

// peek looks a key up for internal reuse (incremental warm starts)
// without touching the hit/miss counters, which track client-visible
// cache behavior only. It still refreshes recency: a warm start being
// used is a reason to keep the entry.
func (c *resultCache) peek(key string) (*JobResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Get(key)
}

func (c *resultCache) get(key string) (*JobResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.entries.Get(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return r, ok
}

func (c *resultCache) put(key string, r *JobResult) {
	size := approxResultBytes(r)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.Put(key, r, size)
}

// export serializes the cache's entries oldest-first for a snapshot.
// Replaying the records through put in that order reproduces both the
// contents and the recency order, so a warm restart evicts in the same
// sequence the original process would have.
func (c *resultCache) export() []persist.ResultRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]persist.ResultRecord, 0, c.entries.Len())
	for key, r := range c.entries.OldestFirst() {
		if raw, err := json.Marshal(r); err == nil {
			out = append(out, persist.ResultRecord{Key: key, Value: raw})
		}
	}
	return out
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size:      c.entries.Len(),
		Capacity:  c.entries.MaxEntries(),
		Bytes:     c.entries.Bytes(),
		MaxBytes:  c.entries.MaxBytes(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.entries.Evicted(),
	}
}
