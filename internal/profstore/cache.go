package profstore

import (
	"container/list"
	"sync"

	"deepcontext/internal/telemetry"
)

// dep is one generation stamp a cached result depends on: bucket key.start
// of shard dep.shard was at generation gen when the result was computed.
type dep struct {
	shard int
	key   winKey
	gen   uint64
}

// queryCache memoizes Hotspots, Diff and Aggregate results behind the
// shards. Entries are never pushed out by writes; instead each entry
// carries the generation stamps of every bucket it read (captured under the
// same all-shard read lock as the computation), and a lookup re-derives the
// current stamp set and serves the entry only on an exact match. Ingest,
// compaction and retention each bump or remove stamps, so any mutation of a
// (shard, window) a result depends on — including a bucket appearing or
// vanishing inside the queried range — misses and recomputes. Validation
// is O(buckets in range), orders of magnitude cheaper than re-folding
// merged CCTs.
//
// Cached values (hotspot rows, diff results, aggregate trees) are shared
// between callers and must be treated as read-only.
type queryCache struct {
	max int

	mu      sync.Mutex
	entries map[string]*cacheEntry
	lru     *list.List // front = most recently served

	// Effectiveness counters are telemetry handles (shared with /metrics
	// and Stats — one source of truth); recording stays off the cache
	// mutex.
	hits          *telemetry.Counter
	misses        *telemetry.Counter
	invalidations *telemetry.Counter
	evictions     *telemetry.Counter
}

type cacheEntry struct {
	qkey string
	// shape pins query-resolution outcomes that deps alone cannot (the
	// fine-vs-coarse buckets a diff instant resolved to); "" for range
	// queries, whose bucket set is fully carried by deps.
	shape string
	deps  []dep
	value any
	elem  *list.Element
}

// newQueryCache returns nil when max <= 0 — a nil *queryCache is a valid,
// permanently-disabled cache (every method no-ops).
func newQueryCache(max int, met *storeMetrics) *queryCache {
	if max <= 0 {
		return nil
	}
	return &queryCache{
		max:           max,
		entries:       make(map[string]*cacheEntry),
		lru:           list.New(),
		hits:          met.cacheHits,
		misses:        met.cacheMisses,
		invalidations: met.cacheInvalidations,
		evictions:     met.cacheEvictions,
	}
}

// serve returns the cached value for qkey when its recorded stamps match
// deps exactly. deps must have been computed under the all-shard read lock
// still (or just) held by the caller, so a hit is indistinguishable from
// recomputing at that lock point.
func (c *queryCache) serve(qkey, shape string, deps []dep) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	ent, ok := c.entries[qkey]
	if ok && ent.shape == shape && depsEqual(ent.deps, deps) {
		c.lru.MoveToFront(ent.elem)
		value := ent.value // put rewrites a live entry's fields under mu
		c.mu.Unlock()
		c.hits.Inc()
		return value, true
	}
	c.mu.Unlock()
	if ok {
		c.invalidations.Inc()
	}
	c.misses.Inc()
	return nil, false
}

// put records a freshly computed value under qkey, replacing any stale
// entry and evicting the least recently served entry beyond the cap.
func (c *queryCache) put(qkey, shape string, deps []dep, value any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.entries[qkey]; ok {
		ent.shape, ent.deps, ent.value = shape, deps, value
		c.lru.MoveToFront(ent.elem)
		return
	}
	ent := &cacheEntry{qkey: qkey, shape: shape, deps: deps, value: value}
	ent.elem = c.lru.PushFront(ent)
	c.entries[qkey] = ent
	for len(c.entries) > c.max {
		oldest := c.lru.Back()
		old := oldest.Value.(*cacheEntry)
		c.lru.Remove(oldest)
		delete(c.entries, old.qkey)
		c.evictions.Inc()
	}
}

func depsEqual(a, b []dep) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CacheStats reports query-cache occupancy and effectiveness since boot.
type CacheStats struct {
	Entries int `json:"entries"`
	Max     int `json:"max"`
	// Hits are queries answered from the cache (stamps matched).
	Hits int64 `json:"hits"`
	// Misses are queries that had to fold trees (no entry, or stale).
	Misses int64 `json:"misses"`
	// Invalidations are the subset of misses where an entry existed but a
	// depended-on (shard, window) had mutated since it was cached.
	Invalidations int64 `json:"invalidations"`
	Evictions     int64 `json:"evictions"`
}

func (c *queryCache) stats() *CacheStats {
	if c == nil {
		return nil
	}
	return &CacheStats{
		Entries:       c.len(),
		Max:           c.max,
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		Invalidations: c.invalidations.Value(),
		Evictions:     c.evictions.Value(),
	}
}

// len reports current occupancy (0 for a nil/disabled cache).
func (c *queryCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
