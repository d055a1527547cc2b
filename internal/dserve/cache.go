package dserve

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"negativaml/internal/metrics"
	"negativaml/internal/negativa"
)

// CacheStats is a point-in-time view of cache effectiveness.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// ResultCache is the content-addressed locate+compact cache with LRU
// eviction bounded by retained bytes, not entry count: entries are sparse
// (a range set plus the report), so their real heap cost varies by orders
// of magnitude and a byte bound is the honest knob. A sparse entry keeps
// its original library image alive, so the cache also charges each
// distinct referenced image once (refcounted across entries) — the bound
// covers everything the cache alone can pin after the owning install is
// evicted. It is the compact stage's memory tier: the stage memo's disk
// loader plants results read from the store here, and a new result reaches
// the store through the service's write-behind (Service.writeStage), never
// through the cache. Stored values are immutable: hits hand out the
// shared report and sparse image, which callers must treat as read-only.
// Concurrent misses on the same key may compute the result twice; both
// Puts store identical content, so the race is benign.
type ResultCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[string]*list.Element
	lru      list.List // front = most recently used
	// libRefs counts entries referencing each distinct library image;
	// the image's bytes are charged while the count is non-zero.
	libRefs  map[[sha256.Size]byte]int
	hits     int64
	misses   int64
	evicted  int64
	counters *metrics.CounterSet
}

type cacheEntry struct {
	key  string
	ld   *negativa.LibDebloat
	size int64
	// libDigest / libSize identify the original image the sparse report
	// references (hasLib false for reports without one, e.g. in tests).
	libDigest [sha256.Size]byte
	libSize   int64
	hasLib    bool
}

// entrySize charges an entry with the bytes its sparse report itself pins
// (key string + report + range set); the referenced library image is
// charged separately, once per distinct image, via libRefs.
func entrySize(key string, ld *negativa.LibDebloat) int64 {
	return int64(len(key)) + 64 + ld.Report.RetainedBytes()
}

// NewResultCache returns a cache bounded to maxBytes of retained entries
// (values < 1 are treated as 1 byte, i.e. effectively a single-entry
// scratch). counters, when non-nil, mirrors cache.hits / cache.misses /
// cache.evictions, and tracks cache.bytes as a gauge, for the service
// metrics endpoint.
func NewResultCache(maxBytes int64, counters *metrics.CounterSet) *ResultCache {
	if maxBytes < 1 {
		maxBytes = 1
	}
	return &ResultCache{
		maxBytes: maxBytes,
		entries:  map[string]*list.Element{},
		libRefs:  map[[sha256.Size]byte]int{},
		counters: counters,
	}
}

func (c *ResultCache) count(name string, p *int64) {
	*p++
	if c.counters != nil {
		c.counters.Add(name, 1)
	}
}

// addBytes adjusts the retained-byte gauge.
func (c *ResultCache) addBytes(delta int64) {
	c.bytes += delta
	if c.counters != nil {
		c.counters.Add("cache.bytes", delta)
	}
}

// Get returns the cached result for the key, refreshing its recency.
func (c *ResultCache) Get(key string) (*negativa.LibDebloat, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.count("cache.misses", &c.misses)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.count("cache.hits", &c.hits)
	return el.Value.(*cacheEntry).ld, true
}

// Contains reports whether the key is resident in the memory tier,
// without touching recency or the hit/miss counters — the batch
// prefetch's local-presence probe must not skew the cache's observed
// behavior.
func (c *ResultCache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// retainLib charges the entry's referenced library image on its first
// reference; releaseLib refunds it on the last.
func (c *ResultCache) retainLib(ent *cacheEntry) {
	if !ent.hasLib {
		return
	}
	c.libRefs[ent.libDigest]++
	if c.libRefs[ent.libDigest] == 1 {
		c.addBytes(ent.libSize)
	}
}

func (c *ResultCache) releaseLib(ent *cacheEntry) {
	if !ent.hasLib {
		return
	}
	c.libRefs[ent.libDigest]--
	if c.libRefs[ent.libDigest] == 0 {
		delete(c.libRefs, ent.libDigest)
		c.addBytes(-ent.libSize)
	}
}

// evictOver drops least-recently-used entries until the retained bytes fit
// the bound; the most recent entry is never evicted, so one oversized
// result still caches.
func (c *ResultCache) evictOver() {
	for c.bytes > c.maxBytes && len(c.entries) > 1 {
		oldest := c.lru.Back()
		ent := oldest.Value.(*cacheEntry)
		c.lru.Remove(oldest)
		delete(c.entries, ent.key)
		c.addBytes(-ent.size)
		c.releaseLib(ent)
		c.count("cache.evictions", &c.evicted)
	}
}

// Put stores a result in memory, evicting least-recently-used entries
// until the retained bytes fit the bound. Re-putting an existing key
// refreshes its recency (and re-checks the bound if the size changed).
func (c *ResultCache) Put(key string, ld *negativa.LibDebloat) {
	ent := &cacheEntry{key: key, ld: ld, size: entrySize(key, ld)}
	if sp := ld.Report.Sparse; sp != nil {
		lib := sp.Lib()
		ent.libDigest = lib.ContentDigest()
		ent.libSize = lib.FileSize()
		ent.hasLib = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		old := el.Value.(*cacheEntry)
		c.addBytes(ent.size - old.size)
		c.retainLib(ent)
		c.releaseLib(old)
		el.Value = ent
		c.lru.MoveToFront(el)
		c.evictOver()
		return
	}
	c.entries[key] = c.lru.PushFront(ent)
	c.addBytes(ent.size)
	c.retainLib(ent)
	c.evictOver()
}

// Len returns the number of cached entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the retained bytes currently charged to the cache.
func (c *ResultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns a snapshot of cache effectiveness.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: len(c.entries), Bytes: c.bytes, Hits: c.hits, Misses: c.misses, Evictions: c.evicted}
}
