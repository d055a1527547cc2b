package dserve

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"negativaml/internal/metrics"
	"negativaml/internal/mlruntime"
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

// ResultCache is the memory tier of every memoized stage — detect, union,
// compact and verifyrun — keyed by stage and hash: one least-recently-used
// list under one mutex, bounded by retained bytes (Config.CacheBytes), not
// entry count, since values vary in heap cost by orders of magnitude. An
// entry is charged entrySize, and a compact result's library image once
// across the entries that reference it, so the bound covers everything the
// cache alone can pin (doc.go lays out each stage's charge). It never
// writes to the store. Stored values are immutable and shared. Each
// stage's figures are its own (StageStats); Bytes and the cache.* series
// are the compact stage's.
type ResultCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64 // every stage's charge, against maxBytes
	entries  map[cacheKey]*list.Element
	lru      list.List // front = most recently used
	stages   map[string]*stageTier
	// libRefs counts entries referencing each distinct library image;
	// the image's bytes are charged while the count is non-zero.
	libRefs  map[[sha256.Size]byte]int
	counters *metrics.CounterSet
}

type cacheKey struct{ stage, hash string }

// stageTier is one stage's share of the cache; the cache.* series mirror
// the compact stage's.
type stageTier struct {
	CacheStats
	mirror bool
}

type cacheEntry struct {
	key  cacheKey
	v    any
	tier *stageTier
	size int64
	// libDigest / libSize identify the original image a compact result's
	// sparse report references (libSize 0 for any other value).
	libDigest [sha256.Size]byte
	libSize   int64
}

// entrySize charges an entry with its key, 64 bytes for the entry itself
// and what its value alone retains; a compact result's library image is
// charged separately, once per distinct image, via libRefs.
func entrySize(hash string, v any) int64 {
	var n int64
	switch v := v.(type) {
	case *negativa.LibDebloat:
		n = v.Report.RetainedBytes()
	case *negativa.Profile:
		n = v.RetainedBytes()
	case *negativa.Union:
		n = v.RetainedBytes()
	case *mlruntime.Result:
		n = v.RetainedBytes()
	}
	return int64(len(hash)) + 64 + n
}

// NewResultCache returns a cache bounded to maxBytes of retained entries
// (values < 1 are treated as 1 byte, i.e. effectively a single-entry
// scratch). counters, when non-nil, mirrors the compact stage's hits,
// misses and evictions as cache.hits / cache.misses / cache.evictions, and
// its bytes as the cache.bytes gauge, for the service metrics endpoint.
func NewResultCache(maxBytes int64, counters *metrics.CounterSet) *ResultCache {
	if maxBytes < 1 {
		maxBytes = 1
	}
	return &ResultCache{
		maxBytes: maxBytes,
		entries:  map[cacheKey]*list.Element{},
		stages:   map[string]*stageTier{},
		libRefs:  map[[sha256.Size]byte]int{},
		counters: counters,
	}
}

// tier returns the stage's share, made on first use. Callers hold c.mu.
func (c *ResultCache) tier(stage string) *stageTier {
	t := c.stages[stage]
	if t == nil {
		t = &stageTier{mirror: stage == negativa.StageCompact}
		c.stages[stage] = t
	}
	return t
}

func (c *ResultCache) count(t *stageTier, name string, p *int64) {
	*p++
	if t.mirror && c.counters != nil {
		c.counters.Add(name, 1)
	}
}

// addBytes adjusts the bound's charge and the stage's.
func (c *ResultCache) addBytes(t *stageTier, delta int64) {
	c.bytes += delta
	t.Bytes += delta
	if t.mirror && c.counters != nil {
		c.counters.Add("cache.bytes", delta)
	}
}

// get returns the stage's value for the hash, refreshing its recency and
// counting a hit or a miss.
func (c *ResultCache) get(stage, hash string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[cacheKey{stage, hash}]
	if !ok {
		t := c.tier(stage)
		c.count(t, "cache.misses", &t.Misses)
		return nil, false
	}
	c.lru.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	c.count(ent.tier, "cache.hits", &ent.tier.Hits)
	return ent.v, true
}

// contains reports whether the stage's value for the hash is resident,
// without touching recency or the hit/miss counts: the batch prefetch's
// local-presence probe must not skew the cache's observed behavior.
func (c *ResultCache) contains(stage, hash string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[cacheKey{stage, hash}]
	return ok
}

// retainLib charges the entry's referenced library image on its first
// reference; releaseLib refunds it on the last.
func (c *ResultCache) retainLib(ent *cacheEntry) {
	if ent.libSize == 0 {
		return
	}
	c.libRefs[ent.libDigest]++
	if c.libRefs[ent.libDigest] == 1 {
		c.addBytes(ent.tier, ent.libSize)
	}
}

func (c *ResultCache) releaseLib(ent *cacheEntry) {
	if ent.libSize == 0 {
		return
	}
	c.libRefs[ent.libDigest]--
	if c.libRefs[ent.libDigest] == 0 {
		delete(c.libRefs, ent.libDigest)
		c.addBytes(ent.tier, -ent.libSize)
	}
}

// remove drops the entry and refunds its charge.
func (c *ResultCache) remove(el *list.Element) *cacheEntry {
	ent := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, ent.key)
	ent.tier.Entries--
	c.addBytes(ent.tier, -ent.size)
	c.releaseLib(ent)
	return ent
}

// evictOver drops least-recently-used entries, of any stage, until the
// retained bytes fit the bound; the most recent entry is never evicted, so
// one oversized value still caches.
func (c *ResultCache) evictOver() {
	for c.bytes > c.maxBytes && len(c.entries) > 1 {
		ent := c.remove(c.lru.Back())
		c.count(ent.tier, "cache.evictions", &ent.tier.Evictions)
	}
}

// put stores the stage's value for the hash, as its most recent entry,
// evicting least-recently-used entries until the retained bytes fit the
// bound. A re-put replaces the key's entry.
func (c *ResultCache) put(stage, hash string, v any) {
	ent := &cacheEntry{key: cacheKey{stage, hash}, v: v, size: entrySize(hash, v)}
	if ld, ok := v.(*negativa.LibDebloat); ok && ld.Report.Sparse != nil {
		lib := ld.Report.Sparse.Lib()
		ent.libDigest = lib.ContentDigest()
		ent.libSize = lib.FileSize()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[ent.key]; ok {
		c.remove(el)
	}
	ent.tier = c.tier(stage)
	c.entries[ent.key] = c.lru.PushFront(ent)
	ent.tier.Entries++
	c.addBytes(ent.tier, ent.size)
	c.retainLib(ent)
	c.evictOver()
}

// Bytes returns the retained bytes charged to the compact stage, library
// images included.
func (c *ResultCache) Bytes() int64 {
	return c.StageStats(negativa.StageCompact).Bytes
}

// StageStats returns a snapshot of the stage's share of the cache: its
// entries and charged bytes, and its hits, misses and evictions.
func (c *ResultCache) StageStats(stage string) CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.stages[stage]; t != nil {
		return t.CacheStats
	}
	return CacheStats{}
}
