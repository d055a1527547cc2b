package dserve

import (
	"fmt"
	"runtime"
	"testing"

	"negativaml/internal/metrics"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// Get, Put, Len and Stats are the compact stage's view of the cache, which
// the cache tests read it through.
func (c *ResultCache) Get(key string) (*negativa.LibDebloat, bool) {
	v, ok := c.get(negativa.StageCompact, key)
	ld, _ := v.(*negativa.LibDebloat)
	return ld, ok
}

func (c *ResultCache) Put(key string, ld *negativa.LibDebloat) {
	c.put(negativa.StageCompact, key, ld)
}

func (c *ResultCache) Len() int { return c.Stats().Entries }

func (c *ResultCache) Stats() CacheStats { return c.StageStats(negativa.StageCompact) }

// totalBytes is every stage's charge, what the bound holds.
func (c *ResultCache) totalBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// bounded reports whether the cache is within its bound: every stage's
// charge at or under the budget, or one entry left, which is never evicted
// (so the charge is at most the budget plus the largest entry).
func (c *ResultCache) bounded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes <= c.maxBytes || len(c.entries) == 1
}

// heapInUse is the heap in use after a GC.
func heapInUse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// testProfileRecords are the canonical batch's detect profiles as records.
func testProfileRecords(t *testing.T) [][]byte {
	t.Helper()
	var recs [][]byte
	for _, w := range testWorkloads(t, testInstall(t)) {
		p, err := negativa.DetectUsage(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := negativa.EncodeProfile(p)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestMemoryTiersBounded sweeps distinct values of each memoized stage
// through one StageMemo, well past a small CacheBytes: the bytes the cache
// charges never exceed the budget, unless one entry alone does, and the heap in
// use after a GC, less what it was before the sweep, stays under the budget
// plus heapSlack. heapSlack covers what a sweep leaves that no entry owns:
// the cache's map table, which does not shrink, and the service's own
// series. That is the guarantee the count bounds gave, now in bytes. A run
// result is 48 bytes, so a verifyrun entry's heap is mostly the entry
// itself: charged 176 bytes with its key, it holds about 400 (the entry,
// its list element, its map slot, its key and the result), so its sweep
// stays under three times the budget plus heapSlack instead.
func TestMemoryTiersBounded(t *testing.T) {
	const budget, heapSlack = 1 << 20, 512 << 10
	recs := testProfileRecords(t)
	fresh := func(i int) func() (any, error) {
		return func() (any, error) { return negativa.DecodeProfile(recs[i%len(recs)]) }
	}
	// sweep resolves keys through m until it has charged rounds × the budget,
	// checking the bound after each.
	sweep := func(t *testing.T, m *StageMemo, rounds int64, next func(i int) (plan.Key, func() (any, error))) {
		t.Helper()
		var charged int64
		for i := 0; charged < rounds*budget; i++ {
			key, compute := next(i)
			v, src, err := m.GetOrCompute(nil, key, nil, compute)
			if err != nil || src != plan.SourceComputed {
				t.Fatalf("value %d: src %v, err %v; every key of the sweep is new", i, src, err)
			}
			charged += entrySize(key.Hash, v)
			if !m.cache.bounded() {
				t.Fatalf("after %d values the cache charges %d B, over the %d B budget", i+1, m.cache.totalBytes(), budget)
			}
		}
	}
	checkHeap := func(t *testing.T, base int64, factor int64, m *StageMemo) {
		t.Helper()
		grew := heapInUse() - base
		runtime.KeepAlive(m)
		t.Logf("heap grew %d KiB under a %d KiB budget", grew>>10, budget>>10)
		for i := range memoStages {
			if st := m.cache.StageStats(memoStages[i].stage); st.Entries > 0 {
				t.Logf("%s: %+v", memoStages[i].stage, st)
			}
		}
		if grew > factor*budget+heapSlack {
			t.Fatalf("heap grew %d B over the sweep, past %d× the %d B budget plus %d B", grew, factor, budget, heapSlack)
		}
	}

	t.Run("detect", func(t *testing.T) {
		m := NewStageMemo(NewResultCache(budget, nil), nil)
		base := heapInUse()
		sweep(t, m, 8, func(i int) (plan.Key, func() (any, error)) {
			return negativa.DetectKey("fp", fmt.Sprintf("w%d", i)), fresh(i)
		})
		checkHeap(t, base, 1, m)
	})
	t.Run("verifyrun", func(t *testing.T) {
		m := NewStageMemo(NewResultCache(budget, nil), nil)
		base := heapInUse()
		sweep(t, m, 8, func(i int) (plan.Key, func() (any, error)) {
			key := negativa.VerifyRunKey("fp", fmt.Sprintf("w%d", i), 2, "set")
			return key, func() (any, error) { return &mlruntime.Result{Digest: uint64(i)}, nil }
		})
		checkHeap(t, base, 3, m)
	})
	// Unions are what a batch makes of its members' order: every order of
	// the canonical batch is a union of its own. Between batches, new detect
	// identities push the members' profiles out, so a later batch detects
	// again and its union holds profiles of its own.
	t.Run("detect and union", func(t *testing.T) {
		in := testInstall(t)
		ws := testWorkloads(t, in)
		svc := NewService(Config{CacheBytes: budget, MaxSteps: 2})
		defer svc.Close()
		if _, err := svc.DebloatBatch(in, ws, BatchOptions{SkipVerify: true}); err != nil {
			t.Fatal(err)
		}
		base := heapInUse()
		id := 0
		for order := 0; order < 24; order++ {
			perm := append([]mlruntime.Workload(nil), ws...)
			for i, k := 0, order; i < len(perm); i, k = i+1, k/(len(perm)-i) {
				j := i + k%(len(perm)-i)
				perm[i], perm[j] = perm[j], perm[i]
			}
			if _, err := svc.DebloatBatch(in, perm, BatchOptions{SkipVerify: true}); err != nil {
				t.Fatal(err)
			}
			if !svc.Cache.bounded() {
				t.Fatalf("after batch %d the cache charges %d B, over the %d B budget", order, svc.Cache.totalBytes(), budget)
			}
			sweep(t, svc.stages, 1, func(int) (plan.Key, func() (any, error)) {
				id++
				return negativa.DetectKey("fp", fmt.Sprintf("w%d", id)), fresh(id)
			})
		}
		if st := svc.Cache.StageStats(negativa.StageUnion); st.Misses < 24 || st.Evictions == 0 {
			t.Fatalf("union stage %+v: the sweep must make 24 unions and evict some", st)
		}
		checkHeap(t, base, 1, svc.stages)
	})
}

// TestCacheStagesKeptApart: each stage's entries, bytes and counts are its
// own, and the cache.* series follow the compact stage's alone, while one
// bound holds them all.
func TestCacheStagesKeptApart(t *testing.T) {
	counters := metrics.NewCounterSet()
	c := NewResultCache(1<<20, counters)
	ld := &negativa.LibDebloat{Report: &negativa.LibraryReport{Name: "lib"}}
	p := &negativa.Profile{Workload: "w", UsedFuncs: map[string][]string{"lib": {"f"}}}
	c.put(negativa.StageCompact, "k", ld)
	c.put(negativa.StageDetect, "k", p)
	c.put(negativa.StageVerifyRun, "v", &mlruntime.Result{})
	if v, ok := c.get(negativa.StageDetect, "k"); !ok || v != p {
		t.Fatal("a stage's value is filed under its stage and hash")
	}
	if _, ok := c.get(negativa.StageUnion, "k"); ok {
		t.Fatal("a hash held by other stages is a miss for this one")
	}
	want := map[string]CacheStats{
		negativa.StageCompact:   {Entries: 1, Bytes: entrySize("k", ld)},
		negativa.StageDetect:    {Entries: 1, Bytes: entrySize("k", p), Hits: 1},
		negativa.StageVerifyRun: {Entries: 1, Bytes: entrySize("v", &mlruntime.Result{})},
		negativa.StageUnion:     {Misses: 1},
	}
	var total int64
	for stage, w := range want {
		if got := c.StageStats(stage); got != w {
			t.Errorf("%s: %+v, want %+v", stage, got, w)
		}
		total += w.Bytes
	}
	if c.totalBytes() != total {
		t.Errorf("the bound charges %d B, the stages %d B", c.totalBytes(), total)
	}
	if c.Stats() != want[negativa.StageCompact] || c.Bytes() != want[negativa.StageCompact].Bytes {
		t.Errorf("Stats %+v and Bytes %d must be the compact stage's", c.Stats(), c.Bytes())
	}
	for name, v := range map[string]int64{"cache.hits": 0, "cache.misses": 0, "cache.evictions": 0, "cache.bytes": want[negativa.StageCompact].Bytes} {
		if got := counters.Get(name); got != v {
			t.Errorf("%s = %d, want %d (the compact stage's)", name, got, v)
		}
	}
}
