package dserve

import (
	"bytes"
	"testing"

	"negativaml/internal/cubin"
	"negativaml/internal/elfx"
	"negativaml/internal/fatbin"
	"negativaml/internal/gpuarch"
	"negativaml/internal/metrics"
	"negativaml/internal/negativa"
)

// smallLib builds a tiny CPU-only library for cache tests.
func smallLib(t *testing.T, name string, funcs ...string) *elfx.Library {
	t.Helper()
	b := elfx.NewBuilder(name)
	for _, f := range funcs {
		b.AddFunction(f, 32)
	}
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := elfx.Parse(name, data)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// gpuLib builds a tiny library carrying one cubin, for arch-sensitivity
// tests.
func gpuLib(t *testing.T, name string) *elfx.Library {
	t.Helper()
	b := elfx.NewBuilder(name)
	b.AddFunction("host", 32)
	c := cubin.New(gpuarch.SM75)
	c.AddKernel(cubin.Kernel{Name: "k", Code: bytes.Repeat([]byte{0x90}, 64), Flags: cubin.FlagEntry})
	blob, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	fb := &fatbin.FatBin{}
	fb.AddRegion().AddElement(fatbin.Element{Kind: fatbin.KindCubin, Arch: gpuarch.SM75, Payload: blob})
	fbBytes, err := fb.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b.SetFatbin(fbBytes)
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := elfx.Parse(name, data)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestCacheKeyContentAddressing(t *testing.T) {
	libA := smallLib(t, "liba.so", "f1", "f2")
	sameBytes := smallLib(t, "liba.so", "f1", "f2")
	renamed, err := elfx.Parse("libother.so", libA.Data)
	if err != nil {
		t.Fatal(err)
	}

	k1 := negativa.LocateKey(libA, []string{"f1"}, nil, []gpuarch.SM{gpuarch.SM75}).Hash
	if k2 := negativa.LocateKey(sameBytes, []string{"f1"}, nil, []gpuarch.SM{gpuarch.SM75}).Hash; k2 != k1 {
		t.Error("identical bytes + symbols must produce identical keys")
	}
	// The key addresses content, not the library name — tail libraries
	// shared across installs hit regardless of which install asks.
	if k3 := negativa.LocateKey(renamed, []string{"f1"}, nil, []gpuarch.SM{gpuarch.SM75}).Hash; k3 != k1 {
		t.Error("library name must not affect the key")
	}
	if k4 := negativa.LocateKey(libA, []string{"f2"}, nil, []gpuarch.SM{gpuarch.SM75}).Hash; k4 == k1 {
		t.Error("different used-function sets must produce different keys")
	}
	if k5 := negativa.LocateKey(libA, []string{"f1"}, []string{"k"}, []gpuarch.SM{gpuarch.SM75}).Hash; k5 == k1 {
		t.Error("used kernels must be part of the key")
	}
	// CPU-only libraries are arch-independent: heterogeneous-device batches
	// share their cache entries.
	if k6 := negativa.LocateKey(libA, []string{"f1"}, nil, []gpuarch.SM{gpuarch.SM80}).Hash; k6 != k1 {
		t.Error("architectures must not affect CPU-only library keys")
	}

	// GPU-carrying libraries are arch-sensitive, with canonicalized order.
	g := gpuLib(t, "libgpu.so")
	g1 := negativa.LocateKey(g, nil, []string{"k"}, []gpuarch.SM{gpuarch.SM75}).Hash
	if g2 := negativa.LocateKey(g, nil, []string{"k"}, []gpuarch.SM{gpuarch.SM80}).Hash; g2 == g1 {
		t.Error("architectures must be part of GPU-library keys")
	}
	g3 := negativa.LocateKey(g, nil, []string{"k"}, []gpuarch.SM{gpuarch.SM80, gpuarch.SM75}).Hash
	g4 := negativa.LocateKey(g, nil, []string{"k"}, []gpuarch.SM{gpuarch.SM75, gpuarch.SM80}).Hash
	if g3 != g4 {
		t.Error("architecture order must not affect the key")
	}
	// Symbols must not smear across list boundaries.
	k9 := negativa.LocateKey(libA, []string{"f1", "f2"}, nil, nil).Hash
	k10 := negativa.LocateKey(libA, []string{"f1"}, []string{"f2"}, nil).Hash
	if k9 == k10 {
		t.Error("function and kernel lists must be domain-separated")
	}
}

func TestCacheHitMissEviction(t *testing.T) {
	counters := metrics.NewCounterSet()
	mk := func(name string) *negativa.LibDebloat {
		return &negativa.LibDebloat{Report: &negativa.LibraryReport{Name: name}}
	}
	// Byte-bounded: room for two typical entries plus slack, so the third
	// insert forces an LRU eviction.
	unit := entrySize("k1", mk("a"))
	c := NewResultCache(2*unit+unit/2, counters)

	if _, ok := c.Get("k1"); ok {
		t.Fatal("empty cache must miss")
	}
	c.Put("k1", mk("a"))
	c.Put("k2", mk("b"))
	if got := c.Bytes(); got != 2*unit {
		t.Fatalf("retained bytes = %d, want %d", got, 2*unit)
	}
	if ld, ok := c.Get("k1"); !ok || ld.Report.Name != "a" {
		t.Fatal("k1 must hit after Put")
	}

	// k1 was just used, so inserting k3 evicts k2 (LRU).
	c.Put("k3", mk("c"))
	if _, ok := c.Get("k2"); ok {
		t.Error("k2 should have been evicted (least recently used)")
	}
	if _, ok := c.Get("k1"); !ok {
		t.Error("k1 should have survived eviction")
	}
	if _, ok := c.Get("k3"); !ok {
		t.Error("k3 should be present")
	}

	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries and 1 eviction", st)
	}
	if st.Bytes != c.Bytes() || st.Bytes <= 0 {
		t.Errorf("stats bytes = %d, live = %d", st.Bytes, c.Bytes())
	}
	// hits: k1, k1, k3 = 3; misses: k1(initial), k2(after evict) = 2.
	if st.Hits != 3 || st.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 3/2", st.Hits, st.Misses)
	}
	if counters.Get("cache.hits") != st.Hits || counters.Get("cache.misses") != st.Misses || counters.Get("cache.evictions") != st.Evictions {
		t.Errorf("counter mirror out of sync: %v vs %+v", counters.Snapshot(), st)
	}
	if counters.Get("cache.bytes") != st.Bytes {
		t.Errorf("cache.bytes gauge = %d, want %d", counters.Get("cache.bytes"), st.Bytes)
	}

	// Re-putting an existing key must not grow or evict.
	c.Put("k3", mk("c2"))
	if c.Len() != 2 {
		t.Errorf("len = %d after re-put, want 2", c.Len())
	}
	if ld, _ := c.Get("k3"); ld.Report.Name != "c2" {
		t.Error("re-put must replace the value")
	}
}

func TestCacheChargesReferencedImagesOnce(t *testing.T) {
	lib := smallLib(t, "liba.so", "f1", "f2")
	mk := func(funcs ...string) *negativa.LibDebloat {
		ld, err := negativa.LocateAndCompactLib(lib, funcs, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ld
	}
	c := NewResultCache(1<<20, nil)
	c.Put("k1", mk("f1"))
	withOne := c.Bytes()
	if withOne <= lib.FileSize() {
		t.Fatalf("bytes = %d must include the referenced image (%d)", withOne, lib.FileSize())
	}
	// A second entry over the same image must not charge the image again.
	c.Put("k2", mk("f2"))
	if grew := c.Bytes() - withOne; grew >= lib.FileSize() {
		t.Fatalf("second entry grew bytes by %d — image charged twice", grew)
	}
	// Shrinking the bound below the image evicts down to one entry but the
	// survivor still pins (and charges) the image.
	small := NewResultCache(lib.FileSize()/2, nil)
	small.Put("k1", mk("f1"))
	small.Put("k2", mk("f2"))
	if small.Len() != 1 {
		t.Fatalf("len = %d, want 1 under a bound smaller than the image", small.Len())
	}
	if small.Bytes() <= lib.FileSize() {
		t.Fatalf("bytes = %d must still charge the surviving entry's image", small.Bytes())
	}
}

func TestCacheRePutRechecksBound(t *testing.T) {
	mk := func(name string, kernels int) *negativa.LibDebloat {
		lr := &negativa.LibraryReport{Name: name}
		for i := 0; i < kernels; i++ {
			lr.UsedKernels = append(lr.UsedKernels, "kernel_with_a_long_name")
		}
		return &negativa.LibDebloat{Report: lr}
	}
	unit := entrySize("k1", mk("a", 0))
	c := NewResultCache(3*unit, nil)
	c.Put("k1", mk("a", 0))
	c.Put("k2", mk("b", 0))
	// Re-putting k2 with a much larger payload must evict k1, not leave
	// the cache over its bound.
	c.Put("k2", mk("b", 200))
	if c.Bytes() > 3*unit+entrySize("k2", mk("b", 200)) {
		t.Fatalf("bytes = %d way over bound after re-put", c.Bytes())
	}
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 should have been evicted by the oversized re-put")
	}
	if _, ok := c.Get("k2"); !ok {
		t.Fatal("re-put entry must survive")
	}
}

func TestCacheOversizedEntryStillCaches(t *testing.T) {
	c := NewResultCache(1, nil) // 1 byte: every entry is oversized
	ld := &negativa.LibDebloat{Report: &negativa.LibraryReport{Name: "big"}}
	c.Put("k", ld)
	if got, ok := c.Get("k"); !ok || got != ld {
		t.Fatal("the newest entry must never be evicted by its own Put")
	}
	c.Put("k2", ld)
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (previous oversized entry evicted)", c.Len())
	}
	if _, ok := c.Get("k2"); !ok {
		t.Fatal("k2 must be present")
	}
}
