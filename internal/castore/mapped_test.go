package castore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestOpenMappedRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := bytes.Repeat([]byte("mapped-bytes"), 1000)
	if err := s.Put("lib", "aa11", payload); err != nil {
		t.Fatal(err)
	}
	m, ok := s.OpenMapped("lib", "aa11")
	if !ok {
		t.Fatal("OpenMapped miss for stored object")
	}
	if !bytes.Equal(m.data, payload) {
		t.Fatal("mapped payload differs from stored payload")
	}
	if m.Size() != int64(len(payload)) {
		t.Fatalf("Size = %d, want %d", m.Size(), len(payload))
	}
	m.Close()
	m.Close() // idempotent
}

func TestOpenMappedMiss(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.OpenMapped("lib", "absent"); ok {
		t.Fatal("OpenMapped hit for absent object")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
}

// TestOpenMappedPinsAgainstEviction is the pin-scoped-unmap contract: while
// a mapping is open, the byte budget cannot evict its object; after Close
// it can.
func TestOpenMappedPinsAgainstEviction(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MaxBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("k", "pinned", []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	m, ok := s.OpenMapped("k", "pinned")
	if !ok {
		t.Fatal("OpenMapped miss")
	}
	// Two more puts would evict "pinned" (now LRU) if it were unpinned.
	if err := s.Put("k", "newer1", []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", "newer2", []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	if !s.Has("k", "pinned") {
		t.Fatal("mapped object was evicted while pinned")
	}
	if !bytes.Equal(m.data, []byte("0123456789abcdef")) {
		t.Fatal("mapped view corrupted across eviction pressure")
	}
	m.Close()
	// Unpinned now: the next put pushes it out.
	if err := s.Put("k", "newer3", []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	if s.Has("k", "pinned") {
		t.Fatal("object survived eviction after its mapping closed")
	}
}

func TestOpenMappedCorruptObjectRemoved(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("k", "bad1", []byte("soon to be corrupt")); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte on disk.
	path, start, _ := entryOf(t, s, "k", "bad1")
	patch(t, path, start, 0xFF)
	if _, ok := s.OpenMapped("k", "bad1"); ok {
		t.Fatal("OpenMapped served a corrupt object")
	}
	if s.Has("k", "bad1") {
		t.Fatal("corrupt object still indexed after OpenMapped")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", st.Corrupt)
	}
	// The failed open's pin must not leak: a fresh Put under the same key
	// starts with zero refs and is evictable/deletable.
	if err := s.Put("k", "bad1", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	s.Delete("k", "bad1")
	if s.Has("k", "bad1") {
		t.Fatal("re-put object undeletable: orphaned pin leaked onto it")
	}
}

// TestOpenMappedRejectsWrongIndexedSize: a header and payload that agree
// with each other but not with the size the index holds (an index that
// lied) are corrupt on the mapped path too, as they are for Get.
func TestOpenMappedRejectsWrongIndexedSize(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", "sized", []byte("self-consistent, wrongly indexed")); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.objects[objKey{"k", "sized"}].size--
	s.indexFresh = false
	s.mu.Unlock()
	s.Close()

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.indexFresh {
		t.Fatal("the index was not trusted")
	}
	if m, ok := re.OpenMapped("k", "sized"); ok {
		m.Close()
		t.Fatal("OpenMapped served an object whose size the index got wrong")
	}
	if st := re.Stats(); re.Has("k", "sized") || st.Corrupt != 1 || st.Bytes != 0 {
		t.Fatalf("after the rejected open: has %v, stats %+v; want gone, 1 corrupt, 0 bytes", re.Has("k", "sized"), st)
	}
}

// TestOpenMappedConcurrent hammers concurrent opens, reads, and closes of
// the same objects against eviction pressure — the shape the race detector
// checks in CI.
func TestOpenMappedConcurrent(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 4096)
		if err := s.Put("k", fmt.Sprintf("obj%d", i), payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(payloads)
				m, ok := s.OpenMapped("k", fmt.Sprintf("obj%d", k))
				if !ok {
					continue
				}
				if !bytes.Equal(m.data, payloads[k]) {
					t.Errorf("goroutine %d: mapped payload mismatch for obj%d", g, k)
					m.Close()
					return
				}
				m.Close()
			}
		}(g)
	}
	wg.Wait()
	if rep := s.Verify(); rep.Removed != 0 {
		t.Fatalf("Verify removed %d objects after concurrent mapping", rep.Removed)
	}
}
