package castore

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// powerCut copies the store at its durable state into a new directory, as
// a power cut would leave it: each segment holds only what its last fsync
// covered, and the index describes nothing (the first change after Open
// removed it).
func powerCut(t *testing.T, s *Store) string {
	t.Helper()
	dir := t.TempDir()
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, seg := range s.segs {
		src, err := os.Open(s.segmentPath(id))
		if err != nil {
			t.Fatal(err)
		}
		dst, err := os.Create(filepath.Join(dir, filepath.Base(s.segmentPath(id))))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.CopyN(dst, src, seg.synced); err != nil {
			t.Fatal(err)
		}
		src.Close()
		dst.Close()
	}
	return dir
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestTornTailIsCutAtOpen: an append torn by a power cut is cut off at
// Open and never served, so the next append starts on an entry boundary.
// A store that trusted the segment's length would append after the torn
// bytes, and the next scan would read the torn entry's claimed length over
// the new entry and lose it.
func TestTornTailIsCutAtOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := mustPut(t, s, "record", []byte("a whole entry"))
	torn := mustPut(t, s, "record", bytes.Repeat([]byte("torn by a power cut "), 8))
	path, _, end := entryOf(t, s, "record", torn)
	s.Close()
	if err := os.Truncate(path, end-5); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Has("record", torn) {
		t.Fatal("a torn entry was indexed")
	}
	if st := re.Stats(); st.Objects != 1 || st.Corrupt != 1 {
		t.Fatalf("stats after the cut = %+v, want 1 object and 1 corrupt", st)
	}
	third := mustPut(t, re, "record", []byte("appended after the cut"))
	re.Close()
	os.Remove(filepath.Join(dir, indexName)) // read the segment again

	again, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	for key, want := range map[string]string{first: "a whole entry", third: "appended after the cut"} {
		if got, ok := again.Get("record", key); !ok || string(got) != want {
			t.Fatalf("%s after the cut and an append: %q, %v", key, got, ok)
		}
	}
	if again.Has("record", torn) {
		t.Fatal("the torn entry came back")
	}
}

// TestCrashPoints reopens a store after a crash at each point a write can
// stop between two states: before an entry's segment is flushed, right
// after a segment rotation, and in the middle of publishing the index.
// Every reopen serves each object it holds whole, and loses at most what
// was never flushed. (A crash before an entry is appended is
// TestCrashMidWrite.)
func TestCrashPoints(t *testing.T) {
	t.Run("segment sync", func(t *testing.T) {
		s, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		synced := mustPut(t, s, "record", []byte("flushed at the commit point"))
		s.SyncDirs()
		lost := mustPut(t, s, "record", []byte("appended, never flushed"))
		re, err := Open(powerCut(t, s), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if got, ok := re.Get("record", synced); !ok || string(got) != "flushed at the commit point" {
			t.Fatalf("a flushed entry after the cut: %q, %v", got, ok)
		}
		if re.Has("record", lost) {
			t.Fatal("an entry no fsync covered survived the power cut")
		}
	})
	t.Run("segment rotation", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		big := bytes.Repeat([]byte{7}, segmentBytes/3)
		var keys []string
		for i := 0; i < 3; i++ {
			keys = append(keys, mustPut(t, s, "record", append([]byte{byte(i)}, big...)))
		}
		if n := len(segmentFiles(t, dir)); n != 2 {
			t.Fatalf("%d segments after three third-of-a-segment puts, want 2", n)
		}
		die(s)
		// The crash came just after the next rotation created its file.
		next := filepath.Join(dir, "00000003.seg")
		if err := os.WriteFile(next, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		for i, key := range keys {
			if got, ok := re.Get("record", key); !ok || got[0] != byte(i) || len(got) != len(big)+1 {
				t.Fatalf("object %d after the crash: served %v", i, ok)
			}
		}
		after := mustPut(t, re, "record", []byte("into the empty segment"))
		if path, _, _ := entryOf(t, re, "record", after); path != next {
			t.Fatalf("the append after the crash went to %s, want the empty segment", path)
		}
	})
	t.Run("index publish", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		key := mustPut(t, s, "record", []byte("indexed, then the index tore"))
		s.Close()
		// A publish cut short leaves its temporary file, and a torn one
		// would have failed its checksum.
		if err := os.WriteFile(filepath.Join(dir, indexName+".tmp"), []byte("half an index"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(filepath.Join(dir, indexName), 20); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if re.indexFresh {
			t.Fatal("a torn index was trusted")
		}
		if got, ok := re.Get("record", key); !ok || string(got) != "indexed, then the index tore" {
			t.Fatalf("after the torn index: %q, %v", got, ok)
		}
		if _, err := os.Stat(filepath.Join(dir, indexName+".tmp")); !os.IsNotExist(err) {
			t.Fatalf("the cut publish's temporary file is still there: %v", err)
		}
	})
}

// TestManifestNeverDurableBeforeItsObjects: a manifest appended after
// SyncDirs never reaches the disk ahead of the objects it names, even when
// they sit in an older segment than it. At a power cut before and after
// the manifest's own flush, a reopened store that holds the manifest holds
// every object it names. A SyncDirs that flushed only the segment taking
// appends would leave the first record unflushed and fail here.
func TestManifestNeverDurableBeforeItsObjects(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	big := bytes.Repeat([]byte{1}, segmentBytes*3/4)
	named := []string{
		mustPut(t, s, "record", append([]byte("first "), big...)),
		mustPut(t, s, "record", append([]byte("second "), big...)), // a new segment
	}
	s.SyncDirs()
	mustPut(t, s, "job", []byte("job-0001 names both records"))
	check := func(when string) {
		re, err := Open(powerCut(t, s), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if !re.Has("job", keyOf([]byte("job-0001 names both records"))) {
			return
		}
		for _, key := range named {
			if _, ok := re.Get("record", key); !ok {
				t.Fatalf("power cut %s: the manifest is durable, record %.12s… is not", when, key)
			}
		}
	}
	check("before the manifest's flush")
	s.SyncDirs()
	check("after the manifest's flush")
}

// TestReclaimCopiesLiveEntriesForward: once eviction leaves a sealed
// segment mostly dead, its live entries — a pinned one here — are copied
// to the active segment and flushed, and only then is the segment removed.
// The budget counts live payload bytes only, and every reopen agrees.
func TestReclaimCopiesLiveEntriesForward(t *testing.T) {
	dir := t.TempDir()
	const mib = 1 << 20
	s, err := Open(dir, Options{MaxBytes: 5 * mib})
	if err != nil {
		t.Fatal(err)
	}
	payload := func(i int) []byte { return append([]byte{byte(i)}, bytes.Repeat([]byte{byte(i)}, mib-1)...) }
	pinned := mustPut(t, s, "record", payload(0))
	if !s.Retain("record", pinned) {
		t.Fatal("retain failed")
	}
	first, _, _ := entryOf(t, s, "record", pinned)
	for i := 1; i <= 6; i++ {
		mustPut(t, s, "record", payload(i))
	}
	if _, err := os.Stat(first); !os.IsNotExist(err) {
		t.Fatalf("the mostly dead first segment was not removed: %v", err)
	}
	if path, _, _ := entryOf(t, s, "record", pinned); path == first {
		t.Fatal("the pinned entry was not copied forward")
	}
	st := s.Stats()
	if st.Bytes != int64(st.Objects)*mib || st.Bytes > 5*mib || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want live payload bytes within the budget after 2 evictions", st)
	}
	if got, ok := s.Get("record", pinned); !ok || !bytes.Equal(got, payload(0)) {
		t.Fatal("the pinned object does not read back after its move")
	}
	if n := debris(t, s); n >= 2*st.Bytes {
		t.Fatalf("%d dead bytes beside %d live ones", n, st.Bytes)
	}
	crashed := powerCut(t, s)
	s.Close()
	for name, dir := range map[string]string{"index": dir, "scan": crashed} {
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := re.Stats(); got.Objects != st.Objects || got.Bytes != st.Bytes {
			t.Errorf("%s reopen: %+v, want %d objects of %d bytes", name, got, st.Objects, st.Bytes)
		}
		if got, ok := re.Get("record", pinned); !ok || !bytes.Equal(got, payload(0)) {
			t.Errorf("%s reopen: the moved object does not read back", name)
		}
		re.Close()
	}
}

// TestDeleteReplacesPinnedObject: Delete removes a pinned object too, and
// the key's next Put — the replacement — adopts its pins. The replacement
// wins at every reopen: from the index, and reading the segments, where
// the newer entry of a key replaces the older.
func TestDeleteReplacesPinnedObject(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("record", "k", []byte("an older form")); err != nil {
		t.Fatal(err)
	}
	s.Retain("record", "k")
	s.Delete("record", "k")
	if s.Has("record", "k") || s.Stats().Retained != 0 {
		t.Fatalf("after Delete: has %v, stats %+v", s.Has("record", "k"), s.Stats())
	}
	if err := s.Put("record", "k", []byte("the replacement")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Retained != 1 || st.Objects != 1 || st.Bytes != int64(len("the replacement")) {
		t.Fatalf("after the replacement: %+v, want it pinned and counted once", st)
	}
	s.SyncDirs()
	crashed := powerCut(t, s)
	s.Close()
	for name, dir := range map[string]string{"index": dir, "scan": crashed} {
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := re.Get("record", "k"); !ok || string(got) != "the replacement" {
			t.Errorf("%s reopen: %q, %v", name, got, ok)
		}
		re.Close()
	}
}

// FuzzOpenSegment opens a store whose one segment holds arbitrary bytes. It
// must not panic; every payload it serves must sit in the segment as a
// whole entry whose header sum matches it; and the segment it leaves takes
// a clean append.
func FuzzOpenSegment(f *testing.F) {
	good := AppendEntry(nil, "record", "one", NewFrame([]byte("first")))
	good = AppendEntry(good, "record", "two", NewFrame(bytes.Repeat([]byte("second"), 30)))
	f.Add(good)
	f.Add(good[:len(good)-3])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	f.Add(AppendEntry(append([]byte(nil), good...), "record", "one", NewFrame([]byte("replaced"))))
	f.Add([]byte{0xff, 0xff, 'r'})
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000001.seg"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.mu.Lock()
		var ids []objKey
		for id := range s.objects {
			ids = append(ids, id)
		}
		s.mu.Unlock()
		for _, id := range ids {
			if p, ok := s.Get(id.kind, id.key); ok && !bytes.Contains(raw, AppendEntry(nil, id.kind, id.key, NewFrame(p))) {
				t.Fatalf("%s/%s served a payload that is not a whole entry of the segment", id.kind, id.key)
			}
		}
		s.Delete("record", "after")
		if err := s.Put("record", "after", []byte("a clean append")); err != nil {
			t.Fatal(err)
		}
		s.Close()
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if got, ok := re.Get("record", "after"); !ok || string(got) != "a clean append" {
			t.Fatalf("the append after Open: %q, %v", got, ok)
		}
	})
}

// TestConcurrentReclaim is the race-detector workout for segments: puts
// that rotate and evict, reclaims copying entries forward, and gets, views,
// exports and pins of the moving entries, all at once. Every object read
// back must be its own payload.
func TestConcurrentReclaim(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 64<<10) }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				n := g*1000 + i
				key := fmt.Sprintf("k%d", n)
				if err := s.Put("record", key, payload(n)); err != nil {
					t.Error(err)
					return
				}
				old := fmt.Sprintf("k%d", g*1000+i/2)
				if got, ok := s.Get("record", old); ok && !bytes.Equal(got, payload(g*1000+i/2)) {
					t.Errorf("%s read back another payload", old)
				}
				if m, ok := s.OpenMapped("record", old); ok {
					if !bytes.Equal(m.data, payload(g*1000+i/2)) {
						t.Errorf("%s viewed another payload", old)
					}
					m.Close()
				}
				if s.Retain("record", key) {
					s.Export("record", key, io.Discard)
					s.Release("record", key)
				}
			}
		}(g)
	}
	wg.Wait()
	if rep := s.Verify(); rep.Removed != 0 {
		t.Fatalf("verify after concurrent reclaims: %+v", rep)
	}
	if st := s.Stats(); st.Bytes > 2<<20 || st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions and the budget kept", st)
	}
	// 20 MiB went through 4 MiB segments: without reclaims five or more
	// would be left.
	if n := len(segmentFiles(t, dir)); n > 3 {
		t.Fatalf("%d segments left for 2 MiB of live objects", n)
	}
}
