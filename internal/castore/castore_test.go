package castore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"negativaml/internal/metrics"
)

func keyOf(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

func mustPut(t *testing.T, s *Store, kind string, payload []byte) string {
	t.Helper()
	key := keyOf(payload)
	if err := s.Put(kind, key, payload); err != nil {
		t.Fatalf("put %s/%s: %v", kind, key, err)
	}
	return key
}

func TestPutGetRoundTrip(t *testing.T) {
	counters := metrics.NewCounterSet()
	s, err := Open(t.TempDir(), Options{Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the quick brown fatbin")
	key := mustPut(t, s, "lib", payload)

	got, ok := s.Get("lib", key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("get = %q, %v; want original payload", got, ok)
	}
	if _, ok := s.Get("lib", keyOf([]byte("absent"))); ok {
		t.Fatal("get of absent key succeeded")
	}
	if !s.Has("lib", key) || s.Has("sparse", key) {
		t.Fatal("Has disagrees with contents")
	}
	// Re-putting the same object is a no-op, not a second copy.
	if err := s.Put("lib", key, payload); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Objects != 1 || st.Bytes != int64(len(payload)) || st.Puts != 1 {
		t.Fatalf("stats after re-put: %+v", st)
	}
	if counters.Get("store.hits") != 1 || counters.Get("store.misses") != 1 {
		t.Fatalf("counter mirror: hits=%d misses=%d", counters.Get("store.hits"), counters.Get("store.misses"))
	}
	if counters.Get("store.bytes") != int64(len(payload)) {
		t.Fatalf("store.bytes gauge = %d", counters.Get("store.bytes"))
	}
}

func TestInvalidNamesRejected(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "..", "a/b", "a b", "../x", ".hidden", "a..b"} {
		if err := s.Put(bad, "abcd", []byte("x")); err == nil {
			t.Errorf("kind %q accepted", bad)
		}
		if err := s.Put("lib", bad, []byte("x")); err == nil {
			t.Errorf("key %q accepted", bad)
		}
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma-long-payload")}
	keys := make([]string, len(payloads))
	var total int64
	for i, p := range payloads {
		keys[i] = mustPut(t, s, "lib", p)
		total += int64(len(p))
	}

	s.Close()
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.Stats()
	if st.Objects != len(payloads) || st.Bytes != total {
		t.Fatalf("reopened stats = %+v, want %d objects / %d bytes", st, len(payloads), total)
	}
	for i, key := range keys {
		got, ok := re.Get("lib", key)
		if !ok || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("reopened get %s = %q, %v", key, got, ok)
		}
	}
	if rep := re.Verify(); rep.Scanned != len(payloads) || rep.Removed != 0 {
		t.Fatalf("verify after clean reopen: %+v", rep)
	}
}

func TestByteBudgetEvictionLRU(t *testing.T) {
	// Budget fits exactly two 8-byte payloads.
	s, err := Open(t.TempDir(), Options{MaxBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	a := mustPut(t, s, "lib", []byte("aaaaaaaa"))
	b := mustPut(t, s, "lib", []byte("bbbbbbbb"))
	if _, ok := s.Get("lib", a); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	c := mustPut(t, s, "lib", []byte("cccccccc"))
	if s.Has("lib", b) {
		t.Fatal("LRU object b survived eviction")
	}
	if !s.Has("lib", a) || !s.Has("lib", c) {
		t.Fatal("recently used objects were evicted")
	}
	if st := s.Stats(); st.Evictions != 1 || st.Bytes != 16 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetainBlocksEviction(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MaxBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	a := mustPut(t, s, "lib", []byte("aaaaaaaa"))
	if !s.Retain("lib", a) {
		t.Fatal("retain of present object failed")
	}
	b := mustPut(t, s, "lib", []byte("bbbbbbbb"))
	c := mustPut(t, s, "lib", []byte("cccccccc"))
	// a is the LRU but pinned: b must go instead.
	if !s.Has("lib", a) {
		t.Fatal("retained object was evicted")
	}
	if s.Has("lib", b) {
		t.Fatal("unpinned LRU object b survived")
	}
	if s.Retain("lib", "feedfeed") {
		t.Fatal("retain of absent object succeeded")
	}
	d := mustPut(t, s, "lib", []byte("dddddddd")) // over budget, a pinned, c evicted
	if !s.Has("lib", a) || s.Has("lib", c) {
		t.Fatal("pin not honored while over budget")
	}
	// Releasing the pin makes a evictable again: the next over-budget Put
	// takes it (it is the LRU).
	s.Release("lib", a)
	e := mustPut(t, s, "lib", []byte("eeeeeeee"))
	if s.Has("lib", a) {
		t.Fatal("released LRU object not evicted under budget pressure")
	}
	if !s.Has("lib", d) || !s.Has("lib", e) {
		t.Fatal("recent objects evicted instead of the released LRU")
	}
}

// TestCrashMidWrite kills the store between the durable temp write and the
// atomic rename, then reopens: the store must see either the complete entry
// or none, and a Verify scan must come back clean.
func TestCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected crash")
	crash, err := Open(dir, Options{
		BeforeRename: func(kind, key string) error { return boom },
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("artifact that never lands")
	key := keyOf(payload)
	if err := crash.Put("lib", key, payload); !errors.Is(err, boom) {
		t.Fatalf("put under failpoint = %v, want injected crash", err)
	}
	// The temp file is left behind — exactly the post-crash disk state.
	tmps, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil || len(tmps) != 1 {
		t.Fatalf("want 1 leftover temp file, got %d (%v)", len(tmps), err)
	}

	crash.Close() // the "crashed" process is gone; its dir lock with it
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Has("lib", key) {
		t.Fatal("reopened store sees the half-written entry")
	}
	if _, ok := re.Get("lib", key); ok {
		t.Fatal("reopened store served the half-written entry")
	}
	if rep := re.Verify(); rep.Scanned != 0 || rep.Removed != 0 {
		t.Fatalf("verify after crash: %+v, want clean empty scan", rep)
	}
	tmps, _ = os.ReadDir(filepath.Join(dir, "tmp"))
	if len(tmps) != 0 {
		t.Fatal("reopen did not clear interrupted temp files")
	}
	// The same Put now completes and round-trips.
	if err := re.Put("lib", key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := re.Get("lib", key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("retry after crash did not round-trip")
	}
}

func TestCorruptObjectDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("soon to be flipped")
	key := mustPut(t, s, "lib", payload)
	path := s.objectPath("lib", key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get("lib", key); ok {
		t.Fatal("corrupt object served")
	}
	if s.Has("lib", key) {
		t.Fatal("corrupt object not removed on detection")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt", st)
	}

	// Same flip, detected by Verify instead of Get.
	key2 := mustPut(t, s, "lib", []byte("second victim"))
	path2 := s.objectPath("lib", key2)
	raw2, _ := os.ReadFile(path2)
	raw2[headerSize] ^= 0x01
	os.WriteFile(path2, raw2, 0o644)
	if rep := s.Verify(); rep.Scanned != 1 || rep.Removed != 1 {
		t.Fatalf("verify = %+v, want 1 scanned / 1 removed", rep)
	}
	if s.Has("lib", key2) {
		t.Fatal("verify left the corrupt object indexed")
	}

	// A truncated object is dropped at Open time (structural check) when
	// Open scans: here the index is corrupt.
	key3 := mustPut(t, s, "lib", []byte("third victim, truncated"))
	path3 := s.objectPath("lib", key3)
	os.Truncate(path3, headerSize+4)
	s.Close()
	flipIndexByte(t, dir)
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Has("lib", key3) {
		t.Fatal("truncated object survived reopen")
	}

	// Under a valid index Open opens no object, so the truncation is found
	// by the first Get: a miss, counted corrupt, and the object is gone.
	key4 := mustPut(t, re, "lib", []byte("fourth victim, truncated under an index"))
	re.Close()
	os.Truncate(re.objectPath("lib", key4), headerSize+4)
	counters := metrics.NewCounterSet()
	re2, err := Open(dir, Options{Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if !re2.indexFresh {
		t.Fatal("reopen did not trust a valid index")
	}
	if _, ok := re2.Get("lib", key4); ok {
		t.Fatal("truncated object served under the index")
	}
	if n := counters.Get("store.corrupt"); n != 1 {
		t.Fatalf("store.corrupt = %d, want 1", n)
	}
	if re2.Has("lib", key4) {
		t.Fatal("truncated object still indexed after its Get")
	}
}

// flipIndexByte corrupts one byte in the middle of dir's index file.
func flipIndexByte(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, indexName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestIndexFallsBackWhenStale: Open trusts the index only when the kind
// directories list exactly the indexed objects. A bit-flipped index, an
// extra object, a missing object and a leftover shard directory each send
// it back to the scan, whose view matches what is on disk.
func TestIndexFallsBackWhenStale(t *testing.T) {
	payloads := map[string][]byte{}
	for _, p := range []string{"alpha", "beta", "gamma"} {
		payloads[keyOf([]byte(p))] = []byte(p)
	}
	for _, tc := range []struct {
		name   string
		tamper func(t *testing.T, dir string, want map[string][]byte)
	}{
		{"bit-flipped", func(t *testing.T, dir string, _ map[string][]byte) { flipIndexByte(t, dir) }},
		{"truncated", func(t *testing.T, dir string, _ map[string][]byte) {
			os.Truncate(filepath.Join(dir, indexName), 20)
		}},
		{"extra object", func(t *testing.T, dir string, want map[string][]byte) {
			extra := []byte("written behind the index's back")
			if err := os.WriteFile(filepath.Join(dir, "lib", keyOf(extra)), Frame(extra), 0o644); err != nil {
				t.Fatal(err)
			}
			want[keyOf(extra)] = extra
		}},
		{"missing object", func(t *testing.T, dir string, want map[string][]byte) {
			key := keyOf([]byte("beta"))
			if err := os.Remove(filepath.Join(dir, "lib", key)); err != nil {
				t.Fatal(err)
			}
			delete(want, key)
		}},
		{"shard directory", func(t *testing.T, dir string, want map[string][]byte) {
			moved := []byte("an object of the older layout")
			key := keyOf(moved)
			if err := os.MkdirAll(filepath.Join(dir, "lib", key[:2]), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "lib", key[:2], key), Frame(moved), 0o644); err != nil {
				t.Fatal(err)
			}
			want[key] = moved
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := map[string][]byte{}
			for key, p := range payloads {
				mustPut(t, s, "lib", p)
				want[key] = p
			}
			s.Close()
			tc.tamper(t, dir, want)
			re, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.indexFresh {
				t.Fatal("a stale index was trusted")
			}
			var bytesWant int64
			for key, p := range want {
				bytesWant += int64(len(p))
				if got, ok := re.Get("lib", key); !ok || !bytes.Equal(got, p) {
					t.Errorf("get %s = %q, %v; want %q", key, got, ok, p)
				}
			}
			if st := re.Stats(); st.Objects != len(want) || st.Bytes != bytesWant {
				t.Fatalf("stats = %+v, want %d objects, %d bytes", st, len(want), bytesWant)
			}
		})
	}
}

// TestIndexLies: an index that passes the listing check but lies about an
// object — a wrong size, or an object whose bytes changed under a valid
// index — costs a miss, never wrong bytes.
func TestIndexLies(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resized := mustPut(t, s, "lib", []byte("indexed at the wrong size"))
	flipped := mustPut(t, s, "lib", []byte("flipped under a valid index"))
	kept := mustPut(t, s, "lib", []byte("untouched"))
	s.mu.Lock()
	s.objects[objKey{"lib", resized}].size += 3
	s.indexFresh = false
	s.mu.Unlock()
	s.Close()
	path := s.objectPath("lib", flipped)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.indexFresh {
		t.Fatal("an index whose names match the listing was not trusted")
	}
	for _, key := range []string{resized, flipped} {
		if got, ok := re.Get("lib", key); ok {
			t.Errorf("%s served %q", key, got)
		}
		if re.Has("lib", key) {
			t.Errorf("%s stayed indexed", key)
		}
	}
	if got, ok := re.Get("lib", kept); !ok || string(got) != "untouched" {
		t.Fatalf("untouched object: %q, %v", got, ok)
	}
	if st := re.Stats(); st.Corrupt != 2 || st.Objects != 1 || st.Bytes != int64(len("untouched")) {
		t.Fatalf("stats = %+v, want 2 corrupt, 1 object of %d bytes", st, len("untouched"))
	}
}

// TestIndexWrittenOnlyWhenChanged: Close leaves the index of an unchanged
// store alone, and the first change after Open removes it, so a store that
// dies before Close reopens by scanning.
func TestIndexWrittenOnlyWhenChanged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "lib", []byte("first"))
	s.Close()
	path := filepath.Join(dir, indexName)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Close wrote no index: %v", err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	re.Get("lib", keyOf([]byte("first")))
	re.Close()
	if after, err := os.Stat(path); err != nil || !os.SameFile(before, after) {
		t.Fatalf("Close rewrote the index of an unchanged store (%v)", err)
	}

	crashed, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	second := mustPut(t, crashed, "lib", []byte("second"))
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("the index outlived a change to the store: %v", err)
	}
	crashed.unlock() // dies without Close
	re, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.indexFresh || !re.Has("lib", second) {
		t.Fatalf("reopen after a crash: trusted %v, has the new object %v", re.indexFresh, re.Has("lib", second))
	}
}

// TestOpenMovesShardedObjects: a store written in the older kind/xx/key
// layout is still indexed. Open moves each object up to kind/key, where it
// passes the same checks as any other: valid ones serve byte-identical
// payloads, broken ones are removed and counted, and no shard directory is
// left for a second Open to move.
func TestOpenMovesShardedObjects(t *testing.T) {
	dir := t.TempDir()
	write := func(path string, payload []byte, mangle func([]byte) []byte) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mangle(Frame(payload)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeSharded := func(kind string, payload []byte, mangle func([]byte) []byte) objKey {
		key := keyOf(payload)
		write(filepath.Join(dir, kind, key[:2], key), payload, mangle)
		return objKey{kind, key}
	}
	keep := func(raw []byte) []byte { return raw }
	good := map[objKey][]byte{}
	var goodBytes int64
	for _, o := range []struct{ kind, payload string }{
		{"lib", "an image"}, {"lib", "another image"}, {"record", "a record"}, {"profile", "a profile"},
	} {
		good[writeSharded(o.kind, []byte(o.payload), keep)] = []byte(o.payload)
		goodBytes += int64(len(o.payload))
	}
	// One object sits in both layouts, as after a downgrade wrote its
	// shard copy: it is indexed, and its bytes counted, once.
	twice := []byte("a record")
	write(filepath.Join(dir, "record", keyOf(twice)), twice, keep)
	badMagic := writeSharded("lib", []byte("bad magic"), func(raw []byte) []byte { raw[0] ^= 0xff; return raw })
	truncated := writeSharded("record", []byte("cut short by a crash"), func(raw []byte) []byte { return raw[:headerSize+4] })

	counters := metrics.NewCounterSet()
	s, err := Open(dir, Options{Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	for id, payload := range good {
		if !fileExists(s.objectPath(id.kind, id.key)) {
			t.Errorf("%s/%s was not moved to kind/key", id.kind, id.key)
		}
		if got, ok := s.Get(id.kind, id.key); !ok || !bytes.Equal(got, payload) {
			t.Errorf("moved %s/%s: get = %q, %v", id.kind, id.key, got, ok)
		}
	}
	for _, id := range []objKey{badMagic, truncated} {
		if s.Has(id.kind, id.key) || fileExists(s.objectPath(id.kind, id.key)) || fileExists(filepath.Join(dir, id.kind, id.key[:2], id.key)) {
			t.Errorf("broken %s/%s survived the move", id.kind, id.key)
		}
	}
	if st := s.Stats(); st.Objects != len(good) || st.Bytes != goodBytes || st.Corrupt != 2 || counters.Get("store.corrupt") != 2 {
		t.Fatalf("stats = %+v, store.corrupt = %d; want %d objects, %d bytes, 2 corrupt", st, counters.Get("store.corrupt"), len(good), goodBytes)
	}
	s.Close()
	before := storeTree(t, dir)
	for _, p := range before {
		// Only kind/key files and root entries: nothing two levels down,
		// and no directory inside a kind directory.
		if name := strings.TrimSuffix(p, "/"); strings.Count(name, "/") > 1 || name != p && strings.Contains(name, "/") {
			t.Fatalf("%s is nested inside a kind directory", p)
		}
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Objects != len(good) || st.Bytes != goodBytes || st.Corrupt != 0 {
		t.Fatalf("second open: stats = %+v, want %d objects, %d bytes, 0 corrupt", st, len(good), goodBytes)
	}
	if after := storeTree(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("second open moved objects:\nbefore %v\nafter  %v", before, after)
	}
}

// storeTree lists every entry under dir outside tmp, relative to it, with
// a trailing slash on directories.
func storeTree(t *testing.T, dir string) []string {
	t.Helper()
	var entries []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		if rel == "tmp" {
			return filepath.SkipDir
		}
		if rel = filepath.ToSlash(rel); d.IsDir() {
			rel += "/"
		}
		entries = append(entries, rel)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestGetRejectsResizedObject: Get reads an object with a buffer sized from
// the index, so a file that shrank or grew on disk after it was indexed —
// whatever its bytes — is corrupt: a miss, removed, never served.
func TestGetRejectsResizedObject(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tc := range []struct {
		name   string
		resize func(raw []byte) []byte
	}{
		{"shrunk", func(raw []byte) []byte { return raw[:len(raw)-1] }},
		{"grown", func(raw []byte) []byte { return append(raw, 0) }},
		{"header only", func(raw []byte) []byte { return raw[:headerSize] }},
	} {
		key := mustPut(t, s, "lib", []byte("resized on disk: "+tc.name))
		path := s.objectPath("lib", key)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, tc.resize(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get("lib", key); ok {
			t.Errorf("%s: a resized object was served", tc.name)
		}
		if s.Has("lib", key) {
			t.Errorf("%s: a resized object stayed indexed", tc.name)
		}
	}
	if st := s.Stats(); st.Corrupt != 3 {
		t.Fatalf("stats = %+v, want 3 corrupt", st)
	}
}

// TestOversizedObjectSurvivesItsOwnPut: a payload larger than the whole
// budget must still store successfully (the budget overshoots by one
// object) rather than being evicted by its own Put.
func TestOversizedObjectSurvivesItsOwnPut(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MaxBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	big := []byte("twenty bytes long!!!")
	key := mustPut(t, s, "lib", big)
	if !s.Has("lib", key) {
		t.Fatal("oversized object evicted by its own Put")
	}
	if got, ok := s.Get("lib", key); !ok || !bytes.Equal(got, big) {
		t.Fatal("oversized object not served")
	}
	// A newer object displaces it once it becomes the LRU.
	small := mustPut(t, s, "lib", []byte("tiny"))
	if s.Has("lib", key) {
		t.Fatal("oversized LRU object survived replacement")
	}
	if !s.Has("lib", small) {
		t.Fatal("replacement object missing")
	}
}

// TestDataDirExclusive: a data dir admits one live store at a time; the
// lock releases on Close (and, in a real crash, on process exit).
func TestDataDirExclusive(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if second, err := Open(dir, Options{}); err == nil {
		second.Close()
		t.Fatal("second store opened a locked data dir")
	}
	s.Close()
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	re.Close()
	re.Close() // idempotent
}

// TestStaleReleaseAfterCorruptRemoval: removing a retained-but-corrupt
// object orphans its refs; the original holder's Release must drain the
// orphan count, not strip the pin of a fresh object re-stored under the
// same key by a new owner.
func TestStaleReleaseAfterCorruptRemoval(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("shared im")
	key := mustPut(t, s, "lib", payload)
	if !s.Retain("lib", key) { // holder A
		t.Fatal("retain failed")
	}
	// Corrupt the object on disk: the next Get force-removes it despite
	// the pin, orphaning A's reference.
	path := s.objectPath("lib", key)
	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0xff
	os.WriteFile(path, raw, 0o644)
	if _, ok := s.Get("lib", key); ok {
		t.Fatal("corrupt object served")
	}

	// The object is recomputed and re-stored; holder B pins the fresh copy.
	if err := s.Put("lib", key, payload); err != nil {
		t.Fatal(err)
	}
	if !s.Retain("lib", key) {
		t.Fatal("retain of fresh object failed")
	}
	// A's stale release lands: it must consume the orphaned ref.
	s.Release("lib", key)
	// Budget pressure: B's pin must still hold.
	mustPut(t, s, "lib", []byte("pressure1"))
	mustPut(t, s, "lib", []byte("pressure2"))
	if !s.Has("lib", key) {
		t.Fatal("fresh object evicted — stale release stripped the new owner's pin")
	}
	// B's own release makes it evictable for real.
	s.Release("lib", key)
	mustPut(t, s, "lib", []byte("pressure3"))
	if s.Has("lib", key) {
		t.Fatal("object survived eviction after its real owner released it")
	}
}

func TestWalk(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for i := 0; i < 5; i++ {
		want[mustPut(t, s, "profile", []byte(fmt.Sprintf("profile-%d", i)))] = true
	}
	mustPut(t, s, "lib", []byte("other kind"))
	got := map[string]bool{}
	err = s.Walk("profile", func(key string, size int64) error {
		got[key] = true
		if size <= 0 {
			t.Errorf("walk reported size %d", size)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("walk saw %d keys, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("walk missed %s", k)
		}
	}
}

// TestConcurrentAccess is the race-detector workout: concurrent puts, gets,
// pins, and walks over a shared bounded store.
func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MaxBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				payload := []byte(fmt.Sprintf("worker-%d-item-%d", g, i%10))
				key := keyOf(payload)
				if err := s.Put("lib", key, payload); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get("lib", key); ok && !bytes.Equal(got, payload) {
					t.Error("payload mismatch under concurrency")
					return
				}
				if s.Retain("lib", key) {
					s.Release("lib", key)
				}
				s.Walk("lib", func(string, int64) error { return nil })
				s.Stats()
			}
		}(g)
	}
	wg.Wait()
	if rep := s.Verify(); rep.Removed != 0 {
		t.Fatalf("verify after concurrent load: %+v", rep)
	}
}

// TestSyncDirsSnapshotsUnderSweepLock pins the group-commit barrier's
// lock ordering: the dirty-set snapshot happens only while syncMu is
// held. If a sweep (the background one, say) could snapshot-and-clear
// before taking the sweep lock, a concurrent commit-point SyncDirs would
// see an empty dirty set, win the lock, and return while that sweep's
// fsyncs had not started — publishing a manifest over undurable objects.
func TestSyncDirsSnapshotsUnderSweepLock(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "lib", []byte("durable before the manifest"))

	s.syncMu.Lock() // stand in for an in-flight sweep owning the barrier
	done := make(chan struct{})
	go func() {
		s.SyncDirs()
		close(done)
	}()
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond)
		s.mu.Lock()
		n := len(s.dirtyFiles)
		s.mu.Unlock()
		if n == 0 {
			s.syncMu.Unlock()
			t.Fatal("SyncDirs snapshotted the dirty set before holding the sweep lock")
		}
		select {
		case <-done:
			s.syncMu.Unlock()
			t.Fatal("SyncDirs returned while the sweep lock was held")
		default:
		}
	}
	s.syncMu.Unlock()
	<-done
	s.mu.Lock()
	left := len(s.dirtyFiles) + len(s.dirtyDirs)
	s.mu.Unlock()
	if left != 0 {
		t.Fatalf("dirty entries left after SyncDirs: %d", left)
	}
}

// BenchmarkStoreOpen reopens a store holding what one persisted pytorch141
// batch leaves behind: an image and a record per library, the four
// workloads' profiles and one verification record, each under a SHA-256
// hex key. Open's cost is per object and per directory, not per byte, so
// the payloads are small. index reopens under the index Close wrote; scan
// removes it first, so Open opens every object (the fallback). Only Open
// is timed.
func BenchmarkStoreOpen(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	objects := 0
	for _, k := range []struct {
		kind string
		n    int
	}{{"lib", 162}, {"record", 162}, {"profile", 4}, {"verify", 1}} {
		for i := 0; i < k.n; i++ {
			payload := []byte(fmt.Sprintf("%s payload %d", k.kind, i))
			if err := s.Put(k.kind, keyOf(payload), payload); err != nil {
				b.Fatal(err)
			}
			objects++
		}
	}
	s.Close()

	for _, scan := range []bool{false, true} {
		name := "index"
		if scan {
			name = "scan"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if scan {
					b.StopTimer()
					os.Remove(filepath.Join(dir, indexName))
					b.StartTimer()
				}
				re, err := Open(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if n := re.Stats().Objects; n != objects || re.indexFresh == scan {
					b.Fatalf("reopened store indexes %d objects (want %d), index trusted %v", n, objects, re.indexFresh)
				}
				re.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N)/float64(objects), "us/object")
		})
	}
}

// BenchmarkStorePut puts a 1 MiB object to a new key, which Put hashes
// for its header: /named is a name-addressed object, the only kind a
// batch stores. Each op's key is deleted again outside the timer, so every
// Put stages and publishes.
func BenchmarkStorePut(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	payload := bytes.Repeat([]byte("0123456789abcdef"), 1<<16)
	key := keyOf(payload)
	b.Run("named", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Put("record", key, payload); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			s.Delete("record", key)
			b.StartTimer()
		}
	})
}
