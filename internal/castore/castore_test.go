package castore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"negativaml/internal/metrics"
)

func keyOf(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// frame is an entry without its name — the 48-byte header, then the
// payload — as Export streams it and an older layout's object file held it.
func frame(payload []byte) []byte { return append(appendHeader(nil, payload), payload...) }

func mustPut(t *testing.T, s *Store, kind string, payload []byte) string {
	t.Helper()
	key := keyOf(payload)
	if err := s.Put(kind, key, payload); err != nil {
		t.Fatalf("put %s/%s: %v", kind, key, err)
	}
	return key
}

// entryOf returns the segment file holding (kind, key)'s entry and the
// offsets of its payload's first byte and of the entry's end.
func entryOf(t *testing.T, s *Store, kind, key string) (path string, payload, end int64) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.objects[objKey{kind, key}]
	if o == nil {
		t.Fatalf("%s/%s is not stored", kind, key)
	}
	end = o.off + entryLen(o.id, o.size)
	return s.segmentPath(o.seg.id), end - o.size, end
}

// patch XORs mask into the byte at off of the file at path.
func patch(t *testing.T, path string, off int64, mask byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := []byte{0}
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= mask
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// debris is what the store's segments hold beyond its indexed entries:
// bytes an aborted write appended, or dead entries.
func debris(t *testing.T, s *Store) int64 {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, seg := range s.segs {
		n += seg.size - seg.live
	}
	return n
}

// die drops the store as a killed process would: no flush, no index,
// its files closed and its lock released by the exit.
func die(s *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		seg.f.Close()
	}
	s.unlockLocked()
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

// TestCrashMidWrite kills the store at the point an entry would become
// visible, then reopens: the store must see either the complete entry or
// none, and a Verify scan must come back clean.
func TestCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected crash")
	crash, err := Open(dir, Options{
		BeforeAppend: func(kind, key string) error { return boom },
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("artifact that never lands")
	key := keyOf(payload)
	if err := crash.Put("lib", key, payload); !errors.Is(err, boom) {
		t.Fatalf("put under failpoint = %v, want injected crash", err)
	}
	if n := debris(t, crash); n != 0 {
		t.Fatalf("the aborted put appended %d bytes", n)
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
	path, _, end := entryOf(t, s, "lib", key)
	patch(t, path, end-1, 0xff)

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
	path2, start2, _ := entryOf(t, s, "lib", key2)
	patch(t, path2, start2, 0x01)
	if rep := s.Verify(); rep.Scanned != 1 || rep.Removed != 1 {
		t.Fatalf("verify = %+v, want 1 scanned / 1 removed", rep)
	}
	if s.Has("lib", key2) {
		t.Fatal("verify left the corrupt object indexed")
	}

	// A truncated entry is cut off at Open time when Open scans: here the
	// index is corrupt too.
	key3 := mustPut(t, s, "lib", []byte("third victim, truncated"))
	path3, start3, _ := entryOf(t, s, "lib", key3)
	s.Close()
	os.Truncate(path3, start3+4)
	flipIndexByte(t, dir)
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Has("lib", key3) {
		t.Fatal("truncated object survived reopen")
	}

	// Under a valid index Open reads no entry, so a flipped payload byte is
	// found by the first Get: a miss, counted corrupt, and the object is
	// gone.
	key4 := mustPut(t, re, "lib", []byte("fourth victim, flipped under an index"))
	path4, start4, _ := entryOf(t, re, "lib", key4)
	re.Close()
	patch(t, path4, start4+4, 0x10)
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
		t.Fatal("flipped object served under the index")
	}
	if n := counters.Get("store.corrupt"); n != 1 {
		t.Fatalf("store.corrupt = %d, want 1", n)
	}
	if re2.Has("lib", key4) {
		t.Fatal("flipped object still indexed after its Get")
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

// TestIndexFallsBackWhenStale: Open trusts the index only when the segment
// files are exactly the indexed ones at their indexed lengths. A
// bit-flipped or truncated index, an extra object in the older layout, a
// segment cut short (its last object missing) and a leftover shard
// directory each send it back to reading the segments, whose view matches
// what is on disk.
func TestIndexFallsBackWhenStale(t *testing.T) {
	names := []string{"alpha", "beta", "gamma"} // put in this order
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
			if err := os.MkdirAll(filepath.Join(dir, "lib"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "lib", keyOf(extra)), frame(extra), 0o644); err != nil {
				t.Fatal(err)
			}
			want[keyOf(extra)] = extra
		}},
		{"missing object", func(t *testing.T, dir string, want map[string][]byte) {
			seg := filepath.Join(dir, "00000001.seg")
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, info.Size()-1); err != nil {
				t.Fatal(err)
			}
			delete(want, keyOf([]byte("gamma")))
		}},
		{"shard directory", func(t *testing.T, dir string, want map[string][]byte) {
			moved := []byte("an object of the older layout")
			key := keyOf(moved)
			if err := os.MkdirAll(filepath.Join(dir, "lib", key[:2]), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "lib", key[:2], key), frame(moved), 0o644); err != nil {
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
			for _, name := range names {
				want[mustPut(t, s, "lib", []byte(name))] = []byte(name)
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

// TestIndexLies: an index that passes the segment check but lies about an
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
	path, _, end := entryOf(t, s, "lib", flipped)
	s.mu.Lock()
	s.objects[objKey{"lib", resized}].size += 3
	s.indexFresh = false
	s.mu.Unlock()
	s.Close()
	patch(t, path, end-1, 0xff)

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
	die(crashed)
	re, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.indexFresh || !re.Has("lib", second) {
		t.Fatalf("reopen after a crash: trusted %v, has the new object %v", re.indexFresh, re.Has("lib", second))
	}
}

// TestOpenMovesShardedObjects: a store written in the older layouts, one
// file per object at kind/xx/key or kind/key, is still indexed. Open moves
// each object into a segment, where it passes the same checks as any
// other: valid ones serve byte-identical payloads, broken ones are dropped
// and counted, an object a migration cut short already appended is indexed
// once, and no old directory is left for a second Open to move.
func TestOpenMovesShardedObjects(t *testing.T) {
	dir := t.TempDir()
	write := func(path string, payload []byte, mangle func([]byte) []byte) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mangle(frame(payload)), 0o644); err != nil {
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
	flat := []byte("a verify record in the kind/key layout")
	write(filepath.Join(dir, "verify", keyOf(flat)), flat, keep)
	good[objKey{"verify", keyOf(flat)}] = flat
	goodBytes += int64(len(flat))
	write(filepath.Join(dir, "tmp", "interrupted"), []byte("never renamed"), keep)
	// A migration cut short appended one object before the crash; the
	// next Open migrates again and indexes it once.
	if err := os.WriteFile(filepath.Join(dir, "00000001.seg"), AppendEntry(nil, "lib", keyOf([]byte("an image")), []byte("an image")), 0o644); err != nil {
		t.Fatal(err)
	}

	counters := metrics.NewCounterSet()
	s, err := Open(dir, Options{Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	for id, payload := range good {
		if got, ok := s.Get(id.kind, id.key); !ok || !bytes.Equal(got, payload) {
			t.Errorf("moved %s/%s: get = %q, %v", id.kind, id.key, got, ok)
		}
	}
	for _, id := range []objKey{badMagic, truncated} {
		if s.Has(id.kind, id.key) {
			t.Errorf("broken %s/%s survived the move", id.kind, id.key)
		}
	}
	if st := s.Stats(); st.Objects != len(good) || st.Bytes != goodBytes || st.Corrupt != 2 || counters.Get("store.corrupt") != 2 {
		t.Fatalf("stats = %+v, store.corrupt = %d; want %d objects, %d bytes, 2 corrupt", st, counters.Get("store.corrupt"), len(good), goodBytes)
	}
	s.Close()
	before := storeTree(t, dir)
	if fmt.Sprint(before) != "[.index .lock 00000001.seg]" {
		t.Fatalf("the store root after the move holds %v, want the index, the lock and one segment", before)
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

// storeTree lists every entry under dir, relative to it, with a trailing
// slash on directories.
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

// TestGetRejectsResizedObject: Get reads an entry sized from the index, so
// an entry whose header claims another length — shorter, longer, or empty,
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
		resize func(n uint64) uint64
	}{
		{"shrunk", func(n uint64) uint64 { return n - 1 }},
		{"grown", func(n uint64) uint64 { return n + 1 }},
		{"header only", func(uint64) uint64 { return 0 }},
	} {
		payload := []byte("resized on disk: " + tc.name)
		key := mustPut(t, s, "lib", payload)
		path, start, _ := entryOf(t, s, "lib", key)
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		length := binary.LittleEndian.AppendUint64(nil, tc.resize(uint64(len(payload))))
		if _, err := f.WriteAt(length, start-headerSize+8); err != nil {
			t.Fatal(err)
		}
		f.Close()
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
// object carries its refs to the key's next Put, so the original holder
// still holds the re-stored copy; each holder's Release drops exactly its
// own pin, and the copy becomes evictable only when both have released.
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
	// the pin, carrying A's reference.
	path, _, end := entryOf(t, s, "lib", key)
	patch(t, path, end-1, 0xff)
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
	// A's release lands: it drops A's carried pin and no more.
	s.Release("lib", key)
	// Budget pressure: B's pin must still hold.
	mustPut(t, s, "lib", []byte("pressure1"))
	mustPut(t, s, "lib", []byte("pressure2"))
	if !s.Has("lib", key) {
		t.Fatal("fresh object evicted — the old holder's release stripped the new owner's pin")
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
// lock ordering: a segment counts as flushed only after a sweep holding
// syncMu flushed it. If a sweep (a reclaim's, say) could mark it flushed
// first, a concurrent commit-point SyncDirs would find nothing to flush
// and return while that sweep's fsync had not started — publishing a
// manifest over undurable objects.
func TestSyncDirsSnapshotsUnderSweepLock(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "lib", []byte("durable before the manifest"))
	unsynced := func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var n int64
		for _, seg := range s.segs {
			n += seg.size - seg.synced
		}
		return n
	}

	s.syncMu.Lock() // stand in for an in-flight sweep owning the barrier
	done := make(chan struct{})
	go func() {
		s.SyncDirs()
		close(done)
	}()
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond)
		if unsynced() == 0 {
			s.syncMu.Unlock()
			t.Fatal("SyncDirs marked the segment flushed before holding the sweep lock")
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
	if n := unsynced(); n != 0 {
		t.Fatalf("%d bytes left unflushed after SyncDirs", n)
	}
}

// BenchmarkStoreOpen reopens a store holding what one persisted pytorch141
// batch left behind while a library image was stored beside each record:
// an image and a record per library, the four workloads' profiles and one
// verification record, each under a SHA-256 hex key. Open's cost is per
// object, not per byte, so the payloads are small. index reopens under the
// index Close wrote; scan removes it first, so Open reads every entry's
// name and header (the fallback). Only Open is timed.
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

// BenchmarkStorePut puts an object to a new key, which Put hashes for its
// header: /named is a 1 MiB name-addressed object, /small a 519 B one, the
// mean size of what a batch stores. Each op's key is deleted again outside
// the timer, so every Put appends.
func BenchmarkStorePut(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for _, c := range []struct {
		name string
		size int
	}{{"named", 1 << 20}, {"small", 519}} {
		payload := bytes.Repeat([]byte("0123456789abcdef"), c.size/16+1)[:c.size]
		key := keyOf(payload)
		b.Run(c.name, func(b *testing.B) {
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
}
