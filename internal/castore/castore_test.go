package castore

import (
	"bytes"
	"crypto/sha256"
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
	path := filepath.Join(dir, "lib", key[:2], key)
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
	path2 := filepath.Join(dir, "lib", key2[:2], key2)
	raw2, _ := os.ReadFile(path2)
	raw2[headerSize] ^= 0x01
	os.WriteFile(path2, raw2, 0o644)
	if rep := s.Verify(); rep.Scanned != 1 || rep.Removed != 1 {
		t.Fatalf("verify = %+v, want 1 scanned / 1 removed", rep)
	}
	if s.Has("lib", key2) {
		t.Fatal("verify left the corrupt object indexed")
	}

	// A truncated object is dropped at Open time (structural check).
	key3 := mustPut(t, s, "lib", []byte("third victim, truncated"))
	path3 := filepath.Join(dir, "lib", key3[:2], key3)
	os.Truncate(path3, headerSize+4)
	s.Close()
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Has("lib", key3) {
		t.Fatal("truncated object survived reopen")
	}
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
		path := filepath.Join(dir, "lib", key[:2], key)
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
	path := filepath.Join(dir, "lib", key[:2], key)
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
