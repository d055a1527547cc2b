package castore

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestExportImportRoundTrip(t *testing.T) {
	src, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	payload := bytes.Repeat([]byte("negativa"), 1000)
	if err := src.Put("lib", "abc123", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := src.Stat("lib", "abc123"); !ok {
		t.Fatal("Stat missed a stored object")
	}

	var wire bytes.Buffer
	n, err := src.Export("lib", "abc123", &wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload))+headerSize {
		t.Fatalf("exported %d bytes, want %d", n, len(payload)+headerSize)
	}

	got, err := dst.Import("lib", "abc123", &wire)
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(len(payload)) {
		t.Fatalf("imported %d payload bytes, want %d", got, len(payload))
	}
	back, ok := dst.Get("lib", "abc123")
	if !ok || !bytes.Equal(back, payload) {
		t.Fatal("imported object does not round-trip byte-identically")
	}
}

func TestExportUnknownObject(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Export("lib", "nope", &bytes.Buffer{}); err == nil {
		t.Fatal("export of an absent object must fail")
	}
	if _, ok := s.Stat("lib", "nope"); ok {
		t.Fatal("Stat invented an object")
	}
}

func TestImportRejectsCorruption(t *testing.T) {
	src, _ := Open(t.TempDir(), Options{})
	defer src.Close()
	dst, _ := Open(t.TempDir(), Options{})
	defer dst.Close()
	if err := src.Put("lib", "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if _, err := src.Export("lib", "k", &wire); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte: the checksum must catch it.
	b := wire.Bytes()
	b[len(b)-1] ^= 0xff
	if _, err := dst.Import("lib", "k", bytes.NewReader(b)); err == nil {
		t.Fatal("import accepted a corrupted payload")
	}
	if dst.Has("lib", "k") {
		t.Fatal("corrupt import reached the store")
	}

	// Truncated stream.
	if _, err := dst.Import("lib", "k", strings.NewReader("short")); err == nil {
		t.Fatal("import accepted a truncated stream")
	}

	// Oversized header length.
	hdr := Frame([]byte("x"))[:headerSize]
	hdr[8] = 0xff
	hdr[9] = 0xff
	hdr[10] = 0xff
	hdr[11] = 0xff
	hdr[12] = 0x40 // > maxImportBytes
	if _, err := dst.Import("lib", "k", bytes.NewReader(append(hdr, 'x'))); err == nil {
		t.Fatal("import accepted an oversized header")
	}
}

// tmpEntries lists what an aborted import may have left in the staging
// directory.
func tmpEntries(t *testing.T, s *Store) []string {
	t.Helper()
	ents, err := os.ReadDir(s.tmpDir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestImportAbortLeavesNoPartialState is the repair-plane contract: an
// import severed mid-stream — truncation, corruption, or a reader error —
// must remove its temp file and publish nothing, and a clean retry of the
// same object must then succeed.
func TestImportAbortLeavesNoPartialState(t *testing.T) {
	src, _ := Open(t.TempDir(), Options{})
	defer src.Close()
	dir := t.TempDir()
	dst, _ := Open(dir, Options{})
	defer dst.Close()

	payload := bytes.Repeat([]byte("replica"), 4096)
	if err := src.Put("lib", "obj1", payload); err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if _, err := src.Export("lib", "obj1", &wire); err != nil {
		t.Fatal(err)
	}
	good := wire.Bytes()

	// Sever the stream at several depths into the payload: after the
	// header, mid-payload, and one byte short of complete.
	for _, cut := range []int{headerSize, headerSize + 1, headerSize + len(payload)/2, len(good) - 1} {
		if _, err := dst.Import("lib", "obj1", bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("import of a stream cut at %d bytes succeeded", cut)
		}
		if left := tmpEntries(t, dst); len(left) != 0 {
			t.Fatalf("truncated import (cut %d) left temp debris: %v", cut, left)
		}
		if dst.Has("lib", "obj1") {
			t.Fatalf("truncated import (cut %d) published the object", cut)
		}
	}

	// Corrupt a byte mid-payload: full-length stream, checksum mismatch.
	bad := append([]byte(nil), good...)
	bad[headerSize+100] ^= 0x01
	if _, err := dst.Import("lib", "obj1", bytes.NewReader(bad)); err == nil {
		t.Fatal("import accepted a corrupt stream")
	}
	if left := tmpEntries(t, dst); len(left) != 0 {
		t.Fatalf("corrupt import left temp debris: %v", left)
	}

	// Nothing partial may have reached the object tree either.
	if p := dst.objectPath("lib", "obj1"); fileExists(p) {
		t.Fatal("aborted imports published a file")
	}

	// After all those aborts, a clean retry succeeds and round-trips.
	if _, err := dst.Import("lib", "obj1", bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	back, ok := dst.Get("lib", "obj1")
	if !ok || !bytes.Equal(back, payload) {
		t.Fatal("retry after aborted imports does not round-trip")
	}
	if left := tmpEntries(t, dst); len(left) != 0 {
		t.Fatalf("successful import left temp debris: %v", left)
	}
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// TestImportDuplicateDropsTemp: importing an object the store already
// holds must consume the stream's temp state without disturbing the
// existing object.
func TestImportDuplicateDropsTemp(t *testing.T) {
	src, _ := Open(t.TempDir(), Options{})
	defer src.Close()
	dst, _ := Open(t.TempDir(), Options{})
	defer dst.Close()
	payload := []byte("already-here")
	if err := src.Put("lib", "dup", payload); err != nil {
		t.Fatal(err)
	}
	if err := dst.Put("lib", "dup", payload); err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if _, err := src.Export("lib", "dup", &wire); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Import("lib", "dup", &wire); err != nil {
		t.Fatal(err)
	}
	if left := tmpEntries(t, dst); len(left) != 0 {
		t.Fatalf("duplicate import left temp debris: %v", left)
	}
	if back, ok := dst.Get("lib", "dup"); !ok || !bytes.Equal(back, payload) {
		t.Fatal("duplicate import disturbed the stored object")
	}
}
