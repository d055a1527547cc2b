package castore

import (
	"bytes"
	"os"
	"slices"
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
	hdr := Frame(nil, []byte("x"))[:headerSize]
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

// threeEntryBody is a multi-object body of three record entries, the
// second streamed from src (ExportEntry), the others appended from memory
// (AppendEntry), and the offset where the second entry's payload starts.
func threeEntryBody(t *testing.T, src *Store) (body []byte, secondPayload int) {
	t.Helper()
	if err := src.Put("record", "two", bytes.Repeat([]byte("second"), 512)); err != nil {
		t.Fatal(err)
	}
	body = AppendEntry(nil, "record", "one", []byte("first payload"))
	secondPayload = len(body) + 2 + len("record/two") + headerSize
	w := bytes.NewBuffer(body)
	if err := src.ExportEntry("record", "two", w); err != nil {
		t.Fatal(err)
	}
	return AppendEntry(w.Bytes(), "record", "three", []byte("third payload")), secondPayload
}

// TestImportEntries: every entry of a whole body is stored, in body order;
// a refused kind is read past and never stored, and the entries after it
// still land.
func TestImportEntries(t *testing.T) {
	src, _ := Open(t.TempDir(), Options{})
	defer src.Close()
	dst, _ := Open(t.TempDir(), Options{})
	defer dst.Close()
	body, _ := threeEntryBody(t, src)
	body = AppendEntry(body, "job", "four", []byte("refused"))
	body = AppendEntry(body, "record", "five", []byte("after the refusal"))

	stored, err := dst.ImportEntries(bytes.NewReader(body), func(kind string) bool { return kind == "record" })
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, true, true, false, true}; !slices.Equal(stored, want) {
		t.Fatalf("stored %v, want %v", stored, want)
	}
	if dst.Has("job", "four") {
		t.Fatal("a refused kind was stored")
	}
	for _, key := range []string{"one", "two", "three", "five"} {
		if !dst.Has("record", key) {
			t.Fatalf("record/%s is missing", key)
		}
	}
	if back, _ := dst.Get("record", "two"); !bytes.Equal(back, bytes.Repeat([]byte("second"), 512)) {
		t.Fatal("an exported entry does not round-trip")
	}
	// An entry already present counts as stored.
	again, err := dst.ImportEntries(bytes.NewReader(body), func(string) bool { return true })
	if err != nil || !slices.Equal(again, []bool{true, true, true, true, true}) {
		t.Fatalf("second import: %v, %v", again, err)
	}
}

// TestImportEntriesSeveredAndCorrupt: a body cut inside the second entry's
// payload publishes the first entry and nothing of the second or third,
// and leaves no temp file; a body whose middle entry has a flipped payload
// byte refuses that entry — never stored — and stores the others.
func TestImportEntriesSeveredAndCorrupt(t *testing.T) {
	src, _ := Open(t.TempDir(), Options{})
	defer src.Close()
	body, second := threeEntryBody(t, src)
	all := func(string) bool { return true }

	dst, _ := Open(t.TempDir(), Options{})
	defer dst.Close()
	stored, err := dst.ImportEntries(bytes.NewReader(body[:second+100]), all)
	if err == nil {
		t.Fatal("a severed body read as whole")
	}
	if !slices.Equal(stored, []bool{true}) {
		t.Fatalf("severed body: stored %v, want [true]", stored)
	}
	if !dst.Has("record", "one") || dst.Has("record", "two") || dst.Has("record", "three") {
		t.Fatal("a severed body must publish its whole entries and nothing after the cut")
	}
	if left := tmpEntries(t, dst); len(left) != 0 {
		t.Fatalf("severed body left temp debris: %v", left)
	}

	flipped := append([]byte(nil), body...)
	flipped[second+7] ^= 0x01
	dst2, _ := Open(t.TempDir(), Options{})
	defer dst2.Close()
	stored, err = dst2.ImportEntries(bytes.NewReader(flipped), all)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(stored, []bool{true, false, true}) {
		t.Fatalf("corrupt body: stored %v, want [true false true]", stored)
	}
	if dst2.Has("record", "two") || fileExists(dst2.objectPath("record", "two")) {
		t.Fatal("an entry that fails its checksum was stored")
	}
	if left := tmpEntries(t, dst2); len(left) != 0 {
		t.Fatalf("corrupt body left temp debris: %v", left)
	}
}

// FuzzImportEntries feeds ImportEntries arbitrary bodies, the input a peer
// controls. It must not panic or leave a temp file, and it must store no
// more objects than it answers stored, each one whole: Get checks every
// stored payload against its header's sum.
func FuzzImportEntries(f *testing.F) {
	good := AppendEntry(nil, "record", "one", []byte("first"))
	good = AppendEntry(good, "job", "two", []byte("refused"))
	good = AppendEntry(good, "record", "three", bytes.Repeat([]byte("third"), 40))
	f.Add(good)
	f.Add(good[:len(good)-7])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 'r'})
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		stored, _ := s.ImportEntries(bytes.NewReader(body), func(kind string) bool { return kind == "record" })
		answered := 0
		for _, ok := range stored {
			if ok {
				answered++
			}
		}
		if left := tmpEntries(t, s); len(left) != 0 {
			t.Fatalf("temp debris: %v", left)
		}
		if n := s.Stats().Objects; n > answered {
			t.Fatalf("%d objects stored, %d answered stored", n, answered)
		}
		s.Walk("record", func(key string, _ int64) error {
			if _, ok := s.Get("record", key); !ok {
				t.Errorf("stored record/%s does not read back whole", key)
			}
			return nil
		})
	})
}
