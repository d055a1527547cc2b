package castore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
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
	hdr := frame([]byte("x"))[:headerSize]
	hdr[8] = 0xff
	hdr[9] = 0xff
	hdr[10] = 0xff
	hdr[11] = 0xff
	hdr[12] = 0x40 // > maxImportBytes
	if _, err := dst.Import("lib", "k", bytes.NewReader(append(hdr, 'x'))); err == nil {
		t.Fatal("import accepted an oversized header")
	}
}

// TestImportAbortLeavesNoPartialState is the repair-plane contract: an
// import severed mid-stream — truncation, corruption, or a reader error —
// must append nothing and publish nothing, and a clean retry of the same
// object must then succeed.
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
		if left := debris(t, dst); left != 0 {
			t.Fatalf("truncated import (cut %d) left %d bytes of debris", cut, left)
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
	if left := debris(t, dst); left != 0 {
		t.Fatalf("corrupt import left %d bytes of debris", left)
	}

	// After all those aborts, a clean retry succeeds and round-trips.
	if _, err := dst.Import("lib", "obj1", bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	back, ok := dst.Get("lib", "obj1")
	if !ok || !bytes.Equal(back, payload) {
		t.Fatal("retry after aborted imports does not round-trip")
	}
	if left := debris(t, dst); left != 0 {
		t.Fatalf("successful import left %d bytes of debris", left)
	}
}

// TestImportDuplicateDropsTemp: importing an object the store already
// holds must consume the stream and append nothing, without disturbing the
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
	if left := debris(t, dst); left != 0 {
		t.Fatalf("duplicate import left %d bytes of debris", left)
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
	body = AppendEntry(nil, "record", "one", NewFrame([]byte("first payload")))
	secondPayload = len(body) + 2 + len("record/two") + headerSize
	w := bytes.NewBuffer(body)
	if err := src.ExportEntry("record", "two", w); err != nil {
		t.Fatal(err)
	}
	return AppendEntry(w.Bytes(), "record", "three", NewFrame([]byte("third payload"))), secondPayload
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
	body = AppendEntry(body, "job", "four", NewFrame([]byte("refused")))
	body = AppendEntry(body, "record", "five", NewFrame([]byte("after the refusal")))

	stored, err := dst.ImportEntries(bytes.NewReader(body), 1<<20, func(kind string) bool { return kind == "record" })
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
	again, err := dst.ImportEntries(bytes.NewReader(body), 1<<20, func(string) bool { return true })
	if err != nil || !slices.Equal(again, []bool{true, true, true, true, true}) {
		t.Fatalf("second import: %v, %v", again, err)
	}
}

// TestImportEntriesSeveredAndCorrupt: a body cut inside the second entry's
// payload publishes the first entry and nothing of the second or third,
// and appends nothing else; a body whose middle entry has a flipped payload
// byte refuses that entry — never stored — and stores the others.
func TestImportEntriesSeveredAndCorrupt(t *testing.T) {
	src, _ := Open(t.TempDir(), Options{})
	defer src.Close()
	body, second := threeEntryBody(t, src)
	all := func(string) bool { return true }

	dst, _ := Open(t.TempDir(), Options{})
	defer dst.Close()
	stored, err := dst.ImportEntries(bytes.NewReader(body[:second+100]), 1<<20, all)
	if err == nil {
		t.Fatal("a severed body read as whole")
	}
	if !slices.Equal(stored, []bool{true}) {
		t.Fatalf("severed body: stored %v, want [true]", stored)
	}
	if !dst.Has("record", "one") || dst.Has("record", "two") || dst.Has("record", "three") {
		t.Fatal("a severed body must publish its whole entries and nothing after the cut")
	}
	if left := debris(t, dst); left != 0 {
		t.Fatalf("severed body left %d bytes of debris", left)
	}

	flipped := append([]byte(nil), body...)
	flipped[second+7] ^= 0x01
	dst2, _ := Open(t.TempDir(), Options{})
	defer dst2.Close()
	stored, err = dst2.ImportEntries(bytes.NewReader(flipped), 1<<20, all)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(stored, []bool{true, false, true}) {
		t.Fatalf("corrupt body: stored %v, want [true false true]", stored)
	}
	if dst2.Has("record", "two") {
		t.Fatal("an entry that fails its checksum was stored")
	}
	if left := debris(t, dst2); left != 0 {
		t.Fatalf("corrupt body left %d bytes of debris", left)
	}
}

// readAll reads every entry of body under limit with an EntryReader:
// names and payloads in order, and the error that ended the body (nil at
// a clean end).
func readAll(body []byte, limit int64) (names []string, payloads [][]byte, err error) {
	e := NewEntryReader(bytes.NewReader(body), limit)
	for {
		kind, key, err := e.Next()
		if err == io.EOF {
			return names, payloads, nil
		} else if err != nil {
			return names, payloads, err
		}
		f, err := e.Frame()
		if err != nil {
			return names, payloads, err
		}
		names, payloads = append(names, kind+"/"+key), append(payloads, f.Payload())
	}
}

// TestEntryReader: a body read whole gives every entry in order; a body
// that ends exactly at the bound reads whole, and one byte more is over
// it; a header claiming more than the bound leaves is refused before its
// payload is read; a payload cut short, a cut in a name, and a flipped
// payload byte are errors.
func TestEntryReader(t *testing.T) {
	src, _ := Open(t.TempDir(), Options{})
	defer src.Close()
	body, second := threeEntryBody(t, src)
	size := int64(len(body))

	names, payloads, err := readAll(body, size)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"record/one", "record/two", "record/three"}; !slices.Equal(names, want) {
		t.Fatalf("names %v, want %v", names, want)
	}
	if !bytes.Equal(payloads[1], bytes.Repeat([]byte("second"), 512)) {
		t.Fatal("the exported entry's payload does not read back")
	}
	if _, _, err := readAll(append(body[:size:size], 0), size); !errors.Is(err, errOverBound) {
		t.Fatalf("a body one byte past its bound: %v", err)
	}
	// The second entry's header claims 3 072 bytes; a bound that leaves
	// fewer refuses it with its payload unread.
	names, _, err = readAll(body, int64(second)+3000)
	if !errors.Is(err, errOverBound) || len(names) != 1 {
		t.Fatalf("claimed length past the bound: %v after %v", err, names)
	}
	for name, cut := range map[string][]byte{
		"payload cut short": body[:second+100],
		"name cut short":    body[:second-headerSize-4],
	} {
		if _, _, err := readAll(cut, size); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: %v", name, err)
		}
	}
	flipped := append([]byte(nil), body...)
	flipped[second+7] ^= 0x01
	if names, _, err := readAll(flipped, size); err == nil || len(names) != 1 {
		t.Fatalf("flipped payload byte: %v after %v", err, names)
	}
}

// TestEntryReaderAllocatesWhatArrives: an entry whose header claims the
// whole bound and whose body then ends costs what arrived, not what it
// claimed.
func TestEntryReaderAllocatesWhatArrives(t *testing.T) {
	const limit = 64 << 20
	claim := AppendEntry(nil, "record", "big", NewFrame(nil))
	binary.LittleEndian.PutUint64(claim[2+len("record/big")+8:], limit-uint64(len(claim)))
	body := append(claim, make([]byte, 1000)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readAll(body, limit)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a body cut short of its claim: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a claim of %d bytes with 1000 behind it allocated %d bytes", limit, grew)
	}
}

// FuzzImportEntries feeds ImportEntries arbitrary bodies, the input a peer
// controls. It must not panic or append anything it does not index, and
// it must store no more objects than it answers stored, each one whole:
// Get checks every stored payload against its header's sum.
func FuzzImportEntries(f *testing.F) {
	good := AppendEntry(nil, "record", "one", NewFrame([]byte("first")))
	good = AppendEntry(good, "job", "two", NewFrame([]byte("refused")))
	good = AppendEntry(good, "record", "three", NewFrame(bytes.Repeat([]byte("third"), 40)))
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
		stored, _ := s.ImportEntries(bytes.NewReader(body), 1<<20, func(kind string) bool { return kind == "record" })
		answered := 0
		for _, ok := range stored {
			if ok {
				answered++
			}
		}
		if left := debris(t, s); left != 0 {
			t.Fatalf("%d bytes of debris", left)
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

// TestPutFrameStoresTheCheckedFrame: a frame an EntryReader checked is
// stored under the sum it arrived with, small and large alike (a large
// payload is written apart from its header), and reads back through Get,
// which checks the payload against that sum, and through ExportEntry as
// the entry it arrived as.
func TestPutFrameStoresTheCheckedFrame(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for name, payload := range map[string][]byte{
		"small": []byte("a record"),
		"large": bytes.Repeat([]byte("a library "), largePayload/5),
	} {
		body := AppendEntry(nil, "record", name, NewFrame(payload))
		e := NewEntryReader(bytes.NewReader(body), int64(len(body)))
		if _, _, err := e.Next(); err != nil {
			t.Fatal(err)
		}
		f, err := e.Frame()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutFrame("record", name, f); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get("record", name); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("%s: Get after PutFrame = %v", name, ok)
		}
		var out bytes.Buffer
		if err := s.ExportEntry("record", name, &out); err != nil || !bytes.Equal(out.Bytes(), body) {
			t.Fatalf("%s: the stored entry is not the one that arrived (%v)", name, err)
		}
	}
}
