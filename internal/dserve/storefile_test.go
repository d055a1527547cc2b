package dserve

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"negativaml/internal/castore"
)

// storedEntry is one entry of a closed store's segment files: the object's
// name, the segment file and where the payload lies in it.
type storedEntry struct {
	kind, key string
	path      string
	payload   int64 // offset of the payload's first byte
	size      int64
}

// storedEntries lists every entry in the segment files of the closed store
// at dir, oldest first. An entry is its name (u16 length, kind/key), a
// 48-byte header whose bytes 8–16 hold the payload length, and the payload.
func storedEntries(t *testing.T, dir string) []storedEntry {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	var out []storedEntry
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(raw); {
			n := int(binary.LittleEndian.Uint16(raw[off:]))
			kind, key, _ := strings.Cut(string(raw[off+2:off+2+n]), "/")
			hdr := off + 2 + n
			size := int64(binary.LittleEndian.Uint64(raw[hdr+8:]))
			out = append(out, storedEntry{kind, key, path, int64(hdr + 48), size})
			off = hdr + 48 + int(size)
		}
	}
	return out
}

// storedEntryOf returns the newest entry of (kind, key), or the first entry
// of the kind when key is empty.
func storedEntryOf(t *testing.T, dir, kind, key string) storedEntry {
	t.Helper()
	var found *storedEntry
	for _, e := range storedEntries(t, dir) {
		if e.kind == kind && (e.key == key || key == "" && found == nil) {
			found = &e
		}
	}
	if found == nil {
		t.Fatalf("no %s/%s entry under %s", kind, key, dir)
	}
	return *found
}

// flipLastPayloadByte flips the last byte of the entry's payload in place.
func flipLastPayloadByte(t *testing.T, e storedEntry) {
	t.Helper()
	f, err := os.OpenFile(e.path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := []byte{0}
	if _, err := f.ReadAt(b, e.payload+e.size-1); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, e.payload+e.size-1); err != nil {
		t.Fatal(err)
	}
}

// appendStored appends an entry to the closed store's newest segment, as a
// later Put of a key the store did not hold would have: the next Open
// reads the segments, and the newest entry of a key wins.
func appendStored(t *testing.T, dir, kind, key string, payload []byte) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no segment under %s (%v)", dir, err)
	}
	sort.Strings(paths)
	f, err := os.OpenFile(paths[len(paths)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(castore.AppendEntry(nil, kind, key, payload)); err != nil {
		t.Fatal(err)
	}
}

// storeKinds checks the layout of the closed store at dir — the root holds
// the lock file, the index file and segment files only — and returns the
// kinds its entries hold, sorted.
func storeKinds(t *testing.T, dir string) []string {
	t.Helper()
	root, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range root {
		if name := e.Name(); !e.Type().IsRegular() || name != ".lock" && name != ".index" && !strings.HasSuffix(name, ".seg") {
			t.Fatalf("unexpected %s at the store root", name)
		}
	}
	seen := map[string]bool{}
	var kinds []string
	for _, e := range storedEntries(t, dir) {
		if !seen[e.kind] {
			seen[e.kind] = true
			kinds = append(kinds, e.kind)
		}
	}
	sort.Strings(kinds)
	return kinds
}
