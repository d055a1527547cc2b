package mlframework

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"negativaml/internal/elfx"
)

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := gen(t, PyTorch, 3)
	if err := in.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Framework != in.Framework || got.Version != in.Version {
		t.Error("metadata lost")
	}
	if !reflect.DeepEqual(got.LibNames, in.LibNames) {
		t.Error("lib order lost")
	}
	if !reflect.DeepEqual(got.FamilyLib, in.FamilyLib) {
		t.Error("family routing lost")
	}
	if got.GPUPoolFraction != in.GPUPoolFraction || got.BaseHeapCPU != in.BaseHeapCPU {
		t.Error("resource metadata lost")
	}
	if len(got.InitCalls) != len(in.InitCalls) {
		t.Error("init calls lost")
	}
	for name, lib := range in.Libs {
		if !bytes.Equal(got.Libs[name].Data, lib.Data) {
			t.Errorf("%s bytes differ after round trip", name)
		}
	}
	// The written .so files are real ELF files.
	fi, err := os.Stat(filepath.Join(dir, "libtorch_cuda.so"))
	if err != nil || fi.Size() == 0 {
		t.Fatalf("library file missing: %v", err)
	}
}

// TestReadFromErrors pins the failure mode of every way a written tree can
// go bad: each case must produce an error mentioning the offending piece,
// never a partial install.
func TestReadFromErrors(t *testing.T) {
	writeTree := func(t *testing.T) (string, *Install) {
		t.Helper()
		dir := t.TempDir()
		in := gen(t, PyTorch, 2)
		if err := in.WriteTo(dir); err != nil {
			t.Fatal(err)
		}
		return dir, in
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string, in *Install)
		errHint string
	}{
		{
			name:    "missing manifest",
			corrupt: func(t *testing.T, dir string, in *Install) { os.Remove(filepath.Join(dir, ManifestName)) },
			errHint: ManifestName,
		},
		{
			name: "corrupt manifest JSON",
			corrupt: func(t *testing.T, dir string, in *Install) {
				os.WriteFile(filepath.Join(dir, ManifestName), []byte("{bad"), 0o644)
			},
			errHint: "parse manifest",
		},
		{
			name: "manifest missing framework",
			corrupt: func(t *testing.T, dir string, in *Install) {
				os.WriteFile(filepath.Join(dir, ManifestName), []byte(`{"lib_names":["libx.so"]}`), 0o644)
			},
			errHint: "missing framework",
		},
		{
			name: "manifest with no libraries",
			corrupt: func(t *testing.T, dir string, in *Install) {
				os.WriteFile(filepath.Join(dir, ManifestName), []byte(`{"framework":"PyTorch"}`), 0o644)
			},
			errHint: "no libraries",
		},
		{
			name: "manifest with duplicate library",
			corrupt: func(t *testing.T, dir string, in *Install) {
				os.WriteFile(filepath.Join(dir, ManifestName),
					[]byte(`{"framework":"PyTorch","lib_names":["libm.so.6","libm.so.6"]}`), 0o644)
			},
			errHint: "twice",
		},
		{
			name: "manifest with path-traversal name",
			corrupt: func(t *testing.T, dir string, in *Install) {
				os.WriteFile(filepath.Join(dir, ManifestName),
					[]byte(`{"framework":"PyTorch","lib_names":["../libm.so.6"]}`), 0o644)
			},
			errHint: "bare file name",
		},
		{
			name: "partial tree: a listed library file is gone",
			corrupt: func(t *testing.T, dir string, in *Install) {
				os.Remove(filepath.Join(dir, in.LibNames[len(in.LibNames)-1]))
			},
			errHint: "no such file",
		},
		{
			name: "listed library is not an ELF file",
			corrupt: func(t *testing.T, dir string, in *Install) {
				script := "#!/bin/sh\n" + strings.Repeat("echo not a shared object\n", 8)
				os.WriteFile(filepath.Join(dir, in.LibNames[0]), []byte(script), 0o644)
			},
			errHint: "ELF magic",
		},
		{
			name: "mismatched manifest: library file swapped for another soname",
			corrupt: func(t *testing.T, dir string, in *Install) {
				other := in.Libs["libtorch_cpu.so"]
				os.WriteFile(filepath.Join(dir, "libtorch_cuda.so"), other.Data, 0o644)
			},
			errHint: "DT_SONAME",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, in := writeTree(t)
			tc.corrupt(t, dir, in)
			_, err := ReadFrom(dir)
			if err == nil {
				t.Fatal("corrupted tree read back without error")
			}
			if !strings.Contains(err.Error(), tc.errHint) {
				t.Errorf("error %q does not mention %q", err, tc.errHint)
			}
		})
	}
}

// TestWireRoundTrip: the transfer form carries everything the install is —
// the digest covers bytes, load order and metadata.
func TestWireRoundTrip(t *testing.T) {
	in := gen(t, PyTorch, 3)
	var buf bytes.Buffer
	if err := in.WriteWire(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWire(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if installDigest(t, got) != installDigest(t, in) {
		t.Fatal("install differs after a wire round trip")
	}
}

// TestReadWireRejects: a stream that is cut short, runs on past its last
// library, claims more than the bound, or carries a library that does not
// parse is an error, never a partial install.
func TestReadWireRejects(t *testing.T) {
	in := gen(t, PyTorch, 1)
	var buf bytes.Buffer
	if err := in.WriteWire(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	metaLen := 8 + int(binary.BigEndian.Uint64(good))
	garbled := bytes.Clone(good)
	garbled[metaLen+8] ^= 0xff // the first library's ELF magic
	for _, tc := range []struct {
		name  string
		body  []byte
		limit int64
		want  string
	}{
		{"truncated", good[:len(good)-1], int64(len(good)), "read"},
		{"trailing", append(bytes.Clone(good), 0), int64(len(good)) + 1, "trailing"},
		{"over the bound", good, int64(len(good)) - 1, "bound"},
		{"unparsable library", garbled, int64(len(good)), in.LibNames[0]},
		{"empty", nil, 1 << 20, "manifest"},
	} {
		_, err := ReadWire(bytes.NewReader(tc.body), tc.limit)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// FuzzReadWire feeds mutated install streams to ReadWire, the decoder of
// what a peer sends an owner about to run a detect: it must never panic,
// never read past its bound, and an install it accepts must come back out
// of WriteWire as a stream it accepts again and writes identically.
func FuzzReadWire(f *testing.F) {
	b := elfx.NewBuilder("libfuzz.so")
	b.AddFunction("alpha", 64)
	data, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	lib, err := elfx.Parse("libfuzz.so", data)
	if err != nil {
		f.Fatal(err)
	}
	m := Manifest{Framework: PyTorch, LibNames: []string{"libfuzz.so"}, InitCalls: []LibFunc{{Lib: "libfuzz.so", Func: "alpha"}}}
	in, err := m.Install(map[string]*elfx.Library{"libfuzz.so": lib})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := in.WriteWire(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add([]byte{})
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x02{}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadWire(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := got.WriteWire(&once); err != nil {
			t.Fatal(err)
		}
		again, err := ReadWire(bytes.NewReader(once.Bytes()), int64(once.Len()))
		if err != nil {
			t.Fatalf("an accepted install does not read back: %v", err)
		}
		if err := again.WriteWire(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("an accepted install does not write back identically")
		}
	})
}
