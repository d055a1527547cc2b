package negativa

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"negativaml/internal/cubin"
	"negativaml/internal/elfx"
	"negativaml/internal/fatbin"
	"negativaml/internal/gpuarch"
)

// pinnedLib builds a small fixed library: two host functions and, with gpu
// set, a fatbin holding one sm_75 cubin.
func pinnedLib(t *testing.T, gpu bool) *elfx.Library {
	t.Helper()
	b := elfx.NewBuilder("libpinned.so")
	b.AddFunction("f1", 32)
	b.AddFunction("f2", 32)
	if gpu {
		c := cubin.New(gpuarch.SM75)
		c.AddKernel(cubin.Kernel{Name: "k", Code: bytes.Repeat([]byte{0x90}, 64), Flags: cubin.FlagEntry})
		blob, err := c.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		fb := &fatbin.FatBin{}
		fb.AddRegion().AddElement(fatbin.Element{Kind: fatbin.KindCubin, Arch: gpuarch.SM75, Payload: blob})
		fbBytes, err := fb.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		b.SetFatbin(fbBytes)
	}
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := elfx.Parse("libpinned.so", data)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestCompactKeyHashIsPinned holds the compact stage's content address to
// the hex strings earlier builds produced: every castore object, peer
// lookup and replicated artifact already written is addressed by them, so
// a change here silently turns every warm store cold. The library digests
// are pinned beside the keys so that a builder change reads as one, not as
// a key change.
func TestCompactKeyHashIsPinned(t *testing.T) {
	for _, tc := range []struct {
		name         string
		gpu          bool
		funcs, kerns []string
		archs        []gpuarch.SM
		digest, hash string
	}{
		{
			name: "cpu-only library", funcs: []string{"f1"},
			archs:  []gpuarch.SM{gpuarch.SM80, gpuarch.SM75},
			digest: "2e8bf42d80ac946fc10f7daec47a7bc226b0b2eb7f3845c59ea5b6a849f49750",
			hash:   "b2a4c4e816956ebbbfc314a1d5a2e6747de70cab2f0220bbc11d1e124100210e",
		},
		{
			name: "gpu library", gpu: true, funcs: []string{"f1", "f2"}, kerns: []string{"k"},
			archs:  []gpuarch.SM{gpuarch.SM80, gpuarch.SM75},
			digest: "8630cf45f639e9bab810bc55135d2d47d4a69188ce042ef43343a81ca871f2c3",
			hash:   "226af8c87f43396cee90398025e9c8fe9cacf56c37942ddb52ce63c1cdde4897",
		},
	} {
		lib := pinnedLib(t, tc.gpu)
		d := lib.ContentDigest()
		if got := hex.EncodeToString(d[:]); got != tc.digest {
			t.Fatalf("%s: library digest %s, want %s: the fixture's bytes changed, not the key", tc.name, got, tc.digest)
		}
		key := CompactKey(LocateKey(lib, tc.funcs, tc.kerns, tc.archs))
		if key.Stage != StageCompact || key.Hash != tc.hash {
			t.Errorf("%s: compact key %s/%s, want %s/%s", tc.name, key.Stage, key.Hash, StageCompact, tc.hash)
		}
	}
}

// symbolNames returns n distinct names, one of them longer than any scratch
// a hash stages its input through.
func symbolNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s_%04d", prefix, i)
	}
	out[n/2] = strings.Repeat("x", 3000)
	return out
}

// TestLocateKeyLongListsArePinned holds the key of lists long enough to
// cross every flush of the staged hash to the value hashing each name on its
// own produced, and pins the allocations: they do not grow with the number
// of names.
func TestLocateKeyLongListsArePinned(t *testing.T) {
	lib := pinnedLib(t, true)
	archs := []gpuarch.SM{gpuarch.SM80, gpuarch.SM75}
	funcs, kerns := symbolNames("func", 300), symbolNames("kern", 80)
	const want = "53f642700f9aae70b14c21a56c5d217686fd8b52b18d2efa38c26b7596edd82e"
	if got := LocateKey(lib, funcs, kerns, archs).Hash; got != want {
		t.Fatalf("locate key %s, want %s", got, want)
	}
	few := testing.AllocsPerRun(20, func() { LocateKey(lib, funcs[:3], kerns[:2], archs) })
	many := testing.AllocsPerRun(20, func() { LocateKey(lib, funcs[:150], kerns[:40], archs) })
	if many > few {
		t.Errorf("LocateKey allocates %v times for 190 names, %v for 5", many, few)
	}
}
