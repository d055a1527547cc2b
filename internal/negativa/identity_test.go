package negativa

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"negativaml/internal/elfx"
	"negativaml/internal/mlframework"
)

// coldStamp numbers the cold copies made in this process, so that no two
// share bytes.
var coldStamp uint32

// coldCopy returns in with every library re-parsed from a private copy of
// its bytes, stamped in the last four bytes of the e_ident padding (which no
// ELF reader interprets): the copy's libraries hold no index, and elfx's
// process-wide index memo, keyed by content digest, has none to share.
func coldCopy(tb testing.TB, in *mlframework.Install) *mlframework.Install {
	tb.Helper()
	coldStamp++
	stamped := make(map[string][]byte, len(in.LibNames))
	for _, name := range in.LibNames {
		data := append([]byte(nil), in.Library(name).Data...)
		binary.LittleEndian.PutUint32(data[12:], coldStamp)
		stamped[name] = data
	}
	out, err := in.CloneWithLibs(stamped)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// serialFingerprint is InstallFingerprint's definition, computed without the
// index: framework, then every library's name and SHA-256 in load order.
func serialFingerprint(in *mlframework.Install) string {
	h := sha256.New()
	io.WriteString(h, in.Framework)
	h.Write([]byte{0})
	for _, name := range in.LibNames {
		io.WriteString(h, name)
		h.Write([]byte{0})
		d := sha256.Sum256(in.Library(name).Data)
		h.Write(d[:])
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestInstallFingerprintMatchesSerialReference: building the indexes across
// CPUs changes when the digests are computed, not what is hashed or in which
// order — on a cold install of each framework, on one worker and on several,
// and again once every library is indexed.
func TestInstallFingerprintMatchesSerialReference(t *testing.T) {
	for _, fw := range []string{mlframework.PyTorch, mlframework.TensorFlow, mlframework.VLLM, mlframework.HFTransformers} {
		base, err := mlframework.Generate(mlframework.Config{Framework: fw, TailLibs: 12})
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			in := coldCopy(t, base)
			for _, name := range in.LibNames {
				if in.Library(name).Indexed() {
					t.Fatalf("%s: %s of a cold copy is already indexed", fw, name)
				}
			}
			want := serialFingerprint(in)
			prev := runtime.GOMAXPROCS(procs)
			cold := InstallFingerprint(in)
			warm := InstallFingerprint(in)
			runtime.GOMAXPROCS(prev)
			if cold != want || warm != want {
				t.Errorf("%s, GOMAXPROCS %d: fingerprint cold %.12s warm %.12s, serial reference %.12s", fw, procs, cold, warm, want)
			}
			for _, name := range in.LibNames {
				if !in.Library(name).Indexed() {
					t.Errorf("%s: %s left unindexed by the fingerprint", fw, name)
				}
			}
		}
	}
}

// pinnedInstall is n names over the two pinned libraries, one name longer
// than the fingerprint's scratch and one with no library behind it.
func pinnedInstall(t *testing.T, n int) *mlframework.Install {
	cpu, gpu := pinnedLib(t, false), pinnedLib(t, true)
	in := &mlframework.Install{Framework: "pinned", Libs: map[string]*elfx.Library{}}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("libpinned_%03d.so", i)
		if i == 100 {
			name = strings.Repeat("n", 3000)
		}
		in.LibNames = append(in.LibNames, name)
		switch {
		case i == 7:
		case i%2 == 0:
			in.Libs[name] = cpu
		default:
			in.Libs[name] = gpu
		}
	}
	return in
}

// TestInstallFingerprintIsPinned holds the fingerprint to the value hashing
// each name on its own produced — it addresses every stored profile — and
// pins the allocations of an indexed install: they do not grow with its
// library count.
func TestInstallFingerprintIsPinned(t *testing.T) {
	const want = "d182314d116d3e3f9b769d0244eb3022cf433b42cee18ea27a45d5093775a874"
	if got := InstallFingerprint(pinnedInstall(t, 200)); got != want {
		t.Fatalf("fingerprint %s, want %s", got, want)
	}
	small, large := pinnedInstall(t, 5), pinnedInstall(t, 90)
	few := testing.AllocsPerRun(20, func() { InstallFingerprint(small) })
	many := testing.AllocsPerRun(20, func() { InstallFingerprint(large) })
	if many > few {
		t.Errorf("InstallFingerprint allocates %v times for 90 libraries, %v for 5", many, few)
	}
}

// BenchmarkInstallFingerprintCold is the layer's microbenchmark for what a
// cold batch pays before its plan exists: SHA-256, zero-prefix and
// fatbin/cubin tables of every library of a Table-1-shaped install
// (pytorch141), built from scratch each iteration. Run with -cpu 1,2: one
// worker is the serial loop.
func BenchmarkInstallFingerprintCold(b *testing.B) {
	base, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 141})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(base.TotalFileSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		in := coldCopy(b, base)
		b.StartTimer()
		if InstallFingerprint(in) == "" {
			b.Fatal("empty fingerprint")
		}
	}
}
