package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"negativaml/internal/mlframework"
)

// table1 are the four installs shaped like the paper's Table 1 (the
// benchmark's cold_ingest rows).
var table1 = []mlframework.Config{
	{Framework: mlframework.PyTorch, TailLibs: 141},
	{Framework: mlframework.TensorFlow, TailLibs: 388},
	{Framework: mlframework.VLLM, TailLibs: 155},
	{Framework: mlframework.HFTransformers, TailLibs: 85},
}

// writeTree generates c's install and writes it under root.
func writeTree(tb testing.TB, root string, c mlframework.Config) string {
	tb.Helper()
	in, err := mlframework.Generate(c)
	if err != nil {
		tb.Fatal(err)
	}
	dir := filepath.Join(root, fmt.Sprintf("%s%d", c.Framework, c.TailLibs))
	if err := in.WriteTo(dir); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// outcome is everything of a Tree call that must not depend on how many
// workers classified the files. Libs is compared through its names and
// bytes: a *elfx.Library carries lazily filled caches.
type outcome struct {
	Err        string
	Files      []FileReport
	Roots      []string
	Closure    []string
	Unresolved map[string][]string
	Manifest   *mlframework.Manifest
	LibBytes   map[string]int
}

func treeOutcome(dir string, opt Options) outcome {
	res, err := Tree(dir, opt)
	if err != nil {
		return outcome{Err: err.Error()}
	}
	o := outcome{
		Files: res.Files, Roots: res.Roots, Closure: res.Closure,
		Unresolved: res.Unresolved, Manifest: res.Manifest,
		LibBytes: make(map[string]int, len(res.Libs)),
	}
	for name, lib := range res.Libs {
		o.LibBytes[name] = len(lib.Data)
	}
	return o
}

// assertWidthIndependent ingests dir repeatedly on one worker (the plain
// loop) and on eight and requires every outcome to equal the first.
func assertWidthIndependent(t *testing.T, dir string, opt Options) {
	t.Helper()
	repeats := 20
	if testing.Short() {
		repeats = 3
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := treeOutcome(dir, opt)
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < repeats; i++ {
			if got := treeOutcome(dir, opt); !reflect.DeepEqual(got, want) {
				t.Fatalf("GOMAXPROCS %d, repeat %d: outcome differs from the one-worker walk:\n got %+v\nwant %+v", procs, i, got, want)
			}
		}
	}
}

// TestTreeIsWidthIndependent pins the fan-out's contract: reports, closure,
// manifest and every whole-tree error are those of a one-file-at-a-time walk,
// whatever the worker count — over the hostile corpus (which includes the
// swapped readFile hook, here called from several goroutines) and over the
// four Table-1 trees.
func TestTreeIsWidthIndependent(t *testing.T) {
	for _, tc := range hostileCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)
			assertWidthIndependent(t, dir, tc.opt)
		})
	}
	for _, c := range table1 {
		dir := writeTree(t, t.TempDir(), c)
		t.Run(filepath.Base(dir), func(t *testing.T) {
			assertWidthIndependent(t, dir, Options{})
		})
	}
}

// TestFirstConflictInWalkOrderWins: a tree with two independent duplicate-name
// conflicts is always rejected for the one the walk meets first, no matter
// which file a worker finished parsing first.
func TestFirstConflictInWalkOrderWins(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a/libx.so", buildLib(t, "libx.so"))
	write(t, dir, "b/libx.so", buildLib(t, "libx.so"))
	write(t, dir, "c/liby.so", buildLib(t, "liby.so"))
	write(t, dir, "d/liby.so", buildLib(t, "liby.so"))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for i := 0; i < 20; i++ {
		_, err := Tree(dir, Options{})
		if err == nil || !strings.Contains(err.Error(), "b/libx.so") {
			t.Fatalf("repeat %d: error %v, want the b/libx.so conflict", i, err)
		}
	}
}

// TestDataFilesAreSniffedNotRead: only a file that starts with the ELF magic
// is read whole. A sparse 1 GiB weights file is classified from its first
// bytes; reading it would allocate its size.
func TestDataFilesAreSniffedNotRead(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "libok.so", buildLib(t, "libok.so"))
	write(t, dir, "run.sh", []byte("#!/bin/sh\n"))
	write(t, dir, "weights.bin", nil)
	if err := os.Truncate(filepath.Join(dir, "weights.bin"), 1<<30); err != nil {
		t.Skipf("cannot create a sparse file here: %v", err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Tree(dir, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep := report(t, res, "weights.bin"); rep.Class != ClassData || rep.Size != 1<<30 {
		t.Errorf("weights.bin: class %s size %d, want %s of %d bytes", rep.Class, rep.Size, ClassData, 1<<30)
	}
	if got := report(t, res, "run.sh").Class; got != ClassScript {
		t.Errorf("run.sh classified %s, want %s", got, ClassScript)
	}
	if res.SharedObjects() != 1 {
		t.Errorf("shared objects = %d, want 1", res.SharedObjects())
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
		t.Errorf("ingesting the tree allocated %d MB: the data file was read", alloc>>20)
	}
}

// BenchmarkTree is the ingest layer's microbenchmark: one Table-1-shaped
// tree (pytorch141) walked, classified and parsed per iteration. Tree never
// touches elfx's process-wide index memo — it parses, it does not index — so
// every iteration does all of the work; only the page cache is warm. Run with
// -cpu 1,2: one worker is the plain loop.
//
// A tree is ingested into a process that holds installs and results. With
// nothing else live, each iteration's 7 MB of library bytes would be several
// times the heap and the collector would run more than once per tree, which
// is then what the benchmark times; the ballast stands in for that process.
func BenchmarkTree(b *testing.B) {
	dir := writeTree(b, b.TempDir(), table1[0])
	ballast := make([]byte, 64<<20)
	defer runtime.KeepAlive(ballast)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Tree(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Manifest == nil || len(res.Libs) == 0 {
			b.Fatal("tree ingested empty")
		}
	}
}
