package dserve

import (
	"bytes"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/elfx"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
)

// ingestedBatch ingests the tree under root/rel on svc, runs one batch over
// it and returns only whether the batch verified: neither the install nor the
// result leaves this frame, so after it returns the service alone decides
// whether the install stays reachable. watch sees the install first, to set a
// finalizer on whatever part of it the caller wants to see collected.
//
//go:noinline
func ingestedBatch(t *testing.T, svc *Service, rel string, watch func(*mlframework.Install)) bool {
	t.Helper()
	in, err := svc.ingestInstall(rel)
	if err != nil {
		t.Fatal(err)
	}
	watch(in)
	w, err := WorkloadSpec{Model: "MobileNetV2", Batch: 1}.Workload(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.DebloatBatch(in, []mlruntime.Workload{w}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res.AllVerified()
}

// collected runs the garbage collector until freed closes or the timeout
// passes, and reports which.
func collected(freed <-chan struct{}, timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		runtime.GC()
		select {
		case <-freed:
			return true
		case <-deadline:
			return false
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestIngestedInstallIsNotPinnedByTheService: every ingest_dir submit builds a
// fresh *mlframework.Install, so a per-pointer memo of anything about it can
// never hit and only pins the install — with every library's bytes — after
// its batch is gone. Once the batch's result is dropped (a job evicted), the
// install must be collectable while the service lives on.
func TestIngestedInstallIsNotPinnedByTheService(t *testing.T) {
	root := t.TempDir()
	if err := testInstall(t).WriteTo(filepath.Join(root, "tree")); err != nil {
		t.Fatal(err)
	}
	svc := NewService(Config{Workers: 2, MaxSteps: 2, IngestRoot: root})
	defer svc.Close()

	freed := make(chan struct{})
	verified := ingestedBatch(t, svc, "tree", func(in *mlframework.Install) {
		runtime.SetFinalizer(in, func(*mlframework.Install) { close(freed) })
	})
	if !verified {
		t.Fatal("ingested batch did not verify")
	}
	if !collected(freed, 10*time.Second) {
		t.Fatal("the service still holds the ingested install after its batch is gone")
	}
}

// TestWarmDiskBatchDoesNotPinLibraries: a batch served entirely from the
// store computes nothing, so nothing it schedules may keep the freshly parsed
// libraries it was handed. The result cache is sized to keep exactly one
// entry — its most recent, whichever compact node finished last — so all
// libraries but that one must be collectable once the batch has returned,
// while the service lives on.
func TestWarmDiskBatchDoesNotPinLibraries(t *testing.T) {
	root, dir := t.TempDir(), t.TempDir()
	if err := testInstall(t).WriteTo(filepath.Join(root, "tree")); err != nil {
		t.Fatal(err)
	}
	boot := func() (*Service, func()) {
		st, err := castore.Open(dir, castore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		svc := NewService(Config{Workers: 2, MaxSteps: 2, CacheBytes: 1, Store: st, IngestRoot: root})
		return svc, func() { svc.Close(); st.Close() }
	}

	svc1, close1 := boot()
	if !ingestedBatch(t, svc1, "tree", func(*mlframework.Install) {}) {
		t.Fatal("cold batch did not verify")
	}
	close1()

	svc2, close2 := boot()
	defer close2()
	freed := make(chan struct{})
	verified := ingestedBatch(t, svc2, "tree", func(in *mlframework.Install) {
		var left atomic.Int64
		left.Store(int64(len(in.LibNames)) - 1)
		for _, name := range in.LibNames {
			runtime.SetFinalizer(in.Library(name), func(*elfx.Library) {
				if left.Add(-1) == 0 {
					close(freed)
				}
			})
		}
	})
	if !verified {
		t.Fatal("warm-disk batch did not verify")
	}
	if n := svc2.Counters.Get("analysis.computed"); n != 0 {
		t.Fatalf("warm-disk batch located and compacted %d libraries, want 0", n)
	}
	if !collected(freed, 5*time.Second) {
		t.Fatal("the service still holds more than its one cached library image after its warm-disk batch returned")
	}
}

// TestBatchGraphHasOneNodePerLibrary pins the batch DAG's size, so a node
// that cannot miss cannot creep back: members + union + libraries + verify
// probe + clone parts + clone join + fresh verifies, plus the two prefetch
// nodes when clustered. One worker makes the verify clone one part. The
// graph is static: a warm resubmit, which builds no clone, plans the same
// count.
func TestBatchGraphHasOneNodePerLibrary(t *testing.T) {
	in := testInstall(t)
	ws := testWorkloads(t, in)
	for _, clustered := range []bool{false, true} {
		svc := NewService(Config{Workers: 1, MaxSteps: 2})
		if clustered {
			soloCluster(svc)
		}
		want := len(ws) + 1 + len(in.LibNames) + 1 + 1 + 1 + len(ws)
		if clustered {
			want += 2
		}
		for _, pass := range []string{"cold", "warm"} {
			var planned int
			_, err := svc.DebloatBatch(in, ws, BatchOptions{OnPlanned: func(n int) { planned = n }})
			if err != nil {
				t.Fatal(err)
			}
			if planned != want {
				t.Errorf("clustered=%v %s: batch planned %d nodes, want %d for %d members and %d libraries", clustered, pass, planned, want, len(ws), len(in.LibNames))
			}
		}
		svc.Close()
	}
}

// TestDebloatBatchIsWidthIndependent: the pool width decides how many clone
// chunks a batch has and how its nodes interleave, never what it produces —
// with 1, 2 and 8 workers every library streams the same bytes and every
// member verifies.
func TestDebloatBatchIsWidthIndependent(t *testing.T) {
	in := testInstall(t)
	ws := testWorkloads(t, in)
	var want map[string][]byte
	for _, workers := range []int{1, 2, 8} {
		svc := NewService(Config{Workers: workers, MaxSteps: 2})
		res, err := svc.DebloatBatch(in, ws, BatchOptions{})
		svc.Close()
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		for _, o := range res.Workloads {
			if !o.Verified {
				t.Errorf("workers %d: %s not verified", workers, o.Name)
			}
		}
		got := make(map[string][]byte, len(res.Libs))
		for _, lr := range res.Libs {
			var buf bytes.Buffer
			if _, err := lr.Sparse.WriteTo(&buf); err != nil {
				t.Fatalf("workers %d: stream %s: %v", workers, lr.Name, err)
			}
			got[lr.Name] = buf.Bytes()
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("workers %d: %d libraries, want %d", workers, len(got), len(want))
		}
		for name, b := range want {
			if !bytes.Equal(got[name], b) {
				t.Errorf("workers %d: %s streams different bytes than with 1 worker", workers, name)
			}
		}
	}
}
