package dserve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/elfx"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

const waitTimeout = 60 * time.Second

func openStore(t *testing.T, dir string) *castore.Store {
	t.Helper()
	st, err := castore.Open(dir, castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close) // idempotent; tests close earlier when resequencing
	return st
}

func persistTestInstall(t *testing.T) (*mlframework.Install, []mlruntime.Workload) {
	t.Helper()
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 4})
	if err != nil {
		t.Fatal(err)
	}
	specs := []WorkloadSpec{
		{Model: "MobileNetV2", Batch: 1},
		{Model: "Transformer", Batch: 8},
	}
	ws := make([]mlruntime.Workload, len(specs))
	for i, sp := range specs {
		w, err := sp.Workload(in)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	return in, ws
}

// TestCacheDiskTier exercises the two-tier result cache across a service
// restart: the second service's memory tier is empty, so every library must
// come back from the store — byte-identical and with zero locate/compact
// runs.
func TestCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	in, ws := persistTestInstall(t)

	st1 := openStore(t, dir)
	svc1 := NewService(Config{Workers: 2, MaxSteps: 2, Store: st1})
	cold, err := svc1.DebloatBatch(in, ws, BatchOptions{MaxSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc1.Close()
	st1.Close()
	if cold.CacheMisses == 0 {
		t.Fatal("cold batch had no cache misses")
	}

	svc2 := NewService(Config{Workers: 2, MaxSteps: 2, Store: openStore(t, dir)})
	defer svc2.Close()
	warm, err := svc2.DebloatBatch(in, ws, BatchOptions{MaxSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheMisses != 0 || warm.CacheHits != len(warm.Libs) {
		t.Fatalf("warm-from-disk batch: hits=%d misses=%d libs=%d", warm.CacheHits, warm.CacheMisses, len(warm.Libs))
	}
	if got := svc2.Counters.Get("analysis.computed"); got != 0 {
		t.Fatalf("restarted service ran locate/compact %d times, want 0", got)
	}
	if warm.ProfileReuses != len(ws) {
		t.Fatalf("restarted service re-detected: reuses=%d, want %d", warm.ProfileReuses, len(ws))
	}
	if !warm.AllVerified() {
		t.Fatal("warm batch did not verify")
	}
	for i, lr := range warm.Libs {
		if !bytes.Equal(lr.Debloated(), cold.Libs[i].Debloated()) {
			t.Fatalf("library %s differs after disk round-trip", lr.Name)
		}
	}
	if svc2.Store().Stats().Hits == 0 {
		t.Fatal("store recorded no hits on the warm path")
	}
}

// TestPersistWaitsForResultWritesOnly: a job's compact results reach the
// store on the write-behind, and persistJob waits for exactly the writes
// its manifest references. While record appends are held the job cannot
// read done; while only verify-record appends are held it completes, with
// every referenced object in the store and each record written once; and
// Close returns only after the held writes have landed.
func TestPersistWaitsForResultWritesOnly(t *testing.T) {
	recordGate, verifyGate := make(chan struct{}), make(chan struct{})
	recordHeld, verifyHeld := make(chan struct{}), make(chan struct{})
	var recordOnce, verifyOnce sync.Once
	var mu sync.Mutex
	var appends []storeRef // each Put that reached its append
	st, err := castore.Open(t.TempDir(), castore.Options{
		BeforeAppend: func(kind, key string) error {
			mu.Lock()
			appends = append(appends, storeRef{kind, key})
			mu.Unlock()
			switch kind {
			case kindRecord:
				recordOnce.Do(func() { close(recordHeld) })
				<-recordGate
			case kindVerify:
				verifyOnce.Do(func() { close(verifyHeld) })
				<-verifyGate
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := NewService(Config{Workers: 2, MaxSteps: 2, Store: st})
	job, err := svc.Submit(JobRequest{
		Framework: "pytorch", TailLibs: 4, MaxSteps: 2,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}, {Model: "Transformer", Batch: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}

	<-recordHeld
	time.Sleep(100 * time.Millisecond)
	if j := svc.Job(job.ID); j.State == JobDone || j.State == JobFailed {
		t.Fatalf("job read %s while its record writes were held", j.State)
	}

	close(recordGate)
	<-verifyHeld
	j, err := waitJob(svc, job.ID, waitTimeout)
	if err != nil || j.State != JobDone {
		t.Fatalf("job did not complete while only verify records were held: %v %+v", err, j)
	}
	if n := svc.Counters.Get("jobs.persisted"); n != 1 {
		t.Fatalf("jobs.persisted = %d, want 1", n)
	}
	if len(j.refs) == 0 {
		t.Fatal("the done job holds no store references")
	}
	for _, ref := range j.refs {
		if !st.Has(ref.Kind, ref.Key) {
			t.Fatalf("done job's manifest references %s/%s, which is not in the store", ref.Kind, ref.Key)
		}
	}
	if n := countKind(st, kindVerify); n != 0 {
		t.Fatalf("%d verify records landed while their appends were held", n)
	}
	mu.Lock()
	writes := map[storeRef]int{}
	for _, ref := range appends {
		writes[ref]++
	}
	mu.Unlock()
	for _, ml := range j.manifest.Libs {
		if n := writes[storeRef{kindRecord, ml.Key}]; n != 1 {
			t.Fatalf("record of %s was written %d times, want once", ml.Name, n)
		}
	}

	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while verify-record writes were still held")
	case <-time.After(100 * time.Millisecond):
	}
	close(verifyGate)
	<-closed
	if n := countKind(st, kindVerify); n != len(j.Result.Workloads) {
		t.Fatalf("the store holds %d verify records after Close, want %d", n, len(j.Result.Workloads))
	}
}

// countKind counts the store's objects of one kind.
func countKind(st *castore.Store, kind string) int {
	n := 0
	st.Walk(kind, func(string, int64) error { n++; return nil })
	return n
}

// TestShardedStoreRestoresWarm: a store written in the older
// kind/<key[:2]>/key layout restores warm. The batch's store holds
// profile, record and verify entries — no library image — in segment
// files beside the lock and the index; rewriting it by hand as shard
// directories of one file per object and reopening must serve the same
// images with no miss and no analysis, and leave segments only.
func TestShardedStoreRestoresWarm(t *testing.T) {
	dir := t.TempDir()
	in, ws := persistTestInstall(t)
	st1 := openStore(t, dir)
	svc1 := NewService(Config{Workers: 2, MaxSteps: 2, Store: st1})
	cold, err := svc1.DebloatBatch(in, ws, BatchOptions{MaxSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc1.Close()
	st1.Close()
	kinds := storeKinds(t, dir)
	if fmt.Sprint(kinds) != "[profile record verify]" {
		t.Fatalf("the batch stored kinds %v, want its profiles, records and verify records only", kinds)
	}
	writeOlderLayout(t, dir, true)

	svc2 := NewService(Config{Workers: 2, MaxSteps: 2, Store: openStore(t, dir)})
	defer svc2.Close()
	warm, err := svc2.DebloatBatch(in, ws, BatchOptions{MaxSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheMisses != 0 {
		t.Fatalf("batch over a sharded store: %d cache misses, want 0", warm.CacheMisses)
	}
	if n := svc2.Counters.Get("analysis.computed"); n != 0 {
		t.Fatalf("batch over a sharded store: analysis.computed = %d, want 0", n)
	}
	for i, lr := range warm.Libs {
		if !bytes.Equal(lr.Debloated(), cold.Libs[i].Debloated()) {
			t.Fatalf("library %s differs after the move", lr.Name)
		}
	}
	svc2.Close()
	svc2.Store().Close()
	if got := storeKinds(t, dir); fmt.Sprint(got) != fmt.Sprint(kinds) {
		t.Fatalf("kinds after the move = %v, want %v", got, kinds)
	}
}

// TestParentLayoutStoreRestoresJob: a store of the one-file-per-object
// layout, <kind>/<key> with a tmp/ directory, as the build before segments
// wrote it, reopens with its done job restored, and the job's libraries
// are served byte-identical from its records, with no analysis.
func TestParentLayoutStoreRestoresJob(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{
		Framework: "pytorch", TailLibs: 4, MaxSteps: 2,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}, {Model: "Transformer", Batch: 8}},
	}
	id, res := runPersistedJob(t, dir, Config{Workers: 2, MaxSteps: 2}, req)
	writeOlderLayout(t, dir, false)

	svc := NewService(Config{Workers: 2, MaxSteps: 2, Store: openStore(t, dir)})
	defer svc.Close()
	if n := svc.Counters.Get("jobs.restored"); n != 1 {
		t.Fatalf("jobs.restored = %d, want 1", n)
	}
	for name, img := range res.DebloatedLibs() {
		if !bytes.Equal(fetchDirect(t, svc, id, name), img) {
			t.Fatalf("library %s differs from the run that filled the store", name)
		}
	}
	if n := svc.Counters.Get("analysis.computed"); n != 0 {
		t.Fatalf("analysis.computed = %d, want 0: a record did not survive the move", n)
	}
}

// writeOlderLayout rewrites the closed store at dir in the layout of one
// file per object — <kind>/<key[:2]>/<key> when sharded, else
// <kind>/<key> beside an empty tmp/ — and removes its segments and index.
func writeOlderLayout(t *testing.T, dir string, sharded bool) {
	t.Helper()
	for _, e := range storedEntries(t, dir) {
		raw, err := os.ReadFile(e.path)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, e.kind, e.key)
		if sharded {
			path = filepath.Join(dir, e.kind, e.key[:2], e.key)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		// An object file is its entry without the name: header, payload.
		if err := os.WriteFile(path, raw[e.payload-48:e.payload+e.size], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	for _, p := range append(segs, filepath.Join(dir, ".index")) {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	if !sharded {
		if err := os.Mkdir(filepath.Join(dir, "tmp"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTamperedStoreRestoresSameImages: whatever happened to a closed
// store — its index or one of its objects damaged, a profile left in the
// older JSON form, an object the index does not know — a restart serves
// images byte-identical to the untampered run's, recomputing what it could
// not trust.
func TestTamperedStoreRestoresSameImages(t *testing.T) {
	in, ws := persistTestInstall(t)
	// detects is how many members the restart must profile again.
	for _, tc := range []struct {
		name    string
		detects int64
		tamper  func(t *testing.T, dir string)
	}{
		{"index bit-flipped", 0, func(t *testing.T, dir string) { flipLast(t, filepath.Join(dir, ".index")) }},
		{"record bit-flipped", 0, func(t *testing.T, dir string) {
			flipLastPayloadByte(t, storedEntryOf(t, dir, kindRecord, ""))
		}},
		{"profile bit-flipped", 1, func(t *testing.T, dir string) {
			flipLastPayloadByte(t, storedEntryOf(t, dir, kindProfile, ""))
		}},
		{"profile in JSON", 1, func(t *testing.T, dir string) {
			key := storedEntryOf(t, dir, kindProfile, "").key
			appendStored(t, dir, kindProfile, key, []byte(`{"install":"x","workload":"y","profile":{}}`))
		}},
		{"stray object", 0, func(t *testing.T, dir string) {
			appendStored(t, dir, kindRecord, "stray", []byte("not a record"))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st1 := openStore(t, dir)
			svc1 := NewService(Config{Workers: 2, MaxSteps: 2, Store: st1})
			cold, err := svc1.DebloatBatch(in, ws, BatchOptions{MaxSteps: 2})
			if err != nil {
				t.Fatal(err)
			}
			svc1.Close()
			st1.Close()
			tc.tamper(t, dir)

			svc2 := NewService(Config{Workers: 2, MaxSteps: 2, Store: openStore(t, dir)})
			defer svc2.Close()
			warm, err := svc2.DebloatBatch(in, ws, BatchOptions{MaxSteps: 2})
			if err != nil {
				t.Fatal(err)
			}
			for i, lr := range warm.Libs {
				if !bytes.Equal(lr.Debloated(), cold.Libs[i].Debloated()) {
					t.Fatalf("library %s differs from the untampered run", lr.Name)
				}
			}
			if n := svc2.Counters.Get("stage.detect.misses"); n != tc.detects {
				t.Fatalf("the restart profiled %d members, want %d", n, tc.detects)
			}
		})
	}
}

// flipLast flips the last byte of the file at path.
func flipLast(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryReplay: a profile stored before Close is served after the
// reopen by reading it through once — concurrent detect lookups decode its
// record from disk one time, the rest hit memory — and nothing is read at
// boot.
func TestRegistryReplay(t *testing.T) {
	dir := t.TempDir()
	in, ws := persistTestInstall(t)
	p, err := negativa.DetectUsage(ws[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	dk := negativa.DetectKey(negativa.InstallFingerprint(in), negativa.WorkloadIdentity(ws[0], 2))

	st1 := openStore(t, dir)
	svc1 := NewService(Config{Store: st1})
	ms := memoStageOf(dk.Stage)
	ms.put(svc1.stages, dk.Hash, p)
	svc1.writeBehind(ms, dk.Hash, p, nil, nil)
	svc1.Close()
	st1.Close()

	st2 := openStore(t, dir)
	svc2 := NewService(Config{Store: st2})
	defer svc2.Close()
	if st := st2.Stats(); st.Hits != 0 || len(svc2.stages.profiles.m) != 0 {
		t.Fatalf("boot read profiles: %d store hits, %d resident", st.Hits, len(svc2.stages.profiles.m))
	}
	// Eight lookups at once: the flight's leader reads the record, the
	// others wait and hit memory.
	recompute := func() (any, error) { return nil, errors.New("a stored profile was recomputed") }
	var wg sync.WaitGroup
	sources := make([]plan.Source, 8)
	for i := range sources {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, src, err := svc2.stages.GetOrCompute(nil, dk, nil, recompute)
			if err != nil || !reflect.DeepEqual(got, p) {
				t.Errorf("lookup %d: %v, or the profile read through does not match the original", i, err)
			}
			sources[i] = src
		}(i)
	}
	wg.Wait()
	disk := 0
	for _, src := range sources {
		if src == plan.SourceDisk {
			disk++
		} else if src != plan.SourceMemory {
			t.Fatalf("a lookup was served from %v", src)
		}
	}
	if hits := st2.Stats().Hits; disk != 1 || hits != 1 {
		t.Fatalf("%d lookups served from disk and %d store reads for one profile, want 1 and 1", disk, hits)
	}
}

// TestStoreBudgetEvictsProfiles: castore's byte budget is the one disk bound
// for every kind. Batches over new installs on a store sized just above one
// batch evict the first batch's profile objects least recently used first,
// like its compact records; resubmitting that batch after a restart profiles
// its members again and hands out the same images.
func TestStoreBudgetEvictsProfiles(t *testing.T) {
	install := func(framework string) (*mlframework.Install, []mlruntime.Workload) {
		in, err := mlframework.Generate(mlframework.Config{Framework: framework, TailLibs: 4})
		if err != nil {
			t.Fatal(err)
		}
		return in, testWorkloads(t, in)[:2]
	}
	in, ws := install(mlframework.PyTorch)
	opt := BatchOptions{MaxSteps: 2}

	// Size the budget from one batch on an unbounded store.
	probe := openStore(t, t.TempDir())
	psvc := NewService(Config{Workers: 2, MaxSteps: 2, Store: probe})
	if _, err := psvc.DebloatBatch(in, ws, opt); err != nil {
		t.Fatal(err)
	}
	psvc.Close()
	budget := probe.Stats().Bytes * 101 / 100

	st, err := castore.Open(t.TempDir(), castore.Options{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := NewService(Config{Workers: 2, MaxSteps: 2, Store: st})
	first, err := svc.DebloatBatch(in, ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	held := func(kind string, keys []string) (n int) {
		for _, k := range keys {
			if st.Has(kind, k) {
				n++
			}
		}
		return n
	}
	var profiles []string
	for _, w := range first.Workloads {
		profiles = append(profiles, negativa.DetectKey(first.InstallFP, w.Identity).Hash)
	}
	svc.WaitReplication()
	if held(kindProfile, profiles) != len(profiles) || held(kindRecord, first.libKeys) != len(first.libKeys) {
		t.Fatal("the first batch does not fit the budget it was sized by")
	}
	// Batches on other frameworks' installs write new objects past the
	// budget, so nothing the first batch wrote survives them.
	for _, fw := range []string{mlframework.TensorFlow, mlframework.HFTransformers, mlframework.VLLM} {
		in2, ws2 := install(fw)
		if _, err := svc.DebloatBatch(in2, ws2, opt); err != nil {
			t.Fatal(err)
		}
		svc.WaitReplication()
	}
	svc.Close()
	if p, r := held(kindProfile, profiles), held(kindRecord, first.libKeys); p != 0 || r != 0 {
		t.Fatalf("%d of the first batch's profile objects and %d of its records outlived batches larger than the budget", p, r)
	}

	svc2 := NewService(Config{Workers: 2, MaxSteps: 2, Store: st})
	defer svc2.Close()
	again, err := svc2.DebloatBatch(in, ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := svc2.Counters.Get("stage.detect.misses"); n != int64(len(ws)) {
		t.Fatalf("the resubmit profiled %d members, want %d: their profile objects are gone", n, len(ws))
	}
	for _, w := range again.Workloads {
		if !w.Verified {
			t.Fatalf("member %s failed verification on the resubmit", w.Name)
		}
	}
	for i, lr := range again.Libs {
		if !bytes.Equal(lr.Debloated(), first.Libs[i].Debloated()) {
			t.Fatalf("library %s differs from the first run", lr.Name)
		}
	}
}

func fetchLib(t *testing.T, ts *httptest.Server, id, name string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/libs/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch %s/%s: status %d: %s", id, name, resp.StatusCode, body)
	}
	return body
}

// TestServerWarmRestartE2E is the end-to-end restart test: submit a batch,
// shut the service down, boot a second service on the same data dir, and
// assert the previously-submitted job's status, report, and libraries are
// served warm — byte-identical images, store hits recorded, and zero
// locate/compact (and zero detection) runs on the second boot.
func TestServerWarmRestartE2E(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{
		Framework: "pytorch",
		TailLibs:  4,
		Workloads: []WorkloadSpec{
			{Model: "MobileNetV2", Batch: 1},
			{Model: "Transformer", Batch: 8},
		},
		MaxSteps: 2,
	}

	// ---- First boot: submit, complete, download, shut down. ----
	st1 := openStore(t, dir)
	svc1 := NewService(Config{Workers: 2, MaxSteps: 2, Store: st1})
	ts1 := httptest.NewServer(NewHandler(svc1))
	st := postJob(t, ts1, req)
	if got := pollDone(t, ts1, st.ID); got.State != JobDone {
		t.Fatalf("job failed: %s", got.Error)
	}
	libName := "libtorch_cuda.so"
	original := fetchLib(t, ts1, st.ID, libName)
	ts1.Close()
	svc1.Close()
	st1.Close()

	// ---- Second boot, same data dir: the job must come back warm. ----
	svc2 := NewService(Config{Workers: 2, MaxSteps: 2, Store: openStore(t, dir)})
	defer svc2.Close()
	ts2 := httptest.NewServer(NewHandler(svc2))
	defer ts2.Close()

	if got := svc2.Counters.Get("jobs.restored"); got != 1 {
		t.Fatalf("restored %d jobs, want 1", got)
	}
	var status jobStatus
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+st.ID, &status); code != http.StatusOK {
		t.Fatalf("restored job status: code %d", code)
	}
	if status.State != JobDone || status.Verified == nil || !*status.Verified {
		t.Fatalf("restored job status = %+v, want done+verified", status)
	}

	var report jobReport
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+st.ID+"/report", &report); code != http.StatusOK {
		t.Fatalf("restored job report: code %d", code)
	}
	if len(report.Libs) == 0 || report.InstallFP == "" {
		t.Fatalf("restored report is hollow: %+v", report)
	}

	restored := fetchLib(t, ts2, st.ID, libName)
	if !bytes.Equal(restored, original) {
		t.Fatalf("restored %s differs: %d bytes vs %d", libName, len(restored), len(original))
	}

	// The warm path must be pure replay: no locate/compact, no detection.
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
		Store    *castore.Stats   `json:"store"`
	}
	if code := getJSON(t, ts2.URL+"/v1/metrics", &metrics); code != http.StatusOK {
		t.Fatalf("metrics: code %d", code)
	}
	if metrics.Counters["analysis.computed"] != 0 {
		t.Fatalf("second boot ran locate/compact %d times", metrics.Counters["analysis.computed"])
	}
	if metrics.Counters["stage.detect.misses"] != 0 {
		t.Fatalf("second boot ran detection %d times", metrics.Counters["stage.detect.misses"])
	}
	if metrics.Store == nil || metrics.Store.Hits == 0 {
		t.Fatalf("store.hits = %+v, want > 0 (warm restore must read the store)", metrics.Store)
	}

	var storeView struct {
		Stats castore.Stats `json:"stats"`
	}
	if code := getJSON(t, ts2.URL+"/v1/store", &storeView); code != http.StatusOK {
		t.Fatalf("/v1/store: code %d", code)
	}
	if storeView.Stats.Objects == 0 || storeView.Stats.Retained == 0 {
		t.Fatalf("/v1/store stats = %+v, want retained objects", storeView.Stats)
	}
}

// TestFetchLibraryPinnedAgainstEviction is the regression test for the
// latent eviction bug: job eviction used to be free to drop a job (and,
// with a store, release its objects) while a fetch-library response was
// still streaming from it. An open LibStream must pin the job: eviction
// pressure may not touch it until the stream closes.
func TestFetchLibraryPinnedAgainstEviction(t *testing.T) {
	dir := t.TempDir()

	// First service populates the store with one completed job.
	st1 := openStore(t, dir)
	svc1 := NewService(Config{Workers: 2, MaxSteps: 2, MaxJobs: 1, Store: st1})
	req := JobRequest{
		Framework: "pytorch", TailLibs: 4, MaxSteps: 2,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}},
	}
	job1, err := svc1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j, _ := waitJob(svc1, job1.ID, waitTimeout); j.State != JobDone {
		t.Fatalf("job1: %s", j.Err)
	}
	want := fetchDirect(t, svc1, job1.ID, "libtorch_cuda.so")
	svc1.Close()
	st1.Close()

	// Second boot: job1 is restored lazily — its images live only in the
	// store until materialized. Open a stream (pinning it) before any
	// eviction pressure.
	svc2 := NewService(Config{Workers: 2, MaxSteps: 2, MaxJobs: 1, Store: openStore(t, dir)})
	defer svc2.Close()
	ls, err := svc2.OpenLibStream(job1.ID, "libtorch_cuda.so")
	if err != nil {
		t.Fatal(err)
	}

	// Eviction pressure: a second completed job pushes terminal retention
	// past MaxJobs=1; without the pin, job1 (the oldest) would be evicted
	// and its store references released mid-stream.
	job2, err := svc2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j, _ := waitJob(svc2, job2.ID, waitTimeout); j.State != JobDone {
		t.Fatalf("job2: %s", j.Err)
	}
	if svc2.Job(job1.ID) == nil {
		t.Fatal("pinned job was evicted under a live stream")
	}

	var buf bytes.Buffer
	if _, err := ls.WriteTo(&buf); err != nil {
		t.Fatalf("stream after eviction pressure: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("streamed image differs from the original download")
	}
	ls.Close()

	// With the pin released, the deferred eviction lands: job1 goes, its
	// manifest with it, and job2 (the newest) survives.
	if svc2.Job(job1.ID) != nil {
		t.Fatal("job1 still present after stream closed")
	}
	if svc2.Store().Has(kindJob, job1.ID) {
		t.Fatal("evicted job's manifest still in the store")
	}
	if svc2.Job(job2.ID) == nil {
		t.Fatal("newest job evicted instead of the streamed one")
	}
	// A double Close stays idempotent.
	ls.Close()
}

// TestFailedJobSurvivesRestart: failed jobs persist a minimal manifest, so
// a restart keeps answering polls for them — and, critically, never
// reissues their ID to a different client's job.
func TestFailedJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	svc := NewService(Config{Workers: 2, MaxSteps: 2, Store: st1})
	// The synthetic installs ship Llama2 kernels for 1 or 8 tensor-parallel
	// ranks only; 3 ranks fails detection — the supported way to produce a
	// failed job.
	bad, err := svc.Submit(JobRequest{
		Framework: "pytorch", TailLibs: 2, MaxSteps: 2,
		Workloads: []WorkloadSpec{{Model: "Llama2", GPUs: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := waitJob(svc, bad.ID, waitTimeout)
	if j.State != JobFailed {
		t.Fatalf("job state %s, want failed", j.State)
	}
	svc.Close()
	st1.Close()

	svc2 := NewService(Config{Workers: 2, MaxSteps: 2, Store: openStore(t, dir)})
	defer svc2.Close()
	restored := svc2.Job(bad.ID)
	if restored == nil || restored.State != JobFailed || restored.Err == "" {
		t.Fatalf("restored failed job = %+v, want failed with error", restored)
	}
	if _, err := svc2.ResultOf(bad.ID); !errors.Is(err, ErrJobNotReady) {
		t.Fatalf("ResultOf failed job = %v, want ErrJobNotReady", err)
	}
	// A fresh submission must get a fresh ID, not the failed job's.
	good, err := svc2.Submit(JobRequest{
		Framework: "pytorch", TailLibs: 2, MaxSteps: 2,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if good.ID == bad.ID {
		t.Fatalf("failed job's ID %s was reissued", bad.ID)
	}
	if j, _ := waitJob(svc2, good.ID, waitTimeout); j.State != JobDone {
		t.Fatalf("new job: %s", j.Err)
	}
}

// TestManifestTimesEncodeAtFixedWidth: a manifest's length does not follow
// its times. Timestamps with and without trailing fractional zeros, in UTC
// and in another zone, and the zero time, and wall times of different
// digit counts, all encode to one width, and each decodes back to the same
// instant and duration.
func TestManifestTimesEncodeAtFixedWidth(t *testing.T) {
	east := time.FixedZone("east", 5*3600+30*60)
	stamps := []time.Time{
		time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		time.Date(2026, 1, 2, 3, 4, 5, 120_000_000, east),
		time.Date(2026, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		{},
	}
	walls := []manifestNS{0, 9_999_999, 10_000_000, manifestNS(3 * time.Second)}
	var width int
	for i, ts := range stamps {
		m := jobManifest{ID: "job-0001", Submitted: manifestTime{ts}, Started: manifestTime{ts.Add(time.Millisecond)}, Finished: manifestTime{ts.Add(1500 * time.Microsecond)}, WallNS: walls[i]}
		raw, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			width = len(raw)
		} else if len(raw) != width {
			t.Fatalf("manifest %d encodes to %d bytes, manifest 0 to %d: %s", i, len(raw), width, raw)
		}
		var back jobManifest
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if !back.Submitted.Equal(ts) || !back.Finished.Equal(m.Finished.Time) || back.WallNS != m.WallNS {
			t.Fatalf("manifest %d decodes to %v / %v / %d, want %v / %v / %d", i, back.Submitted, back.Finished, back.WallNS, ts, m.Finished, m.WallNS)
		}
	}
}

// TestOldFormatManifestRestores: a manifest whose times were written as
// RFC 3339 with trailing zeros trimmed and a local offset, and its wall
// time as a plain number — the form before the fixed width — restores with
// the same instants and wall time and serves its images.
func TestOldFormatManifestRestores(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{
		Framework: "pytorch", TailLibs: 2, MaxSteps: 2,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}},
	}
	id, res := runPersistedJob(t, dir, Config{Workers: 2, MaxSteps: 2}, req)
	want := res.DebloatedLibs()

	submitted := time.Date(2026, 3, 4, 5, 6, 7, 500_000_000, time.FixedZone("", -7*3600))
	st := openStore(t, dir)
	raw, ok := st.Get(kindJob, id)
	if !ok {
		t.Fatal("no manifest persisted")
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for i, field := range []string{"submitted", "started", "finished"} {
		m[field] = submitted.Add(time.Duration(i) * time.Second).Format(time.RFC3339Nano)
	}
	if m["submitted"] != "2026-03-04T05:06:07.5-07:00" {
		t.Fatalf("the old form is %v", m["submitted"])
	}
	m["wall_ns"] = 12_345_678
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	st.Delete(kindJob, id)
	if err := st.Put(kindJob, id, raw); err != nil {
		t.Fatal(err)
	}
	st.Close()

	svc := NewService(Config{Workers: 2, MaxSteps: 2, Store: openStore(t, dir)})
	defer svc.Close()
	j := svc.Job(id)
	if j == nil || j.State != JobDone {
		t.Fatalf("old-format manifest did not restore: %+v", j)
	}
	if !j.Submitted.Equal(submitted) || !j.Finished.Equal(submitted.Add(2*time.Second)) {
		t.Fatalf("restored times %v / %v, want %v / %v", j.Submitted, j.Finished, submitted, submitted.Add(2*time.Second))
	}
	if got, err := svc.ResultOf(id); err != nil || got.WallTime != 12_345_678 {
		t.Fatalf("restored wall time: %v, %v", got, err)
	}
	for name, img := range want {
		if got := fetchDirect(t, svc, id, name); !bytes.Equal(got, img) {
			t.Fatalf("%s: restored image differs", name)
		}
	}
}

// TestMismatchedRecordIsRecomputedAndRewritten: a record that passes the
// store's checksum but does not decode against the live library — here
// another library's record filed under this key — is a miss. The batch
// recomputes that one result and serves the right bytes, and the bad
// record is gone, so the write-behind spill can replace it and the next
// boot hits.
func TestMismatchedRecordIsRecomputedAndRewritten(t *testing.T) {
	dir := t.TempDir()
	in, ws := persistTestInstall(t)
	st := openStore(t, dir)
	svc := NewService(Config{Workers: 2, MaxSteps: 2, Store: st})
	res, err := svc.DebloatBatch(in, ws, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := res.DebloatedLibs()
	svc.Close()
	st.Close()

	st = openStore(t, dir)
	victim := res.libKeys[0]
	other, ok := st.Get(kindRecord, res.libKeys[1])
	if !ok {
		t.Fatal("no record persisted")
	}
	st.Delete(kindRecord, victim)
	if err := st.Put(kindRecord, victim, other); err != nil {
		t.Fatal(err)
	}
	svc = NewService(Config{Workers: 2, MaxSteps: 2, Store: st})
	defer svc.Close()
	got, err := svc.DebloatBatch(in, ws, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := svc.Counters.Get("analysis.computed"); n != 1 {
		t.Fatalf("analysis.computed = %d, want 1: only the mismatched record recomputes", n)
	}
	for name, img := range got.DebloatedLibs() {
		if !bytes.Equal(img, want[name]) {
			t.Fatalf("library %s differs from the run that filled the store", name)
		}
	}
	svc.WaitReplication()
	raw, ok := st.Get(kindRecord, victim)
	if !ok {
		t.Fatal("the recomputed result was not spilled back")
	}
	if _, err := memoStageOf(negativa.StageCompact).open(victim, res.Libs[0].Sparse.Lib(), raw); err != nil {
		t.Fatalf("the store still holds the mismatched record: %v", err)
	}
}

// runPersistedJob submits req to a service over a store in dir, waits for
// it to finish done, and closes service and store. It returns the job's ID
// and result.
func runPersistedJob(t *testing.T, dir string, cfg Config, req JobRequest) (string, *BatchResult) {
	t.Helper()
	st := openStore(t, dir)
	cfg.Store = st
	svc := NewService(cfg)
	job, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j, _ := waitJob(svc, job.ID, waitTimeout)
	if j == nil || j.State != JobDone {
		t.Fatalf("job did not finish done: %+v", j)
	}
	svc.Close()
	st.Close()
	return job.ID, j.Result
}

// TestRestoredJobRecomputesALostRecord: a restored done job whose record
// went bad between boots is rebuilt, not lost. Its request reruns, the
// bit-flipped record misses in the compact stage's disk loader and
// recomputes, and the report and every library are served byte-identical
// to the first boot's; the job pins the recomputed record.
func TestRestoredJobRecomputesALostRecord(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{
		Framework: "pytorch", TailLibs: 4, MaxSteps: 2,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}, {Model: "Transformer", Batch: 8}},
	}
	id, first := runPersistedJob(t, dir, Config{Workers: 2, MaxSteps: 2}, req)
	want := first.DebloatedLibs()
	flipLastPayloadByte(t, storedEntryOf(t, dir, kindRecord, first.libKeys[0]))

	svc := NewService(Config{Workers: 2, MaxSteps: 2, Store: openStore(t, dir)})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	var report jobReport
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/report", &report); code != http.StatusOK {
		t.Fatalf("report of the restored job: status %d", code)
	}
	if report.InstallFP != first.InstallFP || len(report.Libs) != len(want) {
		t.Fatalf("restored report = %s with %d libraries, want %s with %d", report.InstallFP, len(report.Libs), first.InstallFP, len(want))
	}
	for name, img := range want {
		if !bytes.Equal(fetchLib(t, ts, id, name), img) {
			t.Fatalf("library %s differs from the first boot's", name)
		}
	}
	if n := svc.Counters.Get("analysis.computed"); n < 1 {
		t.Fatalf("analysis.computed = %d: the bit-flipped record was not recomputed", n)
	}
	if n := svc.Counters.Get("jobs.restore_failed"); n != 0 {
		t.Fatalf("jobs.restore_failed = %d, want 0", n)
	}
	// The recomputed record is pinned in the corrupt one's place: the job
	// holds each of its records and its manifest.
	if !svc.Store().Has(kindRecord, first.libKeys[0]) {
		t.Fatal("the recomputed record is not stored")
	}
	if n := svc.Store().Stats().Retained; n != len(first.libKeys)+1 {
		t.Fatalf("%d objects pinned, want the job's %d records and its manifest", n, len(first.libKeys))
	}
}

// TestRestoreIsNoClientBatch: fetching a restored done job reruns its
// batch once, and that rerun is the service's own work, not a batch a
// client sent: jobs.materialized moves by 1 and batches.completed by 0.
func TestRestoreIsNoClientBatch(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{
		Framework: "pytorch", TailLibs: 4, MaxSteps: 2,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}},
	}
	id, first := runPersistedJob(t, dir, Config{Workers: 2, MaxSteps: 2}, req)

	svc := NewService(Config{Workers: 2, MaxSteps: 2, Store: openStore(t, dir)})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	name := first.Libs[0].Name
	if !bytes.Equal(fetchLib(t, ts, id, name), first.DebloatedLibs()[name]) {
		t.Fatalf("library %s differs from the first boot's", name)
	}
	for counter, want := range map[string]int64{"jobs.materialized": 1, "batches.completed": 0, "jobs.submitted": 0} {
		if got := svc.Counters.Get(counter); got != want {
			t.Errorf("%s = %d after one fetch of a restored job, want %d", counter, got, want)
		}
	}
}

// TestRestoredJobFailsOnAChangedInstall: a restored job is rebuilt only if
// its rerun lands on the manifest's install fingerprint and record keys.
// An ingest job whose tree was replaced between boots, or a spec job whose
// manifest names records its rerun does not reach, fails its report and
// every fetch, counted, and serves no image. A spec job whose step cap
// came from a service default that changed reruns under other detect keys;
// the synthetic workloads' coverage is complete at one step, so its record
// keys, and its images, stay the manifest's.
func TestRestoredJobFailsOnAChangedInstall(t *testing.T) {
	ws := []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}, {Model: "Transformer", Batch: 8}}
	spec := JobRequest{Framework: "pytorch", TailLibs: 4, Workloads: ws}
	writeTree := func(t *testing.T, dir string, tailLibs int) {
		in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: tailLibs})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := in.WriteTo(dir); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		req  JobRequest
		// steps is the service's default step cap on the first and the
		// second boot; change edits the ingest root or the store between
		// them.
		steps  [2]int
		change func(t *testing.T, root, dir, id string)
		fails  bool
	}{
		{"ingest tree replaced", JobRequest{IngestDir: "tree", Workloads: ws, MaxSteps: 2}, [2]int{2, 2},
			func(t *testing.T, root, _, _ string) { writeTree(t, filepath.Join(root, "tree"), 5) }, true},
		{"manifest names other records", spec, [2]int{2, 2}, swapManifestKeys, true},
		{"max-steps default changed", spec, [2]int{1, 4}, nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root, dir := t.TempDir(), t.TempDir()
			writeTree(t, filepath.Join(root, "tree"), 4)
			id, first := runPersistedJob(t, dir, Config{Workers: 2, MaxSteps: tc.steps[0], IngestRoot: root}, tc.req)
			if tc.change != nil {
				tc.change(t, root, dir, id)
			}

			svc := NewService(Config{Workers: 2, MaxSteps: tc.steps[1], IngestRoot: root, Store: openStore(t, dir)})
			defer svc.Close()
			ts := httptest.NewServer(NewHandler(svc))
			defer ts.Close()
			if !tc.fails {
				for _, lr := range first.Libs {
					if !bytes.Equal(fetchLib(t, ts, id, lr.Name), lr.Debloated()) {
						t.Fatalf("library %s differs from the first boot's", lr.Name)
					}
				}
				return
			}
			if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/report", nil); code != http.StatusInternalServerError {
				t.Fatalf("report of a job whose install changed: status %d, want 500", code)
			}
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/libs/" + first.Libs[0].Name)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("fetch from a job whose install changed: status %d, want 500", resp.StatusCode)
			}
			if n := svc.Counters.Get("jobs.restore_failed"); n != 2 {
				t.Fatalf("jobs.restore_failed = %d, want 2: one per call", n)
			}
			if j := svc.Job(id); j == nil || j.Result != nil {
				t.Fatal("the job holds a result its manifest does not describe")
			}
		})
	}
}

// swapManifestKeys rewrites job id's manifest in the store under dir with
// its first two libraries' record keys swapped.
func swapManifestKeys(t *testing.T, _, dir, id string) {
	t.Helper()
	st := openStore(t, dir)
	defer st.Close()
	raw, ok := st.Get(kindJob, id)
	if !ok {
		t.Fatal("no manifest persisted")
	}
	var m jobManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m.Libs[0].Key, m.Libs[1].Key = m.Libs[1].Key, m.Libs[0].Key
	if raw, err := json.Marshal(m); err != nil {
		t.Fatal(err)
	} else {
		st.Delete(kindJob, id)
		if err := st.Put(kindJob, id, raw); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLibImageStoreRestores: a store written while each library's image
// was kept beside its record — a "lib" object per library and a manifest
// naming each by "lib_digest" — reopens with its job restored. The job
// serves byte-identical images from its records alone, and pins none of
// the images: they are left to the byte budget.
func TestLibImageStoreRestores(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{
		Framework: "pytorch", TailLibs: 4, MaxSteps: 2,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}, {Model: "Transformer", Batch: 8}},
	}
	id, res := runPersistedJob(t, dir, Config{Workers: 2, MaxSteps: 2}, req)
	want := res.DebloatedLibs()

	// The older form, written by hand: an image per library, and the
	// manifest's libraries each naming theirs.
	st := openStore(t, dir)
	raw, ok := st.Get(kindJob, id)
	if !ok {
		t.Fatal("no manifest persisted")
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var images []string
	for i, ml := range m["libs"].([]any) {
		lib := res.Libs[i].Sparse.Lib()
		d := libDigest(lib)
		if err := st.Put("lib", d, lib.Data); err != nil {
			t.Fatal(err)
		}
		ml.(map[string]any)["lib_digest"] = d
		images = append(images, d)
	}
	if raw, err := json.Marshal(m); err != nil {
		t.Fatal(err)
	} else {
		st.Delete(kindJob, id)
		if err := st.Put(kindJob, id, raw); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st = openStore(t, dir)
	svc := NewService(Config{Workers: 2, MaxSteps: 2, Store: st})
	defer svc.Close()
	if n := svc.Counters.Get("jobs.restored"); n != 1 {
		t.Fatalf("jobs.restored = %d, want 1", n)
	}
	pinned := st.Stats().Retained
	for name, img := range want {
		if !bytes.Equal(fetchDirect(t, svc, id, name), img) {
			t.Fatalf("library %s differs from the run that filled the store", name)
		}
	}
	svc.WaitReplication()
	if n := st.Stats().Retained; n != pinned {
		t.Fatalf("%d objects pinned after the restore replaced its records, %d at boot", n, pinned)
	}
	if n := svc.Counters.Get("analysis.computed"); n != 0 {
		t.Fatalf("analysis.computed = %d: the records were not read", n)
	}
	if n := svc.Counters.Get("jobs.restore_failed"); n != 0 {
		t.Fatalf("jobs.restore_failed = %d, want 0", n)
	}
	for _, d := range images {
		if st.Delete("lib", d); st.Has("lib", d) {
			t.Fatalf("library image %.12s… is pinned", d)
		}
	}
}

// unsealedStore runs req as a persisted job into a new store at dir, then rewrites
// every record, profile and verify record the store holds in the form the
// build before sealed records wrote. It returns the job's ID and result, and
// how many objects of each kind it rewrote.
func unsealedStore(t *testing.T, dir string, req JobRequest) (string, *BatchResult, map[string]int) {
	t.Helper()
	id, res := runPersistedJob(t, dir, Config{Workers: 2, MaxSteps: 2}, req)

	// The older form, written by hand from this build's records.
	st := openStore(t, dir)
	detects := map[string]string{}
	for _, w := range res.Workloads {
		detects[negativa.DetectKey(res.InstallFP, w.Identity).Hash] = w.Identity
	}
	unseal := map[string]func(hash string, payload []byte) []byte{
		kindRecord: func(_ string, payload []byte) []byte { return payload },
		kindProfile: func(hash string, payload []byte) []byte {
			old := binary.LittleEndian.AppendUint16(bytes.Clone(payload[:4]), 1)
			old = append(old, payload[6:8]...)
			for _, s := range []string{res.InstallFP, detects[hash]} {
				old = append(binary.AppendUvarint(old, uint64(len(s))), s...)
			}
			return append(old, payload[8:]...)
		},
		kindVerify: func(hash string, payload []byte) []byte {
			old, err := json.Marshal(map[string]any{"key": hash, "result": json.RawMessage(payload)})
			if err != nil {
				t.Fatal(err)
			}
			return old
		},
	}
	written := map[string]int{}
	for kind, rewrite := range unseal {
		var keys []string
		st.Walk(kind, func(key string, _ int64) error { keys = append(keys, key); return nil })
		for _, key := range keys {
			raw, ok := st.Get(kind, key)
			if !ok {
				t.Fatalf("%s/%s unreadable", kind, key)
			}
			st.Delete(kind, key)
			if err := st.Put(kind, key, rewrite(key, raw[sha256.Size:])); err != nil {
				t.Fatal(err)
			}
			written[kind]++
		}
	}
	if written[kindRecord] != len(res.Libs) || written[kindProfile] != len(detects) || written[kindVerify] != len(detects) {
		t.Fatalf("rewrote %v; want %d records and %d profiles and verify records", written, len(res.Libs), len(detects))
	}
	st.Close()
	return id, res, written
}

// TestUnsealedStoreRestores: a store written before records were sealed
// with their stage hash — compact records bare, profile records (version
// 1) naming their install fingerprint and workload identity, verify
// records as {"key", "result"} JSON — reopens with its done job restored.
// The job serves byte-identical images, and no record of the old form is
// served: the restore recomputes every compact and detect stage, and a
// resubmit reruns every verification. Each recompute's write replaces the
// old object, the restored job's pins carried over to it: afterwards
// every record is sealed, the pinned count is the boot's, and a further
// restart restores the job from disk with no analysis.
func TestUnsealedStoreRestores(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{
		Framework: "pytorch", TailLibs: 4, MaxSteps: 2,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}, {Model: "Transformer", Batch: 8}},
	}
	id, res, written := unsealedStore(t, dir, req)
	want := res.DebloatedLibs()
	detects := int64(len(req.Workloads))

	st := openStore(t, dir)
	svc := NewService(Config{Workers: 2, MaxSteps: 2, Store: st})
	defer svc.Close()
	if n := svc.Counters.Get("jobs.restored"); n != 1 {
		t.Fatalf("jobs.restored = %d, want 1", n)
	}
	pinned := st.Stats().Retained
	for name, img := range want {
		if !bytes.Equal(fetchDirect(t, svc, id, name), img) {
			t.Fatalf("library %s differs from the run that filled the store", name)
		}
	}
	svc.WaitReplication()
	if n := st.Stats().Retained; n != pinned {
		t.Fatalf("%d objects pinned after the restore replaced its records, %d at boot", n, pinned)
	}
	for name, n := range map[string]int64{
		"analysis.computed":       int64(len(want)),
		"stage.detect.misses":     detects,
		"stage.compact.disk_hits": 0,
		"stage.detect.disk_hits":  0,
		"jobs.restore_failed":     0,
	} {
		if got := svc.Counters.Get(name); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}

	job, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j, _ := waitJob(svc, job.ID, waitTimeout); j.State != JobDone || !j.Result.AllVerified() {
		t.Fatalf("resubmit over the old verify records: %s", j.Err)
	}
	if n := svc.Counters.Get("stage.verifyrun.disk_hits"); n != 0 {
		t.Fatalf("stage.verifyrun.disk_hits = %d: an unsealed verify record was served", n)
	}
	if n := svc.Counters.Get("stage.verifyrun.misses"); n != detects {
		t.Fatalf("stage.verifyrun.misses = %d, want %d", n, detects)
	}
	svc.WaitReplication()
	if n := st.Stats().Retained; n != pinned+1 {
		t.Fatalf("%d objects pinned after the resubmit, want the restored job's %d and the new manifest", n, pinned)
	}
	resealed := 0
	for kind := range written {
		st.Walk(kind, func(hash string, _ int64) error {
			raw, _ := st.Get(kind, hash)
			if sum, _ := rawHash(hash); !bytes.HasPrefix(raw, sum[:]) {
				t.Errorf("%s/%.12s… was not resealed", kind, hash)
			}
			resealed++
			return nil
		})
	}
	if total := written[kindRecord] + written[kindProfile] + written[kindVerify]; resealed != total {
		t.Fatalf("%d records resealed, want %d", resealed, total)
	}
	svc.Close()
	st.Close()

	again := NewService(Config{Workers: 2, MaxSteps: 2, Store: openStore(t, dir)})
	defer again.Close()
	for name, img := range want {
		if !bytes.Equal(fetchDirect(t, again, id, name), img) {
			t.Fatalf("library %s differs after the second restart", name)
		}
	}
	if n := again.Counters.Get("analysis.computed"); n != 0 {
		t.Fatalf("the second restart computed %d stages, want every record read from disk", n)
	}
}

// TestUnsealedStoreRestoreWriteFails: when the restore cannot write the
// records it recomputed in place of the old ones, the store carries the
// pins the restored job held on them. Evicting the job drains them: the
// pinned count returns to what it is without the job, and a record written
// later under one of those keys is pinned by nobody.
func TestUnsealedStoreRestoreWriteFails(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{
		Framework: "pytorch", TailLibs: 4, MaxSteps: 2,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}, {Model: "Transformer", Batch: 8}},
	}
	id, res, _ := unsealedStore(t, dir, req)

	var failRecords atomic.Bool
	failRecords.Store(true)
	st, err := castore.Open(dir, castore.Options{BeforeAppend: func(kind, _ string) error {
		if kind == kindRecord && failRecords.Load() {
			return errors.New("injected: record append fails")
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	unpinned := st.Stats().Retained
	svc := NewService(Config{Workers: 2, MaxSteps: 2, MaxJobs: 1, Store: st})
	defer svc.Close()
	if n := st.Stats().Retained; n <= unpinned {
		t.Fatalf("the restored job pinned nothing: %d objects pinned, %d before boot", n, unpinned)
	}
	for name, img := range res.DebloatedLibs() {
		if !bytes.Equal(fetchDirect(t, svc, id, name), img) {
			t.Fatalf("library %s differs from the run that filled the store", name)
		}
	}
	svc.WaitReplication()
	if n := svc.Counters.Get("analysis.computed"); n != int64(len(res.Libs)) {
		t.Fatalf("analysis.computed = %d, want every one of %d records recomputed", n, len(res.Libs))
	}
	for _, key := range res.libKeys {
		if st.Has(kindRecord, key) {
			t.Fatalf("record %.12s… was written though every record append fails", key)
		}
	}

	// A second job evicts the restored one (MaxJobs 1). Its own records
	// cannot be written either, so it pins nothing.
	other := req
	other.Workloads = req.Workloads[:1]
	job, err := svc.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if j, _ := waitJob(svc, job.ID, waitTimeout); j.State != JobDone {
		t.Fatalf("second job: %s", j.Err)
	}
	svc.WaitReplication()
	if n := svc.Counters.Get("jobs.evicted"); n != 1 {
		t.Fatalf("jobs.evicted = %d, want the restored job evicted", n)
	}
	if n := st.Stats().Retained; n != unpinned {
		t.Fatalf("%d objects pinned after the restored job was evicted, %d before boot", n, unpinned)
	}
	failRecords.Store(false)
	if err := st.Put(kindRecord, res.libKeys[0], []byte("written later")); err != nil {
		t.Fatal(err)
	}
	if n := st.Stats().Retained; n != unpinned {
		t.Fatalf("a record written after the eviction is pinned: %d objects pinned, want %d", n, unpinned)
	}
}

// libDigest is the hex content digest of a library, the key the older
// store form filed its image under.
func libDigest(lib *elfx.Library) string {
	d := lib.ContentDigest()
	return hex.EncodeToString(d[:])
}

// TestParentFormatStoreRecomputes is ARCHITECTURE.md's promise across the
// change of on-disk format: a store written before the record existed holds
// each compact result as a "result" JSON document plus a "sparse" range
// set, and a job manifest that references that pair. Reopened by this
// build, nothing reads the old pair — the batch recomputes (counted) and
// serves byte-identical images; the old manifest, whose references no
// longer resolve, is dropped and counted; and its ID stays reserved.
func TestParentFormatStoreRecomputes(t *testing.T) {
	req := JobRequest{
		Framework: "pytorch", TailLibs: 4, MaxSteps: 2,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}, {Model: "Transformer", Batch: 8}},
	}
	ref := NewService(Config{Workers: 2, MaxSteps: 2})
	job, err := ref.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j, _ := waitJob(ref, job.ID, waitTimeout); j.State != JobDone {
		t.Fatalf("reference job: %s", j.Err)
	}
	res := ref.Job(job.ID).Result
	want := res.DebloatedLibs()
	ref.Close()

	// The parent's store, written by hand: per result an image, a v2 range
	// set and the report as JSON, then a done manifest naming the pair.
	dir := t.TempDir()
	st := openStore(t, dir)
	const oldID = "job-0007"
	m := &jobManifest{ID: oldID, State: JobDone, Req: req, InstallFP: res.InstallFP}
	for i, lr := range res.Libs {
		key, lib := res.libKeys[i], lr.Sparse.Lib()
		meta, err := json.Marshal(map[string]any{
			"name": lr.Name, "lib_digest": libDigest(lib),
			"file_size": lr.FileSize, "file_effective": lr.FileEffective, "file_effective_after": lr.FileEffectiveAfter,
			"cpu_size": lr.CPUSize, "cpu_size_after": lr.CPUSizeAfter, "func_count": lr.FuncCount, "func_kept": lr.FuncKept,
			"gpu_size": lr.GPUSize, "gpu_size_after": lr.GPUSizeAfter, "elem_count": lr.ElemCount, "elem_kept": lr.ElemKept,
			"removed_arch_mismatch": lr.RemovedArchMismatch, "removed_no_used_kernel": lr.RemovedNoUsedKernel,
			"resident_bytes": lr.ResidentBytes, "resident_bytes_after": lr.ResidentBytesAfter,
			"used_funcs": lr.UsedFuncs, "used_kernels": lr.UsedKernels, "analysis_ns": 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []struct {
			kind, key string
			payload   []byte
		}{{"lib", libDigest(lib), lib.Data}, {"sparse", key, lr.Sparse.EncodeWire()}, {"result", key, meta}} {
			if err := st.Put(o.kind, o.key, o.payload); err != nil {
				t.Fatal(err)
			}
		}
		m.Libs = append(m.Libs, manifestLib{Name: lr.Name, Key: key})
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(kindJob, oldID, raw); err != nil {
		t.Fatal(err)
	}
	st.Close()

	svc := NewService(Config{Workers: 2, MaxSteps: 2, Store: openStore(t, dir)})
	defer svc.Close()
	if n := svc.Counters.Get("jobs.restore_failed"); n != 1 {
		t.Fatalf("jobs.restore_failed = %d, want 1: the parent-format manifest must be dropped", n)
	}
	if svc.Job(oldID) != nil || svc.Store().Has(kindJob, oldID) {
		t.Fatal("the parent-format manifest was restored")
	}
	job, err = svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if jobSeq(job.ID) <= jobSeq(oldID) {
		t.Fatalf("new job %s reissues an ID at or below the dropped %s", job.ID, oldID)
	}
	j, _ := waitJob(svc, job.ID, waitTimeout)
	if j.State != JobDone {
		t.Fatalf("job over a parent-format store: %s", j.Err)
	}
	if n := svc.Counters.Get("analysis.computed"); n != int64(len(want)) {
		t.Fatalf("analysis.computed = %d, want %d: every compact stage recomputes", n, len(want))
	}
	if n := svc.Counters.Get("stage.compact.disk_hits"); n != 0 {
		t.Fatalf("stage.compact.disk_hits = %d over a store holding no record", n)
	}
	if j.Result.CacheMisses == 0 {
		t.Fatal("the recompute counted no cache misses")
	}
	for name, img := range want {
		if got := fetchDirect(t, svc, job.ID, name); !bytes.Equal(got, img) {
			t.Fatalf("library %s differs from the reference run", name)
		}
	}
}

// fetchDirect downloads one library through the service API (no HTTP).
func fetchDirect(t *testing.T, s *Service, id, name string) []byte {
	t.Helper()
	ls, err := s.OpenLibStream(id, name)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	var buf bytes.Buffer
	if _, err := ls.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJobEvictionReleasesStoreRefs: evicting an unpinned job must release
// its store references so the byte budget can reclaim them, and must not
// resurrect on the next boot.
func TestJobEvictionReleasesStoreRefs(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	svc := NewService(Config{Workers: 2, MaxSteps: 2, MaxJobs: 1, Store: st1})
	req := JobRequest{
		Framework: "pytorch", TailLibs: 2, MaxSteps: 2,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}},
	}
	job1, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j, _ := waitJob(svc, job1.ID, waitTimeout); j.State != JobDone {
		t.Fatalf("job1: %s", j.Err)
	}
	// A different workload so job2 is a distinct terminal job.
	req2 := req
	req2.Workloads = []WorkloadSpec{{Model: "Transformer", Batch: 4}}
	job2, err := svc.Submit(req2)
	if err != nil {
		t.Fatal(err)
	}
	if j, _ := waitJob(svc, job2.ID, waitTimeout); j.State != JobDone {
		t.Fatalf("job2: %s", j.Err)
	}
	if svc.Job(job1.ID) != nil {
		t.Fatal("job1 not evicted with MaxJobs=1")
	}
	if svc.Store().Has(kindJob, job1.ID) {
		t.Fatal("evicted job manifest survives")
	}
	svc.Close()
	st1.Close()

	svc2 := NewService(Config{Workers: 2, MaxSteps: 2, MaxJobs: 1, Store: openStore(t, dir)})
	defer svc2.Close()
	if svc2.Job(job1.ID) != nil {
		t.Fatal("evicted job resurrected on reboot")
	}
	if svc2.Job(job2.ID) == nil {
		t.Fatal("retained job not restored on reboot")
	}
}

// BenchmarkDiskHit is the disk tier's cost per hit: the compact results of
// a persisted pytorch141 batch (the four CV/NLP members at 4 steps), read
// back through the stage memo's disk loader from a reopened store against
// the live libraries and planted in the result cache, one result per op. ns/op, B/op and allocs/op are per
// hit; us/hit restates ns/op in the unit the disk_restore budget uses.
func BenchmarkDiskHit(b *testing.B) {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 141})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	st, err := castore.Open(dir, castore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	svc := NewService(Config{MaxSteps: 4, Store: st})
	res, err := svc.DebloatBatch(in, testWorkloads(b, in), BatchOptions{})
	svc.Close()
	st.Close()
	if err != nil {
		b.Fatal(err)
	}
	if st, err = castore.Open(dir, castore.Options{}); err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	m := NewStageMemo(NewResultCache(1<<40, nil), nil)
	m.store = st
	ms := memoStageOf(negativa.StageCompact)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(res.Libs)
		if _, ok := m.loadStored(ms, res.libKeys[j], res.Libs[j].Sparse.Lib()); !ok {
			b.Fatalf("%s: no disk hit", res.Libs[j].Name)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/hit")
}

// TestColdBatchCountsNoStoreMisses pins the one disk-probe rule: every
// memoized stage asks the store whether it holds a key before reading it,
// so a cold batch over an empty store — every detect, compact and verifyrun
// key absent — costs no store miss.
func TestColdBatchCountsNoStoreMisses(t *testing.T) {
	in, ws := persistTestInstall(t)
	st := openStore(t, t.TempDir())
	svc := NewService(Config{Workers: 2, MaxSteps: 2, Store: st})
	defer svc.Close()
	before := st.Stats().Misses
	res, err := svc.DebloatBatch(in, ws, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc.WaitReplication()
	if res.CacheMisses != len(in.LibNames) || !res.AllVerified() {
		t.Fatalf("%d of %d compacts computed, verified %v; want a cold, verified batch", res.CacheMisses, len(in.LibNames), res.AllVerified())
	}
	if got := st.Stats().Misses - before; got != 0 {
		t.Fatalf("a cold batch counted %d store misses, want 0", got)
	}
}
