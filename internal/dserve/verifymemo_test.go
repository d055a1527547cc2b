package dserve

import (
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"negativaml/internal/cluster"
	"negativaml/internal/fatbin"
	"negativaml/internal/metrics"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// sourceLog records, per stage, the tier every finished node of a batch was
// served from.
type sourceLog struct {
	mu  sync.Mutex
	src map[string][]plan.Source
}

func (l *sourceLog) StageDone(string, bool, time.Duration) {}

func (l *sourceLog) StageSource(stage string, src plan.Source, _ time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.src == nil {
		l.src = map[string][]plan.Source{}
	}
	l.src[stage] = append(l.src[stage], src)
}

// all reports whether the stage finished n nodes, every one from want.
func (l *sourceLog) all(stage string, n int, want plan.Source) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.src[stage]) != n {
		return false
	}
	for _, s := range l.src[stage] {
		if s != want {
			return false
		}
	}
	return true
}

// verifyCounts is what a batch cost in verification work: clones built and
// verification runs executed.
type verifyCounts struct{ clones, runs int64 }

func verifyWork(svc *Service) verifyCounts {
	return verifyCounts{svc.Counters.Get("verify.clones"), svc.Counters.Get("stage.verifyrun.misses")}
}

func (a verifyCounts) since(b verifyCounts) verifyCounts {
	return verifyCounts{a.clones - b.clones, a.runs - b.runs}
}

// TestWarmResubmitSchedulesNoCloneWork: a batch whose members' verify
// records are all in memory builds no clone (no pooled scratch, no
// materialize, no parse) and runs nothing; its verifyrun nodes are memory
// hits and its members are verified by the recorded digests.
func TestWarmResubmitSchedulesNoCloneWork(t *testing.T) {
	in := testInstall(t)
	ws := testWorkloads(t, in)
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()

	if _, err := svc.DebloatBatch(in, ws, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := verifyWork(svc); got != (verifyCounts{1, int64(len(ws))}) {
		t.Fatalf("cold batch: %+v, want one clone and %d runs", got, len(ws))
	}
	before := verifyWork(svc)
	var log sourceLog
	warm, err := svc.DebloatBatch(in, ws, BatchOptions{Observer: &log})
	if err != nil {
		t.Fatal(err)
	}
	if got := verifyWork(svc).since(before); got != (verifyCounts{}) {
		t.Fatalf("warm resubmit did verification work: %+v", got)
	}
	if !log.all(negativa.StageVerifyRun, len(ws), plan.SourceMemory) {
		t.Fatalf("warm verifyrun sources %v, want %d memory hits", log.src[negativa.StageVerifyRun], len(ws))
	}
	if !warm.AllVerified() {
		t.Fatal("warm batch must verify from its records")
	}
}

// TestConcurrentBatchesVerifyEachMemberOnce: identical batches racing on a
// fresh service may each build a clone, but the flight table runs every
// member's verification once.
func TestConcurrentBatchesVerifyEachMemberOnce(t *testing.T) {
	in := testInstall(t)
	svc := NewService(Config{Workers: 4, MaxSteps: 2})
	defer svc.Close()

	const batches = 5
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := svc.DebloatBatch(in, testWorkloads(t, in), BatchOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			if !res.AllVerified() {
				t.Error("batch did not verify")
			}
		}()
	}
	wg.Wait()
	members := int64(len(testWorkloads(t, in)))
	if runs := svc.Counters.Get("stage.verifyrun.misses"); runs != members {
		t.Fatalf("%d batches of %d members ran %d verifications, want %d", batches, members, runs, members)
	}
}

// coldStore runs one batch on a fresh store-backed service over dir and
// closes both, so every artifact and verify record of the batch is on disk.
func coldStore(t *testing.T, dir string, in *mlframework.Install, ws []mlruntime.Workload) *BatchResult {
	t.Helper()
	st := openStore(t, dir)
	svc := NewService(Config{Workers: 2, MaxSteps: 2, Store: st})
	res, err := svc.DebloatBatch(in, ws, BatchOptions{})
	svc.Close()
	st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllVerified() {
		t.Fatal("cold batch did not verify")
	}
	return res
}

// verifyKeys derives the batch's verifyrun keys the way the probe node does,
// from the range sets in its result.
func verifyKeys(in *mlframework.Install, res *BatchResult, steps int) []plan.Key {
	images := make([]*negativa.SparseImage, len(res.Libs))
	for i, lr := range res.Libs {
		images[i] = lr.Sparse
	}
	set := negativa.DebloatedSetDigest(in.LibNames, images)
	keys := make([]plan.Key, len(res.Workloads))
	for i, o := range res.Workloads {
		keys[i] = negativa.VerifyRunKey(res.InstallFP, o.Identity, steps, set)
	}
	return keys
}

// TestRestartedServiceVerifiesFromDisk: a restarted store-backed service
// answers every member's verification from its stored record — and, with one
// record deleted, builds the clone once and runs exactly that member.
func TestRestartedServiceVerifiesFromDisk(t *testing.T) {
	dir := t.TempDir()
	in, ws := persistTestInstall(t)
	cold := coldStore(t, dir, in, ws)
	keys := verifyKeys(in, cold, 2)

	st := openStore(t, dir)
	for _, k := range keys {
		if !st.Has(kindVerify, k.Hash) {
			t.Fatalf("no verify record %s on disk after the cold service closed", k)
		}
	}
	svc := NewService(Config{Workers: 2, MaxSteps: 2, Store: st})
	var log sourceLog
	warm, err := svc.DebloatBatch(in, ws, BatchOptions{Observer: &log})
	if err != nil {
		t.Fatal(err)
	}
	if got := verifyWork(svc); got != (verifyCounts{}) {
		t.Fatalf("restarted service did verification work: %+v", got)
	}
	if !log.all(negativa.StageVerifyRun, len(ws), plan.SourceDisk) {
		t.Fatalf("restarted verifyrun sources %v, want %d disk hits", log.src[negativa.StageVerifyRun], len(ws))
	}
	if n := svc.Counters.Get("stage.verifyrun.disk_hits"); n != int64(len(ws)) {
		t.Fatalf("stage.verifyrun.disk_hits = %d, want %d", n, len(ws))
	}
	if !warm.AllVerified() {
		t.Fatal("batch verified from disk records must verify")
	}
	svc.Close()
	st.Close()

	// Mixed: one record gone, the other still there.
	st = openStore(t, dir)
	st.Delete(kindVerify, keys[0].Hash)
	svc = NewService(Config{Workers: 2, MaxSteps: 2, Store: st})
	defer svc.Close()
	mixed, err := svc.DebloatBatch(in, ws, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verifyWork(svc); got != (verifyCounts{1, 1}) {
		t.Fatalf("mixed batch: %+v, want one clone and one run", got)
	}
	if !mixed.AllVerified() {
		t.Fatal("mixed batch must verify")
	}
	svc.WaitReplication()
	if !st.Has(kindVerify, keys[0].Hash) {
		t.Fatal("the re-run did not write its record back")
	}
}

// TestVerifyMemoReRunsOnDifferentBytes is the promise the verifyrun key
// keeps: it addresses the bytes handed out, not the keys asked for. One
// library's persisted record is replaced, through the store, by a
// well-formed one — valid frame, valid NRC1 with an NSP2 range set, bound
// to the right library — whose range set also zeroes the code of a kernel
// the members use. The
// restarted service restores that compact from disk under its unchanged
// compact key; the set digest, and so every verifyrun key, is different; no
// record answers, the members run on the bytes as they now are, and the
// batch cannot end verified.
func TestVerifyMemoReRunsOnDifferentBytes(t *testing.T) {
	dir := t.TempDir()
	in := testInstall(t)
	ws := testWorkloads(t, in)
	cold := coldStore(t, dir, in, ws)

	// Every element that holds the first used kernel, on either member
	// architecture: zeroing them all leaves no copy for the driver to load.
	var extra []fatbin.Range
	victim := -1
	for i, lr := range cold.Libs {
		if len(lr.UsedKernels) == 0 {
			continue
		}
		loc, err := negativa.LocateGPU(in.Library(lr.Name), lr.UsedKernels[:1], negativa.DeviceArchs(append(ws[0].Devices, ws[2].Devices...)))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range loc.Decisions {
			if d.Reason == negativa.Kept {
				extra = append(extra, d.PayloadRange)
			}
		}
		if len(extra) > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no library keeps a used kernel")
	}
	lib := in.Library(cold.Libs[victim].Name)
	key := cold.libKeys[victim]

	st := openStore(t, dir)
	raw, ok := st.Get(kindRecord, key)
	if !ok {
		t.Fatalf("no record for %s", lib.Name)
	}
	cs := memoStageOf(negativa.StageCompact)
	v, err := cs.open(key, lib, raw)
	if err != nil {
		t.Fatal(err)
	}
	rec := v.(*negativa.LibDebloat)
	stored := rec.Report.Sparse
	ranges := append(extra, stored.ZeroedRanges()...)
	tampered := negativa.NewSparseImage(lib, ranges)
	if tampered.NonZeroBytes() == stored.NonZeroBytes() {
		t.Fatal("the extra range changed nothing")
	}
	rec.Report.Sparse = tampered
	if raw, err = cs.seal(key, rec); err != nil {
		t.Fatal(err)
	}
	st.Delete(kindRecord, key)
	if err := st.Put(kindRecord, key, raw); err != nil {
		t.Fatal(err)
	}

	svc := NewService(Config{Workers: 2, MaxSteps: 2, Store: st})
	defer svc.Close()
	var log sourceLog
	res, err := svc.DebloatBatch(in, ws, BatchOptions{Observer: &log})
	if n := svc.Counters.Get("analysis.computed"); n != 0 {
		t.Fatalf("the tampered range set must be a disk hit; %d libraries recomputed", n)
	}
	if n := svc.Counters.Get("stage.compact.disk_hits"); n != int64(len(in.LibNames)) {
		t.Fatalf("stage.compact.disk_hits = %d, want %d", n, len(in.LibNames))
	}
	if n := svc.Counters.Get("stage.verifyrun.hits"); n != 0 {
		t.Fatalf("%d verify records answered for bytes they were never run on", n)
	}
	for _, src := range log.src[negativa.StageVerifyRun] {
		if src != plan.SourceComputed {
			t.Fatalf("verifyrun served from %v, want computed", src)
		}
	}
	if got := verifyWork(svc).clones; err == nil && got != 1 {
		t.Fatalf("%d clones built, want 1", got)
	}
	if err == nil && res.AllVerified() {
		t.Fatal("a batch handing out a library with a used kernel zeroed ended verified")
	}
	t.Logf("tampered batch ended: err=%v", err)
}

// TestVerifyRecordCorruptionDegradesToRerun: a verify object that is
// truncated on disk, garbled on disk, or well-framed but not this key's
// record is a miss — the member re-runs, verifies, and the record is
// written again.
func TestVerifyRecordCorruptionDegradesToRerun(t *testing.T) {
	in, ws := persistTestInstall(t)
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, dir, hash string)
	}{
		{"truncated", func(t *testing.T, dir, hash string) {
			// The entry's header claims 7 bytes fewer than the index holds.
			e := storedEntryOf(t, dir, kindVerify, hash)
			f, err := os.OpenFile(e.path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt(binary.LittleEndian.AppendUint64(nil, uint64(e.size-7)), e.payload-48+8); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbled", func(t *testing.T, dir, hash string) {
			flipLastPayloadByte(t, storedEntryOf(t, dir, kindVerify, hash))
		}},
		{"another key's record", func(t *testing.T, dir, hash string) {
			st := openStore(t, dir)
			defer st.Close()
			st.Delete(kindVerify, hash)
			if err := st.Put(kindVerify, hash, []byte(`{"key":"someone-else","result":{"Digest":1}}`)); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cold := coldStore(t, dir, in, ws)
			keys := verifyKeys(in, cold, 2)
			tc.corrupt(t, dir, keys[1].Hash)

			st := openStore(t, dir)
			svc := NewService(Config{Workers: 2, MaxSteps: 2, Store: st})
			defer svc.Close()
			res, err := svc.DebloatBatch(in, ws, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := verifyWork(svc); got != (verifyCounts{1, 1}) {
				t.Fatalf("%+v, want one clone and one re-run", got)
			}
			if !res.AllVerified() {
				t.Fatal("the re-run must verify")
			}
			svc.WaitReplication()
			if r, ok := svc.stages.loadStored(memoStageOf(keys[1].Stage), keys[1].Hash, nil); !ok || r.(*mlruntime.Result).Digest != res.Workloads[1].RefDigest {
				t.Fatalf("record not rewritten: ok=%v r=%+v", ok, r)
			}
		})
	}
}

// TestClusterServesVerifyRecords: after node a's cold batch and its
// write-back, b and c answer every member's verification from a record — a
// replica's, read through, or their own copy as co-owner — without a clone
// or a run, and once those reads have settled a second repair sweep has
// nothing left to stream.
func TestClusterServesVerifyRecords(t *testing.T) {
	nodes := startCluster(t, "a", "b", "c")
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()
	in := testInstall(t)
	ws := testWorkloads(t, in)

	cold, err := nodes["a"].svc.DebloatBatch(in, ws, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.AllVerified() {
		t.Fatal("node a batch must verify")
	}
	nodes["a"].svc.WaitReplication()

	for _, id := range []string{"b", "c"} {
		svc := nodes[id].svc
		var log sourceLog
		res, err := svc.DebloatBatch(in, ws, BatchOptions{Observer: &log})
		if err != nil {
			t.Fatalf("node %s: %v", id, err)
		}
		if got := verifyWork(svc); got != (verifyCounts{}) {
			t.Fatalf("node %s did verification work: %+v", id, got)
		}
		for _, src := range log.src[negativa.StageVerifyRun] {
			if src != plan.SourcePeer && src != plan.SourceDisk {
				t.Fatalf("node %s verifyrun served from %v, want peer or disk", id, src)
			}
		}
		if !res.AllVerified() {
			t.Fatalf("node %s batch must verify", id)
		}
		svc.WaitReplication()
	}
	if n := nodes["b"].svc.Counters.Get("stage.verifyrun.peer_hits") + nodes["c"].svc.Counters.Get("stage.verifyrun.peer_hits"); n == 0 {
		t.Fatal("no verify record was read through a peer")
	}

	for _, n := range nodes {
		n.svc.RepairNow()
	}
	for id, n := range nodes {
		if streamed := n.svc.RepairNow(); streamed != 0 {
			t.Fatalf("node %s: second repair sweep streamed %d objects", id, streamed)
		}
	}
	// Every live owner of every verifyrun key holds its record.
	for _, k := range verifyKeys(in, cold, 2) {
		for _, owner := range nodes["a"].svc.Cluster().Owners(k.String()) {
			if !nodes[owner].store.Has(kindVerify, k.Hash) {
				t.Fatalf("owner %s lacks verify record %s", owner, k)
			}
		}
	}
}

// TestIncrementalRerunsOnlyFreshMembers: an incremental re-submit carries its
// base members' outcomes — they answer for a different debloated set, which
// no verifyrun key can — and its fresh member goes through the memo like any
// other: run once, a memory hit when the same incremental batch comes again.
func TestIncrementalRerunsOnlyFreshMembers(t *testing.T) {
	in := testInstall(t)
	ws := testWorkloads(t, in)
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()

	base, err := svc.DebloatBatch(in, ws[:2], BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for pass, wantRuns := range []int64{1, 0} {
		before := verifyWork(svc)
		inc, err := svc.DebloatBatch(in, ws[:3], BatchOptions{Base: base, BaseID: "base"})
		if err != nil {
			t.Fatal(err)
		}
		if inc.Incremental == nil || inc.Incremental.CarriedVerifications != 2 {
			t.Fatalf("pass %d: incremental stats %+v, want 2 carried verifications", pass, inc.Incremental)
		}
		if got := verifyWork(svc).since(before); got != (verifyCounts{wantRuns, wantRuns}) {
			t.Fatalf("pass %d: %+v, want %d clone and run", pass, got, wantRuns)
		}
		if !inc.AllVerified() {
			t.Fatalf("pass %d: incremental batch must verify", pass)
		}
	}
}

// BenchmarkDebloatedSetDigest is the microbenchmark of the verify probe's one
// computation on a warm batch: the digest over every library's name, content
// digest and zeroed ranges, for the two Table-1 shapes with the most
// libraries and the most ranges.
func BenchmarkDebloatedSetDigest(b *testing.B) {
	for _, shape := range []struct {
		name      string
		framework string
		tail      int
		model     string
	}{
		{"pytorch141", mlframework.PyTorch, 141, "MobileNetV2"},
		{"tensorflow388", mlframework.TensorFlow, 388, "MobileNetV2"},
	} {
		b.Run(shape.name, func(b *testing.B) {
			in, err := mlframework.Generate(mlframework.Config{Framework: shape.framework, TailLibs: shape.tail})
			if err != nil {
				b.Fatal(err)
			}
			w, err := WorkloadSpec{Model: shape.model, Batch: 1}.Workload(in)
			if err != nil {
				b.Fatal(err)
			}
			svc := NewService(Config{MaxSteps: 2})
			defer svc.Close()
			res, err := svc.DebloatBatch(in, []mlruntime.Workload{w}, BatchOptions{SkipVerify: true})
			if err != nil {
				b.Fatal(err)
			}
			images := make([]*negativa.SparseImage, len(res.Libs))
			ranges := 0
			for i, lr := range res.Libs {
				images[i] = lr.Sparse
				ranges += len(lr.Sparse.ZeroedRanges())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if negativa.DebloatedSetDigest(in.LibNames, images) == "" {
					b.Fatal("empty digest")
				}
			}
			b.ReportMetric(float64(ranges), "ranges")
		})
	}
}

// TestPeerVerifyRecordDecodedUnderItsKey: a verify record a peer answers is
// opened under the key that was asked for. A record sealed with another
// hash counts as a fallback: nothing is planted, and the run happens here.
func TestPeerVerifyRecordDecodedUnderItsKey(t *testing.T) {
	setKey := func(set string) plan.Key { return negativa.VerifyRunKey("fp", "w", 2, set) }
	key := setKey("asked")
	for _, tc := range []struct {
		name     string
		filed    plan.Key
		fromPeer bool
	}{
		{"under the key asked for", key, true},
		{"under another key", setKey("someone-else"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := memoStageOf(key.Stage).seal(tc.filed.Hash, &mlruntime.Result{Digest: 7})
			if err != nil {
				t.Fatal(err)
			}
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				var req peerBatchLookupRequest
				json.NewDecoder(r.Body).Decode(&req)
				w.Write(lookupAnswer(req.Keys, func(peerLookupRequest) []byte { return rec }))
			}))
			defer peer.Close()
			counters := metrics.NewCounterSet()
			m := NewStageMemo(NewResultCache(1<<20, nil), counters)
			c := cluster.New("self", map[string]string{"peer": peer.URL}, cluster.Options{
				ReplicaSets: 2, Counters: counters, Timeout: 30 * time.Second,
			})
			defer c.Close()
			m.AttachCluster(c)

			batch := newBatchMemo(m)
			batch.PrefetchLookups(nil, []prefetchItem{{key: key}})
			ran := false
			v, src, err := batch.GetOrCompute(nil, key, nil, func() (any, error) {
				ran = true
				return &mlruntime.Result{Digest: 9}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			got := v.(*mlruntime.Result).Digest
			if tc.fromPeer && (ran || src != plan.SourcePeer || got != 7) {
				t.Fatalf("ran=%v src=%v digest=%d; want the peer's record", ran, src, got)
			}
			if !tc.fromPeer && (!ran || src != plan.SourceComputed || got != 9) {
				t.Fatalf("ran=%v src=%v digest=%d; want a local run", ran, src, got)
			}
			wantHits, wantFallbacks := int64(1), int64(0)
			if !tc.fromPeer {
				wantHits, wantFallbacks = 0, 1
			}
			if h, f := counters.Get("peer.hits"), counters.Get("peer.fallbacks"); h != wantHits || f != wantFallbacks {
				t.Fatalf("peer.hits = %d, peer.fallbacks = %d; want %d and %d", h, f, wantHits, wantFallbacks)
			}
		})
	}
}
