package dserve

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"negativaml/internal/gpuarch"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// countDerivations counts, per library, the compact keys a Union derives
// until the test ends.
func countDerivations(t *testing.T) func() map[string]int {
	t.Helper()
	var mu sync.Mutex
	counts := map[string]int{}
	negativa.CompactKeyHook = func(lib string) {
		mu.Lock()
		counts[lib]++
		mu.Unlock()
	}
	t.Cleanup(func() { negativa.CompactKeyHook = nil })
	return func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := counts
		counts = map[string]int{}
		return out
	}
}

// TestUnionMemoMatchesScratch is the union tier's differential test. Over
// random subsets of the canonical members in random orders, a batch's
// union and compact keys, memoized or not, equal MergeProfiles and
// LocateKey recomputed from fresh profiles. A member set seen before in the
// same order takes its union from memory. Another order of the same set has
// another union key but the same union and compact keys.
func TestUnionMemoMatchesScratch(t *testing.T) {
	const steps = 2
	in := testInstall(t)
	ws := testWorkloads(t, in)
	fresh := make([]*negativa.Profile, len(ws))
	for i, w := range ws {
		p, err := negativa.DetectUsage(w, steps)
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = p
	}
	fp := negativa.InstallFingerprint(in)

	svc := NewService(Config{Workers: 2, MaxSteps: steps})
	defer svc.Close()
	rng := rand.New(rand.NewSource(55))
	seen := map[plan.Key]bool{}
	byMembers := map[string][]string{} // compact keys by sorted member set
	for trial := 0; trial < 24; trial++ {
		order := rng.Perm(len(ws))[:1+rng.Intn(len(ws))]
		members := make([]mlruntime.Workload, len(order))
		profiles := make([]*negativa.Profile, len(order))
		detects := make([]plan.Key, len(order))
		set := make([]byte, len(ws))
		for j, i := range order {
			members[j], profiles[j] = ws[i], fresh[i]
			detects[j] = negativa.DetectKey(fp, negativa.WorkloadIdentity(ws[i], steps))
			set[i] = 1
		}
		key := negativa.UnionKey(detects)
		obs := &sourceLog{}
		res, err := svc.DebloatBatch(in, members, BatchOptions{SkipVerify: true, Observer: obs})
		if err != nil {
			t.Fatal(err)
		}
		want := plan.SourceComputed
		if seen[key] {
			want = plan.SourceMemory
		}
		if !obs.all(negativa.StageUnion, 1, want) {
			t.Fatalf("trial %d (members %v, seen before %v): union sources %v, want one %v", trial, order, seen[key], obs.src[negativa.StageUnion], want)
		}
		seen[key] = true

		u := negativa.MergeProfiles(profiles...)
		if !reflect.DeepEqual(res.Union.UsedFuncs, u.UsedFuncs) || !reflect.DeepEqual(res.Union.UsedKernels, u.UsedKernels) || res.Union.Workload != u.Workload {
			t.Fatalf("trial %d (members %v): the memoized union differs from MergeProfiles", trial, order)
		}
		archs := unionArchs(members)
		keys := make([]string, len(in.LibNames))
		for i, name := range in.LibNames {
			keys[i] = negativa.CompactKey(negativa.LocateKey(in.Library(name), u.UsedFuncs[name], u.UsedKernels[name], archs)).Hash
		}
		if !reflect.DeepEqual(res.libKeys, keys) {
			t.Fatalf("trial %d (members %v): the compact keys differ from LocateKey's", trial, order)
		}
		if prev, ok := byMembers[string(set)]; ok && !reflect.DeepEqual(prev, keys) {
			t.Fatalf("trial %d (members %v): another order of the same members changed the compact keys", trial, order)
		}
		byMembers[string(set)] = keys
	}

	if hits := svc.Counters.Get("stage.union.hits"); hits == 0 {
		t.Fatal("no trial repeated a member order, so no union came from memory")
	}

	// Reordering two different members changes the union key.
	a := negativa.DetectKey(fp, negativa.WorkloadIdentity(ws[0], steps))
	b := negativa.DetectKey(fp, negativa.WorkloadIdentity(ws[1], steps))
	if negativa.UnionKey([]plan.Key{a, b}) == negativa.UnionKey([]plan.Key{b, a}) {
		t.Fatal("reordering the members left the union key unchanged")
	}
}

// unionArchs is the batch's architecture set: the union of its members'
// devices.
func unionArchs(ws []mlruntime.Workload) []gpuarch.SM {
	var devs []gpuarch.Device
	for _, w := range ws {
		devs = append(devs, w.Devices...)
	}
	return negativa.DeviceArchs(devs)
}

// TestWarmResubmitTakesUnionFromMemory: a resubmitted batch takes its union
// from memory and derives no compact key; its cold run derived each
// library's key once.
func TestWarmResubmitTakesUnionFromMemory(t *testing.T) {
	in := testInstall(t)
	ws := testWorkloads(t, in)
	svc := NewService(Config{Workers: 4, MaxSteps: 2})
	defer svc.Close()
	derived := countDerivations(t)

	cold, err := svc.DebloatBatch(in, ws, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := derived(); len(got) != len(in.LibNames) || !everyOnce(got) {
		t.Fatalf("the cold batch derived %v, want each of %d libraries once", got, len(in.LibNames))
	}
	obs := &sourceLog{}
	warm, err := svc.DebloatBatch(in, ws, BatchOptions{Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if !obs.all(negativa.StageUnion, 1, plan.SourceMemory) {
		t.Fatalf("warm union sources %v, want one memory hit", obs.src[negativa.StageUnion])
	}
	if got := derived(); len(got) != 0 {
		t.Fatalf("the warm batch derived compact keys %v", got)
	}
	if warm.Union != cold.Union {
		t.Fatal("the warm batch merged its union again")
	}
	if warm.CacheMisses != 0 || warm.CacheHits != len(in.LibNames) || warm.ProfileReuses != len(ws) {
		t.Fatalf("warm batch: %d hits, %d misses, %d profile reuses", warm.CacheHits, warm.CacheMisses, warm.ProfileReuses)
	}
	if got := svc.Counters.Get("stage.union.hits"); got != 1 {
		t.Fatalf("stage.union.hits = %d, want 1", got)
	}
}

// everyOnce reports whether every count is 1.
func everyOnce(counts map[string]int) bool {
	for _, n := range counts {
		if n != 1 {
			return false
		}
	}
	return true
}

// TestClusterBatchDerivesEachCompactKeyOnce: on a three-node ring the
// batch prefetch and the compact nodes both need every compact key; each
// is derived once, by whichever asks first.
func TestClusterBatchDerivesEachCompactKeyOnce(t *testing.T) {
	nodes := startCluster(t, "a", "b", "c")
	for _, n := range nodes {
		defer n.close()
	}
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 4})
	if err != nil {
		t.Fatal(err)
	}
	ws := testWorkloads(t, in)
	derived := countDerivations(t)
	for _, id := range []string{"a", "b"} {
		if _, err := nodes[id].svc.DebloatBatch(in, ws, BatchOptions{}); err != nil {
			t.Fatal(err)
		}
		nodes[id].svc.WaitReplication()
		if got := derived(); len(got) != len(in.LibNames) || !everyOnce(got) {
			t.Fatalf("node %s: derived %v, want each of %d libraries once", id, got, len(in.LibNames))
		}
	}
}

// TestUnionSharedAcrossConcurrentBatches: eight batches of one member set
// whose union is not yet held, submitted at once, share one union value:
// it is merged once and each compact key derived once. Run under -race.
func TestUnionSharedAcrossConcurrentBatches(t *testing.T) {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ws := testWorkloads(t, in)
	svc := NewService(Config{Workers: 4, MaxSteps: 2})
	defer svc.Close()
	// Detect every member first, under another order, so the eight batches
	// race on the union alone.
	rev := []mlruntime.Workload{ws[3], ws[2], ws[1], ws[0]}
	if _, err := svc.DebloatBatch(in, rev, BatchOptions{SkipVerify: true}); err != nil {
		t.Fatal(err)
	}
	derived := countDerivations(t)
	misses := svc.Counters.Get("stage.union.misses")

	const batches = 8
	unions := make([]*negativa.Profile, batches)
	images := make([]map[string][]byte, batches)
	var wg sync.WaitGroup
	errs := make(chan error, batches)
	for i := 0; i < batches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := svc.DebloatBatch(in, ws, BatchOptions{SkipVerify: true})
			if err != nil {
				errs <- err
				return
			}
			unions[i], images[i] = res.Union, res.DebloatedLibs()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 1; i < batches; i++ {
		if unions[i] != unions[0] {
			t.Fatalf("batch %d holds another union value", i)
		}
		for name, img := range images[0] {
			if !bytes.Equal(images[i][name], img) {
				t.Fatalf("batch %d: %s differs", i, name)
			}
		}
	}
	if got := svc.Counters.Get("stage.union.misses") - misses; got != 1 {
		t.Fatalf("the union was merged %d times, want once", got)
	}
	if got := derived(); len(got) != len(in.LibNames) || !everyOnce(got) {
		t.Fatalf("derived %v, want each of %d libraries once", got, len(in.LibNames))
	}
}

// TestUnionTierMatchesSoloDebloat: with the union memoized, a one-member
// batch serves each library byte-identical to a solo negativa.Debloat,
// cold and warm, and counts its misses and reuses as a batch always has:
// every library a miss and no profile reused cold, none and one warm.
func TestUnionTierMatchesSoloDebloat(t *testing.T) {
	in := testInstall(t)
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()
	for _, w := range testWorkloads(t, in) {
		solo, err := negativa.Debloat(w, negativa.Options{MaxSteps: 2})
		if err != nil {
			t.Fatal(err)
		}
		want := solo.DebloatedLibs()
		for pass, reuses := range []int{0, 1} {
			res, err := svc.DebloatBatch(in, []mlruntime.Workload{w}, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllVerified() {
				t.Fatalf("%s pass %d: not verified", w.Name, pass)
			}
			if res.ProfileReuses != reuses || (pass == 1 && res.CacheMisses != 0) {
				t.Fatalf("%s pass %d: %d profile reuses, %d cache misses", w.Name, pass, res.ProfileReuses, res.CacheMisses)
			}
			if pass == 0 && res.CacheMisses+res.CacheHits != len(in.LibNames) {
				t.Fatalf("%s: %d hits and %d misses over %d libraries", w.Name, res.CacheHits, res.CacheMisses, len(in.LibNames))
			}
			got := res.DebloatedLibs()
			if len(got) != len(want) {
				t.Fatalf("%s pass %d: %d libraries, solo %d", w.Name, pass, len(got), len(want))
			}
			for name, img := range want {
				if !bytes.Equal(got[name], img) {
					t.Fatalf("%s pass %d: %s differs from the solo Debloat", w.Name, pass, name)
				}
			}
		}
	}
}

// TestUnionTierIsMemoryOnly: a union is held in memory and nowhere else —
// no castore object, no write-behind to an owner, no lookup-batch answer.
func TestUnionTierIsMemoryOnly(t *testing.T) {
	nodes := startCluster(t, "a", "b")
	for _, n := range nodes {
		defer n.close()
	}
	a := nodes["a"]
	in := testInstall(t)
	ws := testWorkloads(t, in)
	if _, err := a.svc.DebloatBatch(in, ws, BatchOptions{SkipVerify: true}); err != nil {
		t.Fatal(err)
	}
	a.svc.WaitReplication()
	fp := negativa.InstallFingerprint(in)
	detects := make([]plan.Key, len(ws))
	for i, w := range ws {
		detects[i] = negativa.DetectKey(fp, negativa.WorkloadIdentity(w, 2))
	}
	key := negativa.UnionKey(detects)
	st := memoStageOf(negativa.StageUnion)
	if !st.held(a.svc.stages, key.Hash) {
		t.Fatal("the batch's union is not in node a's memory")
	}
	for id, n := range nodes {
		for i := range memoStages {
			if kind := memoStages[i].kind; kind != "" && n.store.Has(kind, key.Hash) {
				t.Fatalf("node %s stores an object of kind %s under the union's key", id, kind)
			}
		}
		var body bytes.Buffer
		if n.svc.stages.exportRecord(st, key.Hash, &body) || body.Len() != 0 {
			t.Fatalf("node %s answers a lookup for the union", id)
		}
		if id != "a" && st.held(n.svc.stages, key.Hash) {
			t.Fatalf("node %s was sent the union", id)
		}
	}
}
