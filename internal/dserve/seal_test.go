package dserve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"negativaml/internal/cluster"
	"negativaml/internal/metrics"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// sealCase is one memoized stage's fixture: the key asked for, another
// key of the same stage, the value a record holds, the value a compute
// returns, and the hint both decode against.
type sealCase struct {
	asked, other  plan.Key
	stored, fresh any
	hint          any
}

// sealCases builds a fixture for every durable entry of memoStages. The compact
// case asks for one library under two used-symbol sets, so the record of
// the other set is bound to the same library digest.
func sealCases(t *testing.T) map[string]sealCase {
	t.Helper()
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := (WorkloadSpec{Model: "MobileNetV2", Batch: 1}).Workload(in)
	if err != nil {
		t.Fatal(err)
	}
	p, err := negativa.DetectUsage(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	fp := negativa.InstallFingerprint(in)
	var name string
	for _, n := range in.LibNames {
		if len(p.UsedFuncs[n]) > 1 {
			name = n
			break
		}
	}
	if name == "" {
		t.Fatal("no library uses two functions")
	}
	lib := in.Library(name)
	compact := func(funcs []string) (plan.Key, any) {
		ld, err := negativa.LocateAndCompactLib(lib, funcs, p.UsedKernels[name], nil)
		if err != nil {
			t.Fatal(err)
		}
		return negativa.CompactKey(negativa.LocateKey(lib, funcs, p.UsedKernels[name], nil)), ld
	}
	usedA, ldA := compact(p.UsedFuncs[name])
	usedB, ldB := compact(p.UsedFuncs[name][:1])
	if usedA == usedB {
		t.Fatal("the two used-symbol sets share a compact key")
	}
	other := &negativa.Profile{Workload: "other", RunResult: &mlruntime.Result{Digest: 9}}
	return map[string]sealCase{
		negativa.StageDetect: {
			asked: negativa.DetectKey(fp, "a"), other: negativa.DetectKey(fp, "b"),
			stored: p, fresh: other,
		},
		negativa.StageCompact: {asked: usedA, other: usedB, stored: ldB, fresh: ldA, hint: lib},
		negativa.StageVerifyRun: {
			asked: negativa.VerifyRunKey(fp, "w", 2, "a"), other: negativa.VerifyRunKey(fp, "w", 2, "b"),
			stored: &mlruntime.Result{Digest: 7}, fresh: &mlruntime.Result{Digest: 9},
		},
	}
}

// TestRecordSealedWithAnotherKeyIsNeverServed is the one binding rule on
// both read paths of every memoized stage: a record is served only under
// the hash it was sealed with. Filed under the key asked for — on disk, or
// in a peer's lookup-batch answer — a record sealed with that key is
// served without a compute, and one sealed with another key of the same
// stage is not: the node computes, the disk object is deleted, and the
// peer answer counts one peer.fallbacks.
func TestRecordSealedWithAnotherKeyIsNeverServed(t *testing.T) {
	cases := sealCases(t)
	for i := range memoStages {
		st := &memoStages[i]
		if !st.durable() {
			continue // no record to seal: TestUnionTierIsMemoryOnly
		}
		tc := cases[st.stage]
		for _, path := range []string{"disk", "peer"} {
			for _, sealedWith := range []plan.Key{tc.asked, tc.other} {
				served := sealedWith == tc.asked
				name := st.stage + "/" + path + "/sealed with another key"
				if served {
					name = st.stage + "/" + path + "/sealed with the key asked for"
				}
				t.Run(name, func(t *testing.T) {
					rec, err := st.seal(sealedWith.Hash, tc.stored)
					if err != nil {
						t.Fatal(err)
					}
					counters := metrics.NewCounterSet()
					m := NewStageMemo(NewResultCache(1<<20, nil), counters)
					batch := newBatchMemo(m)
					if path == "disk" {
						m.store = openStore(t, t.TempDir())
						if err := m.store.Put(st.kind, tc.asked.Hash, rec); err != nil {
							t.Fatal(err)
						}
					} else {
						attachAnsweringPeer(t, m, counters, rec)
						batch.PrefetchLookups(nil, []prefetchItem{{key: tc.asked, hint: tc.hint}})
					}
					ran := false
					_, src, err := batch.GetOrCompute(nil, tc.asked, tc.hint, func() (any, error) {
						ran = true
						return tc.fresh, nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if served {
						want := plan.SourceDisk
						if path == "peer" {
							want = plan.SourcePeer
						}
						if ran || src != want {
							t.Fatalf("ran=%v src=%v; want the record served from %v", ran, src, want)
						}
						return
					}
					if !ran || src != plan.SourceComputed {
						t.Fatalf("ran=%v src=%v; a record sealed with another key was served", ran, src)
					}
					if path == "disk" && m.store.Has(st.kind, tc.asked.Hash) {
						t.Fatal("the misfiled record is still on disk")
					}
					if n := counters.Get("peer.fallbacks"); path == "peer" && n != 1 {
						t.Fatalf("peer.fallbacks = %d, want 1", n)
					}
				})
			}
		}
	}
}

// attachAnsweringPeer gives m a two-node ring whose other node answers
// every lookup-batch key with rec.
func attachAnsweringPeer(t *testing.T, m *StageMemo, counters *metrics.CounterSet, rec []byte) {
	t.Helper()
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req peerBatchLookupRequest
		json.NewDecoder(r.Body).Decode(&req)
		w.Write(lookupAnswer(req.Keys, func(peerLookupRequest) []byte { return rec }))
	}))
	t.Cleanup(peer.Close)
	c := cluster.New("self", map[string]string{"peer": peer.URL}, cluster.Options{
		ReplicaSets: 2, Counters: counters, Timeout: 30 * time.Second,
	})
	t.Cleanup(c.Close)
	m.AttachCluster(c)
}
