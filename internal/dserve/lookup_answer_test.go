package dserve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/metrics"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// TestLookupAnswerBounded: a peer that answers lookup-batch with an entry
// for the key asked whose payload never ends costs the requester one
// failed read, of at most the answer's bound, not memory without bound:
// the payload is read as it arrives, up to the length its header claims
// (just under the bound), and then fails its sum. Nothing is planted.
func TestLookupAnswerBounded(t *testing.T) {
	key := negativa.DetectKey("fp", "w")
	claim := castore.AppendEntry(nil, kindProfile, key.Hash, castore.NewFrame(nil))
	binary.LittleEndian.PutUint64(claim[len(claim)-40:], uint64(maxLookupAnswerBytes-len(claim)))
	var served atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Write(claim)
		chunk := bytes.Repeat([]byte{0x5a}, 32<<10)
		for {
			if _, err := w.Write(chunk); err != nil {
				return // the requester hung up
			}
		}
	}))
	defer peer.Close()
	counters := metrics.NewCounterSet()
	m := NewStageMemo(NewResultCache(1<<20, nil), counters)
	c := cluster.New("self", map[string]string{"peer": peer.URL}, cluster.Options{
		ReplicaSets: 2, Counters: counters, Timeout: 30 * time.Second,
	})
	defer c.Close()
	m.AttachCluster(c)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	newBatchMemo(m).PrefetchLookups(nil, []prefetchItem{{key: key}})
	runtime.ReadMemStats(&after)
	// The payload grows by doubling from 64 KiB as its bytes arrive, so
	// its copies add up to twice the bound; the rest is the transport's.
	if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(2*maxLookupAnswerBytes+4<<20); grew > bound {
		t.Fatalf("an endless answer allocated %d bytes; the bound is %d", grew, bound)
	}
	if n := served.Load(); n != 1 {
		t.Fatalf("the peer was asked %d times, want once", n)
	}
	for name, want := range map[string]int64{
		"peer.round_trips":  1,
		"peer.fallbacks":    1,
		"peer.batch_failed": 1,
		"peer.hits":         0,
	} {
		if got := counters.Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if _, ok := m.profiles.get(key.Hash); ok {
		t.Fatal("a failed answer planted a value")
	}
}

// FuzzLookupBatchAnswer feeds the requester's reader of a lookup-batch
// answer arbitrary bodies, the input a peer controls, for three keys
// asked. It must not panic; it must allocate as the bytes arrive (the
// name and the first 64 KiB of a payload ahead of them at most), never
// near the answer's bound; and every record it yields must be, byte for
// byte, the payload of the body's entry named for that key, with the sum
// its header carries — checked by parsing the body again by the
// documented layout (docs/API.md), not by castore's reader.
func FuzzLookupBatchAnswer(f *testing.F) {
	items := []prefetchItem{
		{key: negativa.DetectKey("fp", "w")},
		{key: plan.Key{Stage: negativa.StageCompact, Hash: strings.Repeat("c0", 32)}},
		{key: plan.Key{Stage: negativa.StageVerifyRun, Hash: strings.Repeat("e1", 32)}},
	}
	entry := func(i int, rec string) []byte {
		return castore.AppendEntry(nil, memoStageOf(items[i].key.Stage).kind, items[i].key.Hash, castore.NewFrame([]byte(rec)))
	}
	whole := append(append(entry(0, "a profile"), entry(1, "a record")...), entry(2, "a run")...)
	f.Add(whole)
	f.Add([]byte{})
	f.Add(whole[:len(whole)-3])
	f.Add(append(entry(2, "a run"), entry(0, "a profile")...))     // out of order
	f.Add(append(entry(0, "a profile"), entry(0, "a profile")...)) // repeated
	f.Add(castore.AppendEntry(nil, kindProfile, strings.Repeat("0", 64), castore.NewFrame([]byte("unasked"))))
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-1] ^= 1
	f.Add(flipped)
	claim := entry(1, "")
	binary.LittleEndian.PutUint64(claim[len(claim)-40:], maxLookupAnswerBytes-1000) // inside the bound, 1 000 bytes short
	f.Add(claim)
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, err := readLookupAnswer(bytes.NewReader(body), items)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 192<<10+4*uint64(len(body)) {
			t.Fatalf("a %d-byte body allocated %d bytes", len(body), grew)
		}
		if err != nil {
			if recs != nil {
				t.Fatal("a failed answer yielded records")
			}
			return
		}
		named := layoutEntries(body)
		for i, f := range recs {
			rec := f.Payload()
			if rec == nil {
				continue
			}
			want, ok := named[memoStageOf(items[i].key.Stage).kind+"/"+items[i].key.Hash]
			if !ok || !bytes.Equal(rec, want.payload) {
				t.Fatalf("key %d yielded %q, not the payload of its entry", i, rec)
			}
			if sha256.Sum256(rec) != want.sum {
				t.Fatalf("key %d yielded a record that fails its entry's sum", i)
			}
		}
	})
}

// layoutEntry is one entry of a body parsed by the documented layout.
type layoutEntry struct {
	payload []byte
	sum     [32]byte
}

// layoutEntries parses a multi-object body by the documented layout alone
// — u16 name length, name, 48-byte header (magic, version, flags, u64
// length, 32-byte sum), payload — up to the first entry that does not
// fit, keeping each name's first entry.
func layoutEntries(body []byte) map[string]layoutEntry {
	out := map[string]layoutEntry{}
	for len(body) >= 2 {
		n := int(binary.LittleEndian.Uint16(body))
		if len(body) < 2+n+48 {
			break
		}
		name, hdr := string(body[2:2+n]), body[2+n:2+n+48]
		length := binary.LittleEndian.Uint64(hdr[8:16])
		rest := body[2+n+48:]
		if length > uint64(len(rest)) {
			break
		}
		if _, dup := out[name]; !dup {
			out[name] = layoutEntry{rest[:length], [32]byte(hdr[16:48])}
		}
		body = rest[length:]
	}
	return out
}

// TestTamperedReplicaAnswers: on a 3-node ring, the first replica a
// peer-warm batch asks answers tampered, three ways, and the batch still
// serves exactly the images a node alone serves:
//
//   - a flipped record byte fails the entry's sum, so the whole answer
//     fails and the set's next replica answers: nothing computes;
//   - a record sealed with another key reads whole but does not open
//     under the key asked: each such record is a peer.fallbacks, and its
//     stage computes locally;
//   - an entry for a key not asked fails the whole answer, and the next
//     replica answers: nothing computes.
func TestTamperedReplicaAnswers(t *testing.T) {
	req := JobRequest{
		Framework: "pytorch", TailLibs: 6, MaxSteps: 2,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}, {Model: "Transformer", Batch: 32}},
	}
	runJob := func(svc *Service) *BatchResult {
		t.Helper()
		job, err := svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		j, _ := waitJob(svc, job.ID, waitTimeout)
		if j.State != JobDone || !j.Result.AllVerified() {
			t.Fatalf("the batch did not complete verified (%s: %s)", j.State, j.Err)
		}
		svc.WaitReplication()
		return j.Result
	}
	solo := NewService(Config{Workers: 4, MaxSteps: 2})
	defer solo.Close()
	want := runJob(solo).DebloatedLibs()

	frame := func(entries []answerEntry) []byte {
		var body []byte
		for _, e := range entries {
			kind, key, _ := strings.Cut(e.name, "/")
			body = castore.AppendEntry(body, kind, key, castore.NewFrame(e.rec))
		}
		return body
	}
	for _, tc := range []struct {
		name string
		// tamper frames one answer's entries, tampered; it returns the
		// body and how many records it sealed with another key.
		tamper       func(entries []answerEntry) ([]byte, int)
		wantComputed bool
	}{
		{"flipped byte", func(entries []answerEntry) ([]byte, int) {
			body := frame(entries)
			body[len(body)-1] ^= 1 // after the sum was taken
			return body, 0
		}, false},
		{"sealed with another key", func(entries []answerEntry) ([]byte, int) {
			for _, e := range entries {
				e.rec[0] ^= 1 // the seal's first byte: another stage hash
			}
			return frame(entries), len(entries)
		}, true},
		{"unasked key", func(entries []answerEntry) ([]byte, int) {
			return frame(append(entries, answerEntry{kindProfile + "/" + strings.Repeat("0", 64), []byte("unasked")})), 0
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tampered, resealed atomic.Int64
			var armed atomic.Bool // b's batch is running
			answered := make(chan struct{})
			var once sync.Once
			nodes := startClusterCfg(t, nil, func(id string, h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if !armed.Load() || !strings.HasSuffix(r.URL.Path, "/lookup-batch") || id == "b" {
						h.ServeHTTP(w, r)
						return
					}
					if id == "c" {
						// c answers after a, so a's answer is always the
						// one the requester reads first.
						select {
						case <-answered:
						case <-time.After(2 * time.Second):
						}
						h.ServeHTTP(w, r)
						return
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, r)
					body := rec.Body.Bytes()
					if entries := readAnswer(t, bytes.NewReader(body)); len(entries) > 0 {
						var n int
						body, n = tc.tamper(entries)
						tampered.Add(1)
						resealed.Add(int64(n))
					}
					w.Write(body)
					once.Do(func() { close(answered) })
				})
			}, "a", "b", "c")
			defer func() {
				for _, n := range nodes {
					n.close()
				}
			}()
			runJob(nodes["a"].svc)
			for _, n := range nodes {
				n.svc.WaitReplication()
			}
			b := nodes["b"]
			armed.Store(true)
			got := runJob(b.svc).DebloatedLibs()
			if len(got) != len(want) {
				t.Fatalf("%d libraries served, %d alone", len(got), len(want))
			}
			for lib, img := range got {
				if !bytes.Equal(img, want[lib]) {
					t.Fatalf("library %s differs from the one a node alone serves", lib)
				}
			}
			if tampered.Load() == 0 {
				t.Fatal("no answer of a was tampered: the test asked nothing of it")
			}
			fallbacks, computed := b.svc.Counters.Get("peer.fallbacks"), b.svc.Counters.Get("analysis.computed")
			t.Logf("tampered %d answers, resealed %d records; b: fallbacks %d, computed %d, hits %d",
				tampered.Load(), resealed.Load(), fallbacks, computed, b.svc.Counters.Get("peer.hits"))
			if n := b.svc.Counters.Get("peer.batch_failed"); n != 0 {
				t.Errorf("peer.batch_failed = %d: the next replica did not answer", n)
			}
			if tc.wantComputed {
				if fallbacks != resealed.Load() {
					t.Errorf("peer.fallbacks = %d for %d resealed records", fallbacks, resealed.Load())
				}
				if b.svc.Counters.Get("stage.detect.misses")+b.svc.Counters.Get("stage.compact.misses")+
					b.svc.Counters.Get("stage.verifyrun.misses") == 0 {
					t.Error("no stage computed after records that do not open")
				}
				return
			}
			if fallbacks == 0 {
				t.Error("a's failed answers counted no fallback")
			}
			if computed != 0 {
				t.Errorf("analysis.computed = %d; the next replica answers every key", computed)
			}
		})
	}
}
