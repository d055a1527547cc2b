package dserve

import (
	"bytes"
	"io"
	"sync/atomic"
	"testing"

	"negativaml/internal/castore"
	"negativaml/internal/negativa"
)

// TestWriteBehindFramesOnce: a computed record queued for two owners and
// stored locally is framed once — its bytes hashed once on this node — and
// both queues and the store carry that one frame. A record a peer answered
// is not framed at all: it is stored under the sum its read checked.
func TestWriteBehindFramesOnce(t *testing.T) {
	var framed atomic.Int64
	defer func(f func([]byte) castore.Frame) { frameRecord = f }(frameRecord)
	frameRecord = func(rec []byte) castore.Frame {
		framed.Add(1)
		return castore.NewFrame(rec)
	}
	st := openStore(t, t.TempDir())
	svc := NewService(Config{Store: st})
	defer svc.Close()
	p := testDetectProfile(t)
	ms := memoStageOf(negativa.StageDetect)

	computed := negativa.DetectKey("fp", "computed").Hash
	svc.writeBehind(ms, computed, p, nil, []string{"b", "c"})
	svc.WaitReplication()
	if n := framed.Load(); n != 1 {
		t.Fatalf("a record for the store and two owners was framed %d times, want 1", n)
	}
	stored, ok := st.Get(ms.kind, computed) // Get checks the header's sum
	if !ok {
		t.Fatal("the computed record was not stored")
	}
	for _, peer := range []string{"b", "c"} {
		q := svc.writeBack[peer]
		if q == nil || q.n != 1 {
			t.Fatalf("owner %s's queue = %+v, want one entry", peer, q)
		}
		e := castore.NewEntryReader(bytes.NewReader(q.body), int64(len(q.body)))
		kind, key, err := e.Next()
		if err != nil || kind != ms.kind || key != computed {
			t.Fatalf("owner %s's entry is %s/%s (%v), want %s/%s", peer, kind, key, err, ms.kind, computed)
		}
		f, err := e.Frame()
		if err != nil || !bytes.Equal(f.Payload(), stored) {
			t.Fatalf("owner %s's entry does not carry the stored record (%v)", peer, err)
		}
		if _, _, err := e.Next(); err != io.EOF {
			t.Fatalf("owner %s's queue holds more than the record: %v", peer, err)
		}
	}

	answered := negativa.DetectKey("fp", "answered").Hash
	rec, err := ms.seal(answered, p)
	if err != nil {
		t.Fatal(err)
	}
	body := castore.AppendEntry(nil, ms.kind, answered, castore.NewFrame(rec))
	e := castore.NewEntryReader(bytes.NewReader(body), int64(len(body)))
	if _, _, err := e.Next(); err != nil {
		t.Fatal(err)
	}
	f, err := e.Frame()
	if err != nil {
		t.Fatal(err)
	}
	svc.writeBehind(ms, answered, p, &f, nil)
	svc.WaitReplication()
	if n := framed.Load(); n != 1 {
		t.Fatalf("a peer's checked record was framed again (%d frames in all)", n)
	}
	if got, ok := st.Get(ms.kind, answered); !ok || !bytes.Equal(got, rec) {
		t.Fatal("the peer's record was not stored as received")
	}
}
