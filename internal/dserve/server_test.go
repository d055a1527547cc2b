package dserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"negativaml/internal/elfx"
)

func postJob(t *testing.T, ts *httptest.Server, req JobRequest) jobStatus {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func pollDone(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st jobStatus
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status code %d for job %s", code, id)
		}
		if st.State == JobDone || st.State == JobFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerBatchOfFourWorkloads drives the full HTTP surface cmd/negativa-served
// exposes: submit a 4-workload batch over one install, poll to completion,
// check the union-debloated install verified against every member's digest,
// download a debloated library, and resubmit to observe cache hits.
func TestServerBatchOfFourWorkloads(t *testing.T) {
	svc := NewService(Config{Workers: 4, MaxSteps: 2})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	req := JobRequest{
		Framework: "pytorch",
		TailLibs:  6,
		Workloads: []WorkloadSpec{
			{Model: "MobileNetV2", Batch: 1},
			{Model: "MobileNetV2", Train: true, Batch: 16, Epochs: 1},
			{Model: "Transformer", Batch: 32, Device: "A100"},
			{Model: "Transformer", Train: true, Batch: 128, Epochs: 1},
		},
		MaxSteps: 2,
	}

	st := postJob(t, ts, req)
	done := pollDone(t, ts, st.ID)
	if done.State != JobDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	if done.Verified == nil || !*done.Verified {
		t.Fatal("status must report the batch verified")
	}

	// Full report: every member verified against its own digest.
	var rep jobReport
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/report", &rep); code != http.StatusOK {
		t.Fatalf("report status %d", code)
	}
	if len(rep.Workloads) != 4 {
		t.Fatalf("report has %d workloads, want 4", len(rep.Workloads))
	}
	digests := map[string]bool{}
	for _, w := range rep.Workloads {
		if !w.Verified {
			t.Errorf("workload %s not verified", w.Name)
		}
		digests[w.RefDigest] = true
	}
	if len(digests) < 2 {
		t.Error("member digests should differ across distinct workloads")
	}
	if rep.Totals.FileRedPct <= 0 || rep.Totals.Libs == 0 {
		t.Errorf("totals look empty: %+v", rep.Totals)
	}

	// Download a debloated library and confirm it is a loadable ELF image.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/libs/libtorch_cuda.so")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch library: status %d err %v", resp.StatusCode, err)
	}
	if _, err := elfx.Parse("libtorch_cuda.so", blob); err != nil {
		t.Fatalf("downloaded library is not parseable: %v", err)
	}

	// Repeated submission: profiles and per-library results are all reused;
	// the status and report must surface ≥ 1 cache hit.
	st2 := postJob(t, ts, req)
	done2 := pollDone(t, ts, st2.ID)
	if done2.State != JobDone {
		t.Fatalf("repeat job failed: %s", done2.Error)
	}
	if done2.CacheHits == nil || *done2.CacheHits < 1 {
		t.Fatal("repeated submission must report at least one cache hit")
	}
	var rep2 jobReport
	getJSON(t, ts.URL+"/v1/jobs/"+st2.ID+"/report", &rep2)
	if rep2.ProfileReuses != 4 {
		t.Errorf("profile reuses = %d, want 4", rep2.ProfileReuses)
	}
	if rep2.CacheMisses != 0 {
		t.Errorf("repeat cache misses = %d, want 0", rep2.CacheMisses)
	}

	// Listing and metrics.
	var list struct {
		Jobs []jobStatus `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 2 {
		t.Errorf("job list = %d entries, want 2", len(list.Jobs))
	}
	var m struct {
		Counters map[string]int64 `json:"counters"`
		Cache    CacheStats       `json:"cache"`
		Workers  int              `json:"workers"`
	}
	getJSON(t, ts.URL+"/v1/metrics", &m)
	if m.Cache.Hits < 1 || m.Counters["jobs.completed"] != 2 || m.Workers != 4 {
		t.Errorf("metrics = %+v %+v", m.Counters, m.Cache)
	}
}

// TestServerBackpressure exercises the in-flight cap: with MaxInFlight=1,
// a second submission while the first job is still generating its install
// must be rejected with 503 and a Retry-After polling hint.
func TestServerBackpressure(t *testing.T) {
	svc := NewService(Config{Workers: 1, MaxSteps: 2, MaxInFlight: 1})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	// A sizable install keeps the first job in flight while we resubmit.
	slow := JobRequest{
		Framework: "tensorflow",
		TailLibs:  400,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2", Train: true, Batch: 16}},
		MaxSteps:  2,
	}
	first := postJob(t, ts, slow)

	body, _ := json.Marshal(slow)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second submit while busy: status %d, want 503", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 || secs > 30 {
		t.Fatalf("503 Retry-After = %q, want whole seconds in [1, 30]", resp.Header.Get("Retry-After"))
	}
	if svc.Counters.Get("jobs.rejected_busy") != 1 {
		t.Errorf("jobs.rejected_busy = %d, want 1", svc.Counters.Get("jobs.rejected_busy"))
	}

	done := pollDone(t, ts, first.ID)
	if done.State != JobDone {
		t.Fatalf("first job: %s (%s)", done.State, done.Error)
	}
	// Capacity freed: submission works again.
	st2 := postJob(t, ts, JobRequest{
		Framework: "pytorch", TailLibs: 2, MaxSteps: 2,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2"}},
	})
	if got := pollDone(t, ts, st2.ID); got.State != JobDone {
		t.Fatalf("post-drain job: %s (%s)", got.State, got.Error)
	}
}

// TestServerRequestCaps exercises the client-controlled size limits.
func TestServerRequestCaps(t *testing.T) {
	svc := NewService(Config{Workers: 1, MaxSteps: 2})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"framework":"pytorch","tail_libs":999999,"workloads":[{"model":"MobileNetV2"}]}`); code != http.StatusBadRequest {
		t.Errorf("oversized tail_libs: status %d, want 400", code)
	}
	many, _ := json.Marshal(JobRequest{
		Framework: "pytorch", TailLibs: 2,
		Workloads: make([]WorkloadSpec, MaxJobWorkloads+1),
	})
	if code := post(string(many)); code != http.StatusBadRequest {
		t.Errorf("too many workloads: status %d, want 400", code)
	}
}

func TestServerErrorPaths(t *testing.T) {
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	// Malformed body.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// Invalid request.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(`{"framework":"caffe"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid framework: status %d, want 400", resp.StatusCode)
	}

	// Unknown job / library / premature report.
	if code := getJSON(t, ts.URL+"/v1/jobs/job-9999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/job-9999/report", nil); code != http.StatusNotFound {
		t.Errorf("unknown job report: status %d, want 404", code)
	}

	st := postJob(t, ts, JobRequest{
		Framework: "pytorch",
		TailLibs:  2,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2"}},
		MaxSteps:  2,
	})
	done := pollDone(t, ts, st.ID)
	if done.State != JobDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%s/libs/libno_such.so", ts.URL, st.ID), nil); code != http.StatusNotFound {
		t.Errorf("unknown library: status %d, want 404", code)
	}
}
