package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"negativaml/internal/cluster"
	"negativaml/internal/dserve"
)

// newFrontDoor stands up a real dserve service behind a gateway handler.
func newFrontDoor(t *testing.T, cfg Config, tenants []TenantConfig) (*httptest.Server, *Gateway, *dserve.Service) {
	t.Helper()
	ts, g, svc, _ := newGatedFrontDoor(t, cfg, tenants)
	return ts, g, svc
}

// gatedBackend keeps the blocker (recognised by heavyReq's tail width)
// held in the backend until released, while the gateway counts it
// dispatched, so tests that pin the only dispatch slot with a blocker hold
// it deterministically instead of racing the backend's speed.
type gatedBackend struct {
	*dserve.Service
	release chan struct{}
}

func (b *gatedBackend) Release(id string) bool {
	if j := b.Service.Job(id); j != nil && j.Req.TailLibs == heavyTailLibs {
		go func() {
			<-b.release
			b.Service.Release(id)
		}()
		return true
	}
	return b.Service.Release(id)
}

// newGatedFrontDoor is newFrontDoor plus a release func that lets a gated
// heavyReq blocker proceed. Cleanup releases too, so a test that fails
// before releasing still shuts down.
func newGatedFrontDoor(t *testing.T, cfg Config, tenants []TenantConfig) (*httptest.Server, *Gateway, *dserve.Service, func()) {
	t.Helper()
	svc := dserve.NewService(dserve.Config{Workers: 4, MaxSteps: 2})
	gb := &gatedBackend{Service: svc, release: make(chan struct{})}
	g, err := New(gb, cfg, tenants)
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	release := sync.OnceFunc(func() { close(gb.release) })
	ts := httptest.NewServer(NewHandler(g, dserve.NewHandler(svc)))
	t.Cleanup(func() { release(); ts.Close(); g.Close(); svc.Close() })
	return ts, g, svc, release
}

func twoTenants() []TenantConfig {
	return []TenantConfig{
		{Name: "acme", Keys: []string{"key-acme"}},
		{Name: "beta", Keys: []string{"key-beta"}, Lane: LaneBulk},
	}
}

// heavyTailLibs marks heavyReq batches; gatedBackend keys on it.
const heavyTailLibs = 24

// heavyReq is an expensive cold batch (wide tail, deep steps, training
// epochs) used as a dispatch-slot blocker. Tests that need it to still be
// in flight while other submissions land should hold it with a gated
// front door rather than racing the backend's speed.
func heavyReq() dserve.JobRequest {
	return dserve.JobRequest{
		Framework: "pytorch", TailLibs: heavyTailLibs, MaxSteps: 6,
		Workloads: []dserve.WorkloadSpec{
			{Model: "MobileNetV2", Batch: 1},
			{Model: "Transformer", Batch: 32},
			{Model: "MobileNetV2", Train: true, Batch: 16, Epochs: 8},
			{Model: "Transformer", Train: true, Batch: 128, Epochs: 8},
			{Model: "MobileNetV2", Train: true, Batch: 64, Epochs: 8},
			{Model: "Transformer", Train: true, Batch: 256, Epochs: 8},
		},
	}
}

// doJSON issues an authenticated request and decodes the JSON response.
func doJSON(t *testing.T, method, url, key string, body any, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, raw, err)
		}
	}
	return resp
}

func pollGwDone(t *testing.T, base, key, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var st JobView
		resp := doJSON(t, "GET", base+"/v1/jobs/"+id, key, nil, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s: %d", id, resp.StatusCode)
		}
		switch st.State {
		case dserve.JobDone, dserve.JobFailed, dserve.JobCancelled:
			return st
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("non-terminal status for %s must carry Retry-After", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

func TestAuthRequired(t *testing.T) {
	ts, _, _ := newFrontDoor(t, Config{}, twoTenants())

	for _, key := range []string{"", "wrong-key"} {
		var st JobView
		req := loadRequest(0, 6)
		resp := doJSON(t, "POST", ts.URL+"/v1/jobs", key, req, &st)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("key %q: status %d, want 401", key, resp.StatusCode)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Fatal("401 must carry WWW-Authenticate")
		}
	}

	// X-API-Key is accepted as an alternative to the Bearer header.
	body, _ := json.Marshal(loadRequest(0, 6))
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("X-API-Key", "key-acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("X-API-Key submit: status %d, want 202", resp.StatusCode)
	}

	// Peer routes are node-to-node: a gateway without PeerPassthrough (the
	// non-clustered default) refuses them outright, even with a valid key —
	// tenants must never reach the backend's peer surface.
	for _, key := range []string{"", "key-acme"} {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/peer/lookup-batch", strings.NewReader("{}"))
		if key != "" {
			req.Header.Set("Authorization", "Bearer "+key)
		}
		presp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		presp.Body.Close()
		if presp.StatusCode != http.StatusNotFound {
			t.Fatalf("peer route with key %q: status %d, want 404", key, presp.StatusCode)
		}
	}
}

// TestPeerPassthrough: a clustered gateway forwards /v1/peer/* to the
// backend without tenant auth (peers carry the cluster secret instead of
// an API key) — the backend's own peer handling then answers.
func TestPeerPassthrough(t *testing.T) {
	ts, _, svc := newFrontDoor(t, Config{PeerPassthrough: true}, twoTenants())
	svc.AttachCluster(cluster.New("solo", nil, cluster.Options{}))

	presp, err := http.Post(ts.URL+"/v1/peer/lookup-batch", "application/json",
		strings.NewReader(`{"keys":[{"stage":"compact","hash":"nope"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded peer lookup: status %d, want 200", presp.StatusCode)
	}
	var lr struct {
		Results []struct {
			Found bool `json:"found"`
		} `json:"results"`
	}
	if err := json.NewDecoder(presp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Results) != 1 || lr.Results[0].Found {
		t.Fatalf("forwarded lookup answered %+v, want one found=false result", lr.Results)
	}
}

// TestSubmitStreamReport is the happy-path e2e: submit, watch per-stage
// progress over SSE through the terminal event, then fetch the report via
// the passed-through route — all under one tenant key; the job ID is the
// backend's.
func TestSubmitStreamReport(t *testing.T) {
	ts, _, _ := newFrontDoor(t, Config{}, twoTenants())

	var st JobView
	resp := doJSON(t, "POST", ts.URL+"/v1/jobs", "key-acme", loadRequest(1, 8), &st)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if !strings.HasPrefix(st.ID, "job-") || st.Tenant != "acme" || st.Lane != LaneInteractive {
		t.Fatalf("submit view = %+v", st)
	}

	// SSE: stages stream with monotone progress and end terminally.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	req.Header.Set("Authorization", "Bearer key-acme")
	req.Header.Set("Accept", "text/event-stream")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("SSE content type = %q", ct)
	}
	var stages, lastDone int
	terminal := false
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev dserve.JobEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad SSE line %q: %v", line, err)
		}
		if ev.Type == dserve.EventStage {
			stages++
			if ev.StagesDone < lastDone {
				t.Fatalf("progress went backwards: %d after %d", ev.StagesDone, lastDone)
			}
			lastDone = ev.StagesDone
		}
		if ev.Terminal {
			terminal = true
			if ev.State != dserve.JobDone {
				t.Fatalf("terminal state %s: %s", ev.State, ev.Error)
			}
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !terminal || stages == 0 {
		t.Fatalf("SSE saw %d stages, terminal=%v", stages, terminal)
	}

	final := pollGwDone(t, ts.URL, "key-acme", st.ID)
	if final.Progress != 1 || final.StagesDone != final.StagesTotal || final.StagesTotal == 0 {
		t.Fatalf("final status = %+v", final)
	}

	var report map[string]any
	rresp := doJSON(t, "GET", ts.URL+"/v1/jobs/"+st.ID+"/report", "key-acme", nil, &report)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d", rresp.StatusCode)
	}
	if _, ok := report["libs"]; !ok {
		t.Fatalf("report missing libs: %v", report)
	}

	// The other tenant sees none of it.
	oresp := doJSON(t, "GET", ts.URL+"/v1/jobs/"+st.ID, "key-beta", nil, nil)
	if oresp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant status read: %d, want 404", oresp.StatusCode)
	}
}

// TestCoalescingAcrossTenants: identical concurrent submissions from two
// tenants share one backend execution; both riders complete with results.
func TestCoalescingAcrossTenants(t *testing.T) {
	ts, g, svc, release := newGatedFrontDoor(t, Config{DispatchSlots: 1}, twoTenants())

	// A gated blocker pins the dispatch slot so the two identical requests
	// demonstrably coalesce while queued.
	var blocker JobView
	doJSON(t, "POST", ts.URL+"/v1/jobs", "key-acme", heavyReq(), &blocker)

	var a, b JobView
	doJSON(t, "POST", ts.URL+"/v1/jobs", "key-acme", loadRequest(0, 6), &a)
	resp := doJSON(t, "POST", ts.URL+"/v1/jobs", "key-beta", loadRequest(0, 6), &b)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("follower submit: %d", resp.StatusCode)
	}
	if !b.Coalesced {
		t.Fatal("identical queued request must coalesce")
	}
	release()

	fa := pollGwDone(t, ts.URL, "key-acme", a.ID)
	fb := pollGwDone(t, ts.URL, "key-beta", b.ID)
	if fa.State != dserve.JobDone || fb.State != dserve.JobDone {
		t.Fatalf("rider states: %s / %s", fa.State, fb.State)
	}
	if fa.ID != fb.ID {
		t.Fatalf("riders ran different backend jobs: %s vs %s", fa.ID, fb.ID)
	}
	if got := g.Counters.Get("gateway.coalesced"); got != 1 {
		t.Fatalf("gateway.coalesced = %d, want 1", got)
	}
	// Exactly two backend jobs ran (blocker + the shared unit).
	if got := svc.Counters.Get("jobs.submitted"); got != 2 {
		t.Fatalf("backend saw %d submissions, want 2", got)
	}

	// The merged metrics payload surfaces the gateway section.
	var m map[string]any
	doJSON(t, "GET", ts.URL+"/v1/metrics", "key-acme", nil, &m)
	gw, ok := m["gateway"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing gateway section: %v", m)
	}
	counters, _ := gw["counters"].(map[string]any)
	if counters["gateway.coalesced"] != 1.0 {
		t.Fatalf("metrics gateway.coalesced = %v", counters["gateway.coalesced"])
	}

	// The payload is scoped to the requesting tenant: acme sees its own
	// counters and accounting but nothing of beta's, even though beta just
	// rode the same unit.
	if n, _ := counters["tenant.acme.admitted"].(float64); n < 1 {
		t.Fatalf("metrics tenant.acme.admitted = %v", counters["tenant.acme.admitted"])
	}
	for k := range counters {
		if strings.HasPrefix(k, "tenant.beta.") {
			t.Fatalf("metrics for acme leak beta counter %q", k)
		}
	}
	tenantsOut, _ := gw["tenants"].(map[string]any)
	if _, ok := tenantsOut["acme"]; !ok {
		t.Fatalf("metrics tenants section missing the requester: %v", tenantsOut)
	}
	if _, ok := tenantsOut["beta"]; ok {
		t.Fatal("metrics for acme leak beta's accounting")
	}
}

// TestShedOverQuota: the second concurrent batch of a MaxConcurrent=1
// tenant is shed with 429 + Retry-After while another tenant stays
// admissible; after the first batch finishes the tenant is admitted again.
func TestShedOverQuota(t *testing.T) {
	tenants := twoTenants()
	tenants[0].Quota = QuotaConfig{MaxConcurrent: 1}
	ts, _, _, release := newGatedFrontDoor(t, Config{}, tenants)

	// The gated blocker stays in flight until released, so the over-quota
	// submission below is guaranteed to land while the tenant is at cap.
	var first JobView
	doJSON(t, "POST", ts.URL+"/v1/jobs", "key-acme", heavyReq(), &first)

	var shed struct {
		Error      string `json:"error"`
		Reason     string `json:"reason"`
		RetryAfter int    `json:"retry_after"`
	}
	resp := doJSON(t, "POST", ts.URL+"/v1/jobs", "key-acme", loadRequest(1, 6), &shed)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" || shed.Reason != ShedConcurrency || shed.RetryAfter < 1 {
		t.Fatalf("shed response: header=%q body=%+v", resp.Header.Get("Retry-After"), shed)
	}

	// The other tenant is unaffected.
	oresp := doJSON(t, "POST", ts.URL+"/v1/jobs", "key-beta", loadRequest(1, 6), nil)
	if oresp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant: status %d", oresp.StatusCode)
	}

	release()
	pollGwDone(t, ts.URL, "key-acme", first.ID)
	rresp := doJSON(t, "POST", ts.URL+"/v1/jobs", "key-acme", loadRequest(2, 6), nil)
	if rresp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-completion submit: status %d, want 202", rresp.StatusCode)
	}
}

// TestResultBytesQuota: a tenant whose retained results exceed its byte
// quota sheds with reason result_bytes until eviction frees the charge.
func TestResultBytesQuota(t *testing.T) {
	tenants := twoTenants()
	tenants[0].Quota = QuotaConfig{MaxResultBytes: 1}
	ts, _, _ := newFrontDoor(t, Config{}, tenants)

	var first JobView
	doJSON(t, "POST", ts.URL+"/v1/jobs", "key-acme", loadRequest(0, 6), &first)
	if st := pollGwDone(t, ts.URL, "key-acme", first.ID); st.State != dserve.JobDone {
		t.Fatalf("first job: %s (%s)", st.State, st.Error)
	}

	var shed struct {
		Reason string `json:"reason"`
	}
	resp := doJSON(t, "POST", ts.URL+"/v1/jobs", "key-acme", loadRequest(1, 6), &shed)
	if resp.StatusCode != http.StatusTooManyRequests || shed.Reason != ShedResultBytes {
		t.Fatalf("want result_bytes shed, got %d %+v", resp.StatusCode, shed)
	}
}

// TestBackendFullShedsAtAdmission: held jobs count toward the backend's
// MaxInFlight, so a full backend sheds 429 queue_full with Retry-After at
// admission — never after a 202.
func TestBackendFullShedsAtAdmission(t *testing.T) {
	svc := dserve.NewService(dserve.Config{Workers: 2, MaxSteps: 2, MaxInFlight: 1})
	gb := &gatedBackend{Service: svc, release: make(chan struct{})}
	g, err := New(gb, Config{}, twoTenants())
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	release := sync.OnceFunc(func() { close(gb.release) })
	ts := httptest.NewServer(NewHandler(g, dserve.NewHandler(svc)))
	defer func() { release(); ts.Close(); g.Close(); svc.Close() }()

	var first JobView
	if resp := doJSON(t, "POST", ts.URL+"/v1/jobs", "key-acme", heavyReq(), &first); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	var shed struct {
		Reason     string `json:"reason"`
		RetryAfter int    `json:"retry_after"`
	}
	resp := doJSON(t, "POST", ts.URL+"/v1/jobs", "key-beta", loadRequest(0, 6), &shed)
	if resp.StatusCode != http.StatusTooManyRequests || shed.Reason != ShedQueueFull || shed.RetryAfter < 1 {
		t.Fatalf("submit to a full backend: status %d, body %+v; want 429 queue_full", resp.StatusCode, shed)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	release()
	pollGwDone(t, ts.URL, "key-acme", first.ID)
	if resp := doJSON(t, "POST", ts.URL+"/v1/jobs", "key-beta", loadRequest(0, 6), nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after the backend drained: status %d, want 202", resp.StatusCode)
	}
}

// TestEvictedJobIs404: once the backend's MaxJobs pruning evicts a job,
// status, events, report and library fetches all answer 404, and the
// tenant's result-byte charge for it is released.
func TestEvictedJobIs404(t *testing.T) {
	svc := dserve.NewService(dserve.Config{Workers: 4, MaxSteps: 2, MaxJobs: 1})
	g, err := New(svc, Config{}, twoTenants())
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(g, dserve.NewHandler(svc)))
	defer func() { ts.Close(); g.Close(); svc.Close() }()

	var a, b JobView
	doJSON(t, "POST", ts.URL+"/v1/jobs", "key-acme", loadRequest(0, 6), &a)
	if st := pollGwDone(t, ts.URL, "key-acme", a.ID); st.State != dserve.JobDone {
		t.Fatalf("first job: %s (%s)", st.State, st.Error)
	}
	doJSON(t, "POST", ts.URL+"/v1/jobs", "key-acme", loadRequest(1, 6), &b)
	if st := pollGwDone(t, ts.URL, "key-acme", b.ID); st.State != dserve.JobDone {
		t.Fatalf("second job: %s (%s)", st.State, st.Error)
	}
	// The second completion pushed the first out of the backend (MaxJobs=1).
	waitFor(t, "eviction", func() bool { return g.Counters.Get("gateway.evicted") == 1 })
	var report struct {
		Libs []struct {
			Name string `json:"name"`
		} `json:"libs"`
	}
	if resp := doJSON(t, "GET", ts.URL+"/v1/jobs/"+b.ID+"/report", "key-acme", nil, &report); resp.StatusCode != http.StatusOK || len(report.Libs) == 0 {
		t.Fatalf("retained job's report: status %d, %d libs", resp.StatusCode, len(report.Libs))
	}
	for _, path := range []string{"", "/events", "/report", "/libs/" + report.Libs[0].Name} {
		if resp := doJSON(t, "GET", ts.URL+"/v1/jobs/"+a.ID+path, "key-acme", nil, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted job GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	g.mu.Lock()
	charged, kept := g.tenants["acme"].resultBytes, g.jobs[b.ID].bytes
	g.mu.Unlock()
	if kept == 0 || charged != kept {
		t.Fatalf("acme charged %d result bytes, want the retained job's %d", charged, kept)
	}
}

// TestBaseTranslation: incremental re-submits name the base by its job ID,
// which the tenant must be able to see; cross-tenant bases are invisible.
func TestBaseTranslation(t *testing.T) {
	ts, _, _ := newFrontDoor(t, Config{}, twoTenants())

	var base JobView
	doJSON(t, "POST", ts.URL+"/v1/jobs", "key-acme", loadRequest(0, 8), &base)
	if st := pollGwDone(t, ts.URL, "key-acme", base.ID); st.State != dserve.JobDone {
		t.Fatalf("base: %s (%s)", st.State, st.Error)
	}

	inc := loadRequest(1, 8)
	inc.Base = base.ID
	var incSt JobView
	resp := doJSON(t, "POST", ts.URL+"/v1/jobs", "key-acme", inc, &incSt)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("incremental submit: status %d", resp.StatusCode)
	}
	if incSt.Base == "" || strings.HasPrefix(incSt.Base, "gw-") {
		t.Fatalf("echoed base must be the resolved backend ID, got %q", incSt.Base)
	}
	if st := pollGwDone(t, ts.URL, "key-acme", incSt.ID); st.State != dserve.JobDone {
		t.Fatalf("incremental: %s (%s)", st.State, st.Error)
	}

	// Another tenant cannot use acme's job as a base.
	inc2 := loadRequest(1, 8)
	inc2.Base = base.ID
	bresp := doJSON(t, "POST", ts.URL+"/v1/jobs", "key-beta", inc2, nil)
	if bresp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant base: status %d, want 404", bresp.StatusCode)
	}
}

// TestLaneAndCancelSemantics: the X-Lane header overrides the tenant's
// default lane, and DELETE on a finished job is refused with 409.
func TestLaneAndCancelSemantics(t *testing.T) {
	ts, _, _ := newFrontDoor(t, Config{}, twoTenants())

	body, _ := json.Marshal(loadRequest(0, 6))
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer key-beta") // default lane: bulk
	req.Header.Set("X-Lane", LaneInteractive)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobView
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Lane != LaneInteractive {
		t.Fatalf("X-Lane override ignored: lane %q", st.Lane)
	}

	if fin := pollGwDone(t, ts.URL, "key-beta", st.ID); fin.State != dserve.JobDone {
		t.Fatalf("job: %s (%s)", fin.State, fin.Error)
	}
	dresp := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+st.ID, "key-beta", nil, nil)
	if dresp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel done job: status %d, want 409", dresp.StatusCode)
	}
	dresp = doJSON(t, "DELETE", ts.URL+"/v1/jobs/no-such", "key-beta", nil, nil)
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown job: status %d, want 404", dresp.StatusCode)
	}
}

// TestLongPollEvents: the long-poll envelope works through the gateway,
// with resumption by seq cursor.
func TestLongPollEvents(t *testing.T) {
	ts, _, _ := newFrontDoor(t, Config{}, twoTenants())

	var st JobView
	doJSON(t, "POST", ts.URL+"/v1/jobs", "key-acme", loadRequest(2, 6), &st)

	after, seen := -1, 0
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var body struct {
			Events []dserve.JobEvent `json:"events"`
			Done   bool              `json:"done"`
		}
		url := fmt.Sprintf("%s/v1/jobs/%s/events?after=%d&timeout_ms=1000", ts.URL, st.ID, after)
		resp := doJSON(t, "GET", url, "key-acme", nil, &body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("long-poll: status %d", resp.StatusCode)
		}
		for _, ev := range body.Events {
			if ev.Seq <= after {
				t.Fatalf("cursor went backwards: seq %d after %d", ev.Seq, after)
			}
			after = ev.Seq
			seen++
		}
		if body.Done {
			if seen < 2 {
				t.Fatalf("stream closed after only %d events", seen)
			}
			return
		}
	}
	t.Fatal("long-poll never reached the terminal event")
}
