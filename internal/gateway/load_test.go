package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"negativaml/internal/dserve"
	"negativaml/internal/metrics"
)

// The storm's fixed shape. Three request digests shared by every
// submission are the duplicate pressure coalescing must absorb; every
// tenth submission is garbage that must be refused with a 4xx and never
// admitted.
const (
	loadMaxSteps     = 2
	loadTailLibs     = 8
	loadDistinct     = 3
	loadGarbageEvery = 10
	loadJobTimeout   = 3 * time.Minute
)

// loadLanes rotates an X-Lane header across submissions ("" leaves the
// tenant's default lane).
var loadLanes = []string{"", LaneInteractive, LaneBulk}

// loadPool is the workload list request variants prefix.
var loadPool = []dserve.WorkloadSpec{
	{Model: "MobileNetV2", Batch: 1},
	{Model: "Transformer", Batch: 8},
	{Model: "MobileNetV2", Train: true, Batch: 4, Epochs: 1},
	{Model: "Transformer", Train: true, Batch: 16, Epochs: 1},
}

// loadRequest returns variant v of the legitimate request pool: the first
// 1+(v mod len(pool)) workloads of the shared list, so distinct variants
// are workload subsets/supersets of each other while equal variants are
// byte-identical (and therefore coalescible).
func loadRequest(v, tailLibs int) dserve.JobRequest {
	return dserve.JobRequest{
		Framework: "pytorch",
		TailLibs:  tailLibs,
		MaxSteps:  loadMaxSteps,
		Workloads: loadPool[:1+v%len(loadPool)],
	}
}

// loadOutcome is what became of one submission.
type loadOutcome int

const (
	loadCompleted  loadOutcome = iota // 202, then a done terminal event
	loadFailed                        // 202, then failed, cancelled or no terminal event in time
	loadShed                          // 429 with a numeric Retry-After
	loadShedNoHint                    // 429 without one
	loadRejected                      // a garbage submission refused with 4xx
	loadUnexpected                    // anything else, transport errors included
	numLoadOutcomes
)

// loadReport counts a storm's submissions by outcome and keeps the
// completed jobs' submit-to-terminal times in milliseconds.
type loadReport struct {
	n     [numLoadOutcomes]int
	jobMS []float64
}

// runLoad pushes submits submissions through conc concurrent clients,
// rotating keys and lanes, and follows every accepted job to its terminal
// event over the long-poll stream.
func runLoad(t *testing.T, baseURL string, keys []string, submits, conc int, garbage bool) *loadReport {
	t.Helper()
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		rep loadReport
	)
	next := make(chan int)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				bad := garbage && i%loadGarbageEvery == loadGarbageEvery-1
				start := time.Now()
				out, err := loadOne(baseURL, keys[i%len(keys)], i, bad)
				if err != nil {
					t.Errorf("submission %d: %v", i, err)
				}
				mu.Lock()
				rep.n[out]++
				if out == loadCompleted {
					rep.jobMS = append(rep.jobMS, float64(time.Since(start))/float64(time.Millisecond))
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < submits; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return &rep
}

// loadOne submits request i and, when it is accepted, waits for its
// terminal event.
func loadOne(baseURL, key string, i int, garbage bool) (loadOutcome, error) {
	req := loadRequest(i%loadDistinct, loadTailLibs)
	if garbage {
		req.Workloads = []dserve.WorkloadSpec{{Model: "NoSuchModel"}}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return loadUnexpected, err
	}
	hreq, err := http.NewRequest("POST", baseURL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return loadUnexpected, err
	}
	hreq.Header.Set("Authorization", "Bearer "+key)
	if lane := loadLanes[i%len(loadLanes)]; lane != "" {
		hreq.Header.Set("X-Lane", lane)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return loadUnexpected, err
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return loadUnexpected, err
	}
	switch {
	case resp.StatusCode == http.StatusAccepted:
		var st struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(payload, &st); err != nil {
			return loadFailed, fmt.Errorf("decode submit response %q: %w", payload, err)
		}
		return waitTerminal(baseURL, key, st.ID)
	case resp.StatusCode == http.StatusTooManyRequests:
		if _, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil {
			return loadShedNoHint, nil
		}
		return loadShed, nil
	case garbage && resp.StatusCode >= 400 && resp.StatusCode < 500:
		return loadRejected, nil
	}
	return loadUnexpected, nil
}

// waitTerminal long-polls an accepted job's event stream to its terminal
// event.
func waitTerminal(baseURL, key, id string) (loadOutcome, error) {
	deadline := time.Now().Add(loadJobTimeout)
	after := -1
	for time.Now().Before(deadline) {
		hreq, err := http.NewRequest("GET", fmt.Sprintf("%s/v1/jobs/%s/events?after=%d&timeout_ms=2000", baseURL, id, after), nil)
		if err != nil {
			return loadFailed, err
		}
		hreq.Header.Set("Authorization", "Bearer "+key)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			return loadFailed, err
		}
		var body struct {
			Events []dserve.JobEvent `json:"events"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			return loadFailed, fmt.Errorf("decode events for %s: %w", id, err)
		}
		for _, ev := range body.Events {
			after = ev.Seq
			if ev.Terminal {
				if ev.State == dserve.JobDone {
					return loadCompleted, nil
				}
				return loadFailed, nil
			}
		}
	}
	return loadFailed, nil
}

// TestSustainedLoad is the front door's acceptance storm: a hostile mix of
// duplicate, superset, and garbage submissions from several tenants across
// both lanes. The service promise under load: zero accepted batches fail,
// every shed carries Retry-After, garbage never admits, duplicates
// coalesce instead of recomputing analysis. Short mode runs a scaled-down
// storm as the CI smoke test under the race detector.
func TestSustainedLoad(t *testing.T) {
	submits, conc := 2000, 64
	if testing.Short() {
		submits, conc = 120, 16
	}

	// The job table retains every storm job until its client has seen the
	// terminal event.
	cfg := Config{DispatchSlots: 8, QueueDepth: 4 * submits}
	svc := dserve.NewService(dserve.Config{Workers: 8, MaxSteps: 2, MaxJobs: 4 * submits, MaxInFlight: cfg.BackendMaxInFlight()})
	defer svc.Close()
	// gamma's concurrency quota is far below its third of the storm, so
	// shedding happens under load and the Retry-After check is not vacuous.
	tenants := []TenantConfig{
		{Name: "acme", Keys: []string{"key-acme"}},
		{Name: "beta", Keys: []string{"key-beta"}, Lane: LaneBulk},
		{Name: "gamma", Keys: []string{"key-gamma"}, Quota: QuotaConfig{MaxConcurrent: 2}},
	}
	keys := []string{"key-acme", "key-beta", "key-gamma"}
	g, err := New(svc, cfg, tenants)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ts := httptest.NewServer(NewHandler(g, dserve.NewHandler(svc)))
	defer ts.Close()

	// Warm each distinct variant through once so the storm's duplicates
	// measure coalescing and memoization, not first-run analysis.
	if rep := runLoad(t, ts.URL, keys, loadDistinct, loadDistinct, false); rep.n[loadCompleted] != loadDistinct {
		t.Fatalf("warmup: outcomes %v", rep.n)
	}
	computedBefore := svc.Counters.Get("analysis.computed")

	rep := runLoad(t, ts.URL, keys, submits, conc, true)
	lat := metrics.Summarize(rep.jobMS)
	t.Logf("load: %d submits → %d completed, %d shed, %d rejected; job p50=%.0fms p99=%.0fms",
		submits, rep.n[loadCompleted], rep.n[loadShed], rep.n[loadRejected], lat.P50, lat.P99)

	if n := rep.n[loadFailed]; n != 0 {
		t.Errorf("%d accepted batches failed — the admission promise is zero", n)
	}
	if n := rep.n[loadUnexpected]; n != 0 {
		t.Errorf("%d responses outside the 202/429/4xx protocol", n)
	}
	if n := rep.n[loadShedNoHint]; n != 0 {
		t.Errorf("%d sheds arrived without Retry-After", n)
	}
	if rep.n[loadShed] == 0 {
		t.Error("the capped tenant was never shed")
	}
	if want := submits / loadGarbageEvery; rep.n[loadRejected] != want {
		t.Errorf("rejected %d, want every garbage submission (%d)", rep.n[loadRejected], want)
	}

	// Duplicates coalesce: the storm repeats 3 request digests, so the
	// coalesce counter must be large and — critically — analysis compute
	// must not scale with the duplicate count.
	if got := g.Counters.Get("gateway.coalesced"); got == 0 {
		t.Error("storm of duplicates produced zero coalesces")
	}
	if delta := svc.Counters.Get("analysis.computed") - computedBefore; delta != 0 {
		t.Errorf("analysis.computed grew by %d during a duplicate-only storm", delta)
	}
}
