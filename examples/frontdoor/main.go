// Example frontdoor demonstrates the multi-tenant gateway over the batch-
// debloat service: two tenants — interactive "acme" and bulk "batch-org",
// each with its own API key and quota — submit through the authenticated
// front door. The run shows an unauthenticated request refused, identical
// batches from both tenants coalescing onto one backend execution, live
// per-stage progress streamed over the events endpoint, a quota-exceeded
// submission shed with 429 + Retry-After, and the per-tenant gateway
// counters from /v1/metrics.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"time"

	"negativaml/internal/dserve"
	"negativaml/internal/gateway"
)

const (
	acmeKey  = "key-acme-demo"
	batchKey = "key-batch-demo"
)

func main() {
	// Boot the service with the gateway in front, as negativa-served
	// -tenants does: acme is an interactive tenant on a small
	// stage-seconds budget; batch-org rides the bulk lane uncapped.
	gwCfg := gateway.Config{}
	svc := dserve.NewService(dserve.Config{Workers: 8, MaxSteps: 2, MaxInFlight: gwCfg.BackendMaxInFlight()})
	defer svc.Close()
	gw, err := gateway.New(svc, gwCfg, []gateway.TenantConfig{
		{Name: "acme", Keys: []string{acmeKey}, Lane: gateway.LaneInteractive,
			// 10ms of analysis wall time per 2-second window: the first
			// batch exhausts it, so the follow-up submission is shed.
			Quota: gateway.QuotaConfig{StageSeconds: 0.01, WindowSeconds: 2}},
		{Name: "batch-org", Keys: []string{batchKey}, Lane: gateway.LaneBulk},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go http.Serve(ln, gateway.NewHandler(gw, dserve.NewHandler(svc)))
	base := "http://" + ln.Addr().String()
	fmt.Printf("front door on %s — tenants: acme (interactive, 10ms stage budget / 2s), batch-org (bulk)\n\n", base)

	// A deliberately heavy batch: four workloads over a 20-library tail
	// keeps the analysis busy long enough to watch it stream.
	req := dserve.JobRequest{
		Framework: "pytorch",
		TailLibs:  20,
		MaxSteps:  4,
		Workloads: []dserve.WorkloadSpec{
			{Model: "MobileNetV2", Batch: 1},
			{Model: "Transformer", Batch: 32},
			{Model: "MobileNetV2", Train: true, Batch: 16, Epochs: 3},
			{Model: "Transformer", Train: true, Batch: 128, Epochs: 3},
		},
	}

	// 1. No key, no service.
	resp := post(base+"/v1/jobs", "", req)
	fmt.Printf("no API key            → %s\n", resp.Status)
	resp.Body.Close()

	// 2. Both tenants submit the identical batch back-to-back: the second
	// submission coalesces onto the first's in-flight job — both riders get
	// the same job ID, and one backend batch feeds both.
	acmeJob := submit(base, acmeKey, req)
	batchJob := submit(base, batchKey, req)
	fmt.Printf("acme submits          → %s (lane %s)\n", acmeJob.ID, acmeJob.Lane)
	fmt.Printf("batch-org submits     → %s (lane %s, coalesced=%v, same job: %v)\n",
		batchJob.ID, batchJob.Lane, batchJob.Coalesced, batchJob.ID == acmeJob.ID)

	// 3. Live progress: long-poll acme's event stream to the terminal event.
	fmt.Printf("\nstreaming %s:\n", acmeJob.ID)
	after := -1
	for done := false; !done; {
		var ev struct {
			Events []dserve.JobEvent `json:"events"`
			Done   bool              `json:"done"`
		}
		getJSON(base+fmt.Sprintf("/v1/jobs/%s/events?after=%d&timeout_ms=2000", acmeJob.ID, after), acmeKey, &ev)
		for _, e := range ev.Events {
			after = e.Seq
			switch e.Type {
			case dserve.EventStage:
				fmt.Printf("  stage %-28s %d/%d\n", e.Stage, e.StagesDone, e.StagesTotal)
			case dserve.EventState:
				fmt.Printf("  state %s\n", e.State)
			}
		}
		done = ev.Done
	}

	// Both riders finished off the one shared job, each seeing it under
	// its own tenancy (lane, coalesced flag).
	var acmeFinal, batchFinal gwView
	getJSON(base+"/v1/jobs/"+acmeJob.ID, acmeKey, &acmeFinal)
	getJSON(base+"/v1/jobs/"+batchJob.ID, batchKey, &batchFinal)
	fmt.Printf("\nacme job %s: %s (progress %.0f%%, lane %s)\n", acmeFinal.ID, acmeFinal.State, 100*acmeFinal.Progress, acmeFinal.Lane)
	fmt.Printf("batch-org job %s: %s (lane %s, coalesced=%v)\n", batchFinal.ID, batchFinal.State, batchFinal.Lane, batchFinal.Coalesced)
	if !batchJob.Coalesced || batchJob.ID != acmeJob.ID {
		log.Fatalf("identical in-flight batches must share one job: %s vs %s", acmeJob.ID, batchJob.ID)
	}

	// 4. That batch spent far more than acme's 10ms stage budget, so
	// acme's next submission inside the window is shed with 429 +
	// Retry-After. batch-org has no such quota and sails through.
	over := dserve.JobRequest{
		Framework: "tensorflow",
		TailLibs:  8,
		Workloads: []dserve.WorkloadSpec{{Model: "MobileNetV2", Batch: 1}},
	}
	resp = post(base+"/v1/jobs", acmeKey, over)
	shedBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	retryAfter, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
	fmt.Printf("\nacme over budget      → %s, Retry-After: %ds\n", resp.Status, retryAfter)
	fmt.Printf("                        %s", shedBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		log.Fatalf("expected a 429 shed, got %s", resp.Status)
	}
	okJob := submit(base, batchKey, over)
	waitDone(base, batchKey, okJob.ID)
	fmt.Printf("batch-org same batch  → %s accepted and completed\n", okJob.ID)

	// 5. The window rolls; the shed batch is welcome after Retry-After.
	time.Sleep(time.Duration(retryAfter)*time.Second + 100*time.Millisecond)
	retry := submit(base, acmeKey, over)
	waitDone(base, acmeKey, retry.ID)
	fmt.Printf("acme retries          → %s accepted and completed\n", retry.ID)

	// 6. The gateway section of /v1/metrics tells the whole story — scoped
	// to the asking tenant: each sees the shared aggregates plus only its
	// own tenant.* counters, never the other's.
	var metrics struct {
		Gateway struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"gateway"`
	}
	getJSON(base+"/v1/metrics", acmeKey, &metrics)
	fmt.Println("\ngateway counters as acme sees them:")
	for _, k := range []string{"gateway.admitted", "gateway.coalesced", "gateway.shed",
		"tenant.acme.admitted", "tenant.acme.shed"} {
		fmt.Printf("  %-28s %d\n", k, metrics.Gateway.Counters[k])
	}
	if _, leaked := metrics.Gateway.Counters["tenant.batch-org.admitted"]; leaked {
		log.Fatal("acme's metrics view leaked batch-org's counters")
	}
	metrics.Gateway.Counters = nil // a fresh decode, not a merge
	getJSON(base+"/v1/metrics", batchKey, &metrics)
	fmt.Println("gateway counters as batch-org sees them:")
	for _, k := range []string{"tenant.batch-org.admitted", "tenant.batch-org.coalesced"} {
		fmt.Printf("  %-28s %d\n", k, metrics.Gateway.Counters[k])
	}
}

// gwView is the slice of the gateway's job status this example reads.
type gwView struct {
	ID        string  `json:"id"`
	Lane      string  `json:"lane"`
	State     string  `json:"state"`
	Coalesced bool    `json:"coalesced"`
	Progress  float64 `json:"progress"`
}

func post(url, key string, body any) *http.Response {
	b, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	return resp
}

func submit(base, key string, req dserve.JobRequest) gwView {
	resp := post(base+"/v1/jobs", key, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		log.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	var v gwView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		log.Fatal(err)
	}
	return v
}

func getJSON(url, key string, out any) {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func waitDone(base, key, id string) {
	for deadline := time.Now().Add(2 * time.Minute); time.Now().Before(deadline); {
		var v gwView
		getJSON(base+"/v1/jobs/"+id, key, &v)
		if v.State == dserve.JobDone || v.State == dserve.JobFailed {
			if v.State != dserve.JobDone {
				log.Fatalf("job %s failed", id)
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	log.Fatalf("job %s never finished", id)
}
