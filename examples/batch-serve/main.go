// Example batch-serve drives the batch-debloat service over its real HTTP
// API: it starts negativa-served's handler on a loopback listener with a
// persistent data dir, submits a four-workload batch over one PyTorch
// install, polls to completion, prints the union-debloat report, resubmits
// the same job to show the profile tier and content-addressed cache
// absorbing all the work — then shuts the service down, boots a second one
// on the same data dir, and fetches the first boot's job warm from disk:
// byte-identical library, zero locate/compact runs.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/dserve"
)

func main() {
	dataDir, err := os.MkdirTemp("", "negativa-store-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)

	// serve boots one service + listener against the shared data dir and
	// returns its base URL plus a shutdown func — the "process" we restart.
	serve := func() (string, func()) {
		store, err := castore.Open(dataDir, castore.Options{MaxBytes: 512 << 20})
		if err != nil {
			log.Fatal(err)
		}
		svc := dserve.NewService(dserve.Config{Workers: 8, MaxSteps: 4, Store: store})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go http.Serve(ln, dserve.NewHandler(svc))
		return "http://" + ln.Addr().String(), func() {
			ln.Close()
			svc.Close()
			store.Close() // release the data-dir lock for the next boot
		}
	}

	base, shutdown := serve()
	fmt.Printf("batch-debloat service on %s (data dir %s)\n\n", base, dataDir)

	req := dserve.JobRequest{
		Framework: "pytorch",
		TailLibs:  20,
		Workloads: []dserve.WorkloadSpec{
			{Model: "MobileNetV2", Batch: 1},
			{Model: "MobileNetV2", Train: true, Batch: 16, Epochs: 1},
			{Model: "Transformer", Batch: 32, Device: "A100"},
			{Model: "Transformer", Train: true, Batch: 128, Epochs: 1},
		},
		MaxSteps: 4,
	}

	run := func(base, label string) string {
		id := submit(base, req)
		st := poll(base, id)
		if st.State != "done" {
			log.Fatalf("%s: job %s: %s (%s)", label, id, st.State, st.Error)
		}
		var rep map[string]any
		getJSON(base+"/v1/jobs/"+id+"/report", &rep)
		totals := rep["totals"].(map[string]any)
		fmt.Printf("%s: job %s\n", label, id)
		fmt.Printf("  union: %v\n", rep["union_workload"])
		fmt.Printf("  libraries: %.0f  file reduction: %.0f%%  cache hits/misses: %.0f/%.0f  profile reuses: %.0f\n",
			totals["libs"], totals["file_red_pct"], rep["cache_hits"], rep["cache_misses"], rep["profile_reuses"])
		fmt.Printf("  virtual end-to-end: %.0f s  wall: %.0f ms\n",
			rep["end_to_end_virtual_ms"].(float64)/1000, rep["wall_ms"])
		for _, w := range rep["workloads"].([]any) {
			wm := w.(map[string]any)
			fmt.Printf("    %-42v verified=%v reused=%v\n", wm["name"], wm["verified"], wm["profile_reused"])
		}
		fmt.Println()
		return id
	}

	jobID := run(base, "cold batch")
	run(base, "repeat batch")

	// ---- Incremental re-submit: extend the first job's workload set. ----
	// Register the added workload's profile with a solo job first, then
	// POST /v1/jobs with base=jobID: the superset batch performs zero
	// detection runs, absorbs untouched libraries through their unchanged
	// stage keys, and carries the base members' verifications over.
	extra := dserve.WorkloadSpec{Model: "Llama2", Name: "pytorch/extra/Llama2"}
	soloReq := req
	soloReq.Workloads = []dserve.WorkloadSpec{extra}
	poll(base, submit(base, soloReq))

	incReq := req
	incReq.Workloads = append(append([]dserve.WorkloadSpec{}, req.Workloads...), extra)
	incReq.Base = jobID
	incID := submit(base, incReq)
	if st := poll(base, incID); st.State != "done" {
		log.Fatalf("incremental job %s: %s (%s)", incID, st.State, st.Error)
	}
	var incRep struct {
		Incremental *dserve.IncrementalStats `json:"incremental"`
		DetectMS    float64                  `json:"detect_virtual_ms"`
		WallMS      float64                  `json:"wall_ms"`
	}
	getJSON(base+"/v1/jobs/"+incID+"/report", &incRep)
	fmt.Printf("incremental batch: job %s (base %s)\n", incID, jobID)
	if inc := incRep.Incremental; inc != nil {
		fmt.Printf("  absorbed libs: %d  delta libs: %d  carried verifications: %d\n",
			inc.AbsorbedLibs, inc.DeltaLibs, inc.CarriedVerifications)
	}
	fmt.Printf("  fresh detection: %.0f ms (want 0 — every profile reused)  wall: %.0f ms\n\n",
		incRep.DetectMS, incRep.WallMS)

	const libName = "libtorch_cuda.so"
	firstBoot := fetch(base, jobID, libName)

	// ---- Restart: same data dir, fresh process state. ----
	shutdown()
	fmt.Println("service shut down; rebooting on the same data dir...")
	base2, shutdown2 := serve()
	defer shutdown2()

	var m map[string]any
	getJSON(base2+"/v1/metrics", &m)
	counters := m["counters"].(map[string]any)
	fmt.Printf("second boot: restored %v jobs\n", counters["jobs.restored"])

	// The first boot's job serves warm: no detection, no locate/compact —
	// status, report, and libraries all come from the store.
	warm := fetch(base2, jobID, libName)
	getJSON(base2+"/v1/metrics", &m)
	counters = m["counters"].(map[string]any)
	var sv struct {
		Stats castore.Stats `json:"stats"`
	}
	getJSON(base2+"/v1/store", &sv)
	fmt.Printf("warm fetch of %s from job %s: %d bytes, identical=%v\n",
		libName, jobID, len(warm), bytes.Equal(firstBoot, warm))
	fmt.Printf("locate/compact runs on second boot: %v (want <nil> or 0)\n", counters["analysis.computed"])
	fmt.Printf("store: %d objects, %.1f MiB, %d hits, %d retained by jobs\n",
		sv.Stats.Objects, float64(sv.Stats.Bytes)/(1<<20), sv.Stats.Hits, sv.Stats.Retained)
}

func fetch(base, id, name string) []byte {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/libs/" + name)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("fetch %s/%s: %s: %s", id, name, resp.Status, body)
	}
	return body
}

func submit(base string, req dserve.JobRequest) string {
	body, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		log.Fatalf("submit rejected: %s: %s", resp.Status, raw)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		log.Fatal(err)
	}
	return st.ID
}

type status struct {
	State string `json:"state"`
	Error string `json:"error"`
}

func poll(base, id string) status {
	for {
		var st status
		getJSON(base+"/v1/jobs/"+id, &st)
		if st.State == "done" || st.State == "failed" {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: %s: %s", url, resp.Status, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		log.Fatal(err)
	}
}
