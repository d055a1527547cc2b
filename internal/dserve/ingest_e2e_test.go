package dserve

import (
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"negativaml/internal/mlframework"
	"negativaml/internal/negativa"
)

// TestIngestClusterE2E is ingestion's serving-plane acceptance test: an
// on-disk tree (written once, shared by every node as its ingest root)
// submitted via "ingest_dir" rides the full stage DAG on a 3-node ring, and
// a re-submit to either other node is pure reuse — the ingested tree's
// content-derived fingerprint keys the same stages a generated install
// would, so nothing recomputes.
func TestIngestClusterE2E(t *testing.T) {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 8})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := in.WriteTo(filepath.Join(root, "pytorch-tree")); err != nil {
		t.Fatal(err)
	}

	nodes := startClusterCfg(t, func(id string, cfg *Config) { cfg.IngestRoot = root }, "a", "b", "c")
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()
	a, b := nodes["a"], nodes["b"]

	req := JobRequest{
		IngestDir: "pytorch-tree",
		Workloads: []WorkloadSpec{
			{Model: "MobileNetV2", Batch: 1},
			{Model: "Transformer", Batch: 8, Device: "A100"},
		},
		MaxSteps: 2,
	}

	// ---- Cold on A, pure reuse on B and C, all identical to a standalone
	// DebloatBatch of the ingested install. Every stage computes on A and
	// reaches its owners by write-back; the install itself is offered to
	// nobody (a peer cannot pull or regenerate an ingested tree, and ingests
	// it itself). ----
	standalone := NewService(Config{Workers: 1, IngestRoot: root})
	defer standalone.Close()
	ingested, err := standalone.ingestInstall("pytorch-tree")
	if err != nil {
		t.Fatal(err)
	}
	jobA := coldThenWarm(t, nodes, req, ingested)
	for id, n := range nodes {
		if got := n.svc.Counters.Get("peer.offers") + n.svc.Counters.Get("peer.offer_errors") + n.svc.Counters.Get("peer.served_offers"); got != 0 {
			t.Fatalf("node %s sent or served %d install offers for an ingested install", id, got)
		}
	}
	var stA jobStatus
	if code := getJSON(t, a.srv.URL+"/v1/jobs/"+jobA, &stA); code != http.StatusOK {
		t.Fatalf("node A status %d", code)
	}
	if stA.IngestDir != "pytorch-tree" || stA.Framework != "" {
		t.Fatalf("status should echo the ingestion request: ingest_dir=%q framework=%q", stA.IngestDir, stA.Framework)
	}
	var repA jobReport
	if code := getJSON(t, a.srv.URL+"/v1/jobs/"+jobA+"/report", &repA); code != http.StatusOK {
		t.Fatalf("node A report status %d", code)
	}
	// Stage-key stability across the ingestion boundary: the tree's install
	// fingerprints identically to the in-memory install it was written from,
	// so profiles and memos from generated-install jobs carry over verbatim.
	if repA.InstallFP != negativa.InstallFingerprint(in) {
		t.Fatalf("ingested fingerprint %s differs from the source install's %s", repA.InstallFP, negativa.InstallFingerprint(in))
	}
	if hits := b.svc.Counters.Get("peer.hits"); hits == 0 {
		t.Fatal("node B should have read stages through their owning peers")
	}

	// ---- Confinement: a path that escapes the ingest root fails the job ----
	esc := postJob(t, a.srv, JobRequest{
		IngestDir: "../outside",
		Workloads: []WorkloadSpec{{Model: "MobileNetV2"}},
	})
	doneEsc := pollDone(t, a.srv, esc.ID)
	if doneEsc.State != JobFailed || !strings.Contains(doneEsc.Error, "escapes") {
		t.Fatalf("escaping ingest_dir should fail the job: state=%s err=%q", doneEsc.State, doneEsc.Error)
	}
}

// TestIngestModeRequestValidation pins the ingestion-mode request contract:
// ingest_dir excludes the install-shaping fields, and a node whose operator
// never configured an ingest root refuses to read any path at all.
func TestIngestModeRequestValidation(t *testing.T) {
	ws := []WorkloadSpec{{Model: "MobileNetV2"}}
	for _, tc := range []struct {
		name string
		req  JobRequest
		want string
	}{
		{"framework excluded", JobRequest{IngestDir: "x", Framework: "pytorch", Workloads: ws}, "mutually exclusive"},
		{"tail_libs excluded", JobRequest{IngestDir: "x", TailLibs: 3, Workloads: ws}, "mutually exclusive"},
		{"workloads still required", JobRequest{IngestDir: "x"}, "no workloads"},
	} {
		err := tc.req.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
	if err := (&JobRequest{IngestDir: "x", Workloads: ws}).Validate(); err != nil {
		t.Errorf("well-formed ingest request rejected: %v", err)
	}

	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()
	if _, err := svc.ingestInstall("anything"); err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Errorf("node without an ingest root must refuse ingestion: %v", err)
	}
}
