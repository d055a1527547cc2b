package dserve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/mlframework"
	"negativaml/internal/negativa"
)

// docBlock is one annotated JSON example from docs/API.md.
type docBlock struct {
	json   []byte
	subset bool
}

var apidocMarker = regexp.MustCompile(`<!--\s*apidoc:\s*([a-z0-9-]+)\s+(request|response)(\s+subset)?\s*-->`)

// parseAPIDoc extracts every `<!-- apidoc: <id> <request|response>
// [subset] -->`-annotated JSON fence from docs/API.md.
func parseAPIDoc(t *testing.T) map[string]docBlock {
	t.Helper()
	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("docs/API.md must exist: %v", err)
	}
	blocks := map[string]docBlock{}
	lines := strings.Split(string(raw), "\n")
	for i := 0; i < len(lines); i++ {
		m := apidocMarker.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		key := m[1] + " " + m[2]
		subset := strings.TrimSpace(m[3]) == "subset"
		// Find the fenced json block that follows the marker.
		j := i + 1
		for j < len(lines) && strings.TrimSpace(lines[j]) == "" {
			j++
		}
		if j >= len(lines) || strings.TrimSpace(lines[j]) != "```json" {
			t.Fatalf("docs/API.md: marker %q is not followed by a ```json fence", key)
		}
		var body []string
		for j++; j < len(lines) && strings.TrimSpace(lines[j]) != "```"; j++ {
			body = append(body, lines[j])
		}
		if _, dup := blocks[key]; dup {
			t.Fatalf("docs/API.md: duplicate apidoc block %q", key)
		}
		blocks[key] = docBlock{json: []byte(strings.Join(body, "\n")), subset: subset}
		i = j
	}
	return blocks
}

func jsonTypeName(v any) string {
	switch v.(type) {
	case map[string]any:
		return "object"
	case []any:
		return "array"
	case string:
		return "string"
	case float64:
		return "number"
	case bool:
		return "bool"
	default:
		return "null"
	}
}

// shapeDiff structurally compares a documented example against a live
// payload: every documented key must exist in the live value with the same
// JSON type, recursing into objects and first array elements; unless
// subset, every live key must be documented too. null acts as a wildcard.
func shapeDiff(path string, doc, live any, subset bool, probs *[]string) {
	if doc == nil || live == nil {
		return
	}
	switch d := doc.(type) {
	case map[string]any:
		l, ok := live.(map[string]any)
		if !ok {
			*probs = append(*probs, fmt.Sprintf("%s: documented as object, live is %s", path, jsonTypeName(live)))
			return
		}
		for k, dv := range d {
			lv, ok := l[k]
			if !ok {
				*probs = append(*probs, fmt.Sprintf("%s.%s: documented but absent from the live response", path, k))
				continue
			}
			shapeDiff(path+"."+k, dv, lv, subset, probs)
		}
		if !subset {
			for k := range l {
				if _, ok := d[k]; !ok {
					*probs = append(*probs, fmt.Sprintf("%s.%s: present in the live response but undocumented", path, k))
				}
			}
		}
	case []any:
		l, ok := live.([]any)
		if !ok {
			*probs = append(*probs, fmt.Sprintf("%s: documented as array, live is %s", path, jsonTypeName(live)))
			return
		}
		if len(d) > 0 && len(l) > 0 {
			shapeDiff(path+"[0]", d[0], l[0], subset, probs)
		}
	default:
		if dt, lt := jsonTypeName(doc), jsonTypeName(live); dt != lt {
			*probs = append(*probs, fmt.Sprintf("%s: documented as %s, live is %s", path, dt, lt))
		}
	}
}

// answerLayout renders a lookup-batch answer as docs/API.md shows it,
// parsing the bytes by the layout table there alone, not by castore's
// reader: per entry its name, its header's magic, version, length and sum,
// and the stage hash its record is sealed with. Bytes that do not fit the
// table — a short entry, a wrong magic, version or flags, a sum that does
// not match, a record sealed with another hash than its name's — fail
// the test.
func answerLayout(t *testing.T, raw []byte) []byte {
	t.Helper()
	type entry struct {
		Name       string `json:"name"`
		Magic      string `json:"magic"`
		Version    int    `json:"version"`
		Length     int    `json:"length"`
		Sum        string `json:"sum"`
		SealedWith string `json:"sealed_with"`
	}
	entries := []entry{}
	le := binary.LittleEndian
	for len(raw) > 0 {
		if len(raw) < 2 {
			t.Fatalf("answer: %d bytes left where an entry starts", len(raw))
		}
		n := int(le.Uint16(raw))
		if len(raw) < 2+n+48 {
			t.Fatalf("answer: entry cut short in its name or header")
		}
		name, hdr := string(raw[2:2+n]), raw[2+n:2+n+48]
		length := int(le.Uint64(hdr[8:16]))
		rec := raw[2+n+48:]
		if len(rec) < length || length < 32 {
			t.Fatalf("answer: entry %s claims %d record bytes, %d follow", name, length, len(rec))
		}
		rec = rec[:length]
		if string(hdr[:4]) != "NCS1" || le.Uint16(hdr[4:6]) != 1 || le.Uint16(hdr[6:8]) != 0 {
			t.Fatalf("answer: entry %s header %x is not magic NCS1, version 1, flags 0", name, hdr[:8])
		}
		if sum := sha256.Sum256(rec); !bytes.Equal(sum[:], hdr[16:48]) {
			t.Fatalf("answer: entry %s fails its sum", name)
		}
		sealed := hex.EncodeToString(rec[:32])
		if _, hash, _ := strings.Cut(name, "/"); hash != sealed {
			t.Fatalf("answer: entry %s holds a record sealed with %s", name, sealed)
		}
		entries = append(entries, entry{name, string(hdr[:4]), 1, length, hex.EncodeToString(hdr[16:48]), sealed})
		raw = raw[2+n+48+length:]
	}
	out, err := json.Marshal(map[string]any{"entries": entries})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAPIDocExamples keeps docs/API.md honest: every request example is
// replayed verbatim against a live two-node service, every response
// example is shape-compared against what the service actually returned
// (a lookup-batch answer, which is binary, as answerLayout parses it by
// the documented layout),
// and both directions of completeness are enforced — an undocumented
// scenario fails, and so does a documented example the test does not
// exercise.
func TestAPIDocExamples(t *testing.T) {
	blocks := parseAPIDoc(t)
	// The ingest root (shared by both nodes) holds the tree the
	// submit-ingest example names, written before the nodes boot.
	ingestRoot := t.TempDir()
	treeIn, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := treeIn.WriteTo(filepath.Join(ingestRoot, "pytorch-tree")); err != nil {
		t.Fatal(err)
	}
	nodes := startClusterCfg(t, func(id string, cfg *Config) { cfg.IngestRoot = ingestRoot }, nil, "a", "b")
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()
	a := nodes["a"]
	actual := map[string][]byte{}

	httpJSON := func(method, path string, body []byte, wantStatus int) []byte {
		t.Helper()
		req, err := http.NewRequest(method, a.srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, wantStatus, out)
		}
		return out
	}

	// ---- error shape ----
	actual["error response"] = httpJSON(http.MethodGet, "/v1/jobs/job-9999", nil, http.StatusNotFound)

	// ---- submit + poll ----
	submitReq, ok := blocks["submit request"]
	if !ok {
		t.Fatal("docs/API.md lacks the submit request example")
	}
	actual["submit request"] = submitReq.json
	sub := httpJSON(http.MethodPost, "/v1/jobs", submitReq.json, http.StatusAccepted)
	actual["submit response"] = sub
	var st jobStatus
	if err := json.Unmarshal(sub, &st); err != nil {
		t.Fatal(err)
	}
	done := pollDone(t, a.srv, st.ID)
	if done.State != JobDone {
		t.Fatalf("doc-example job failed: %s", done.Error)
	}

	actual["job-status response"] = httpJSON(http.MethodGet, "/v1/jobs/"+st.ID, nil, http.StatusOK)
	actual["jobs-list response"] = httpJSON(http.MethodGet, "/v1/jobs", nil, http.StatusOK)
	actual["job-report response"] = httpJSON(http.MethodGet, "/v1/jobs/"+st.ID+"/report", nil, http.StatusOK)

	// ---- incremental re-submit ----
	incReq, ok := blocks["submit-incremental request"]
	if !ok {
		t.Fatal("docs/API.md lacks the submit-incremental request example")
	}
	actual["submit-incremental request"] = incReq.json
	incSub := httpJSON(http.MethodPost, "/v1/jobs", incReq.json, http.StatusAccepted)
	actual["submit-incremental response"] = incSub
	var incSt jobStatus
	if err := json.Unmarshal(incSub, &incSt); err != nil {
		t.Fatal(err)
	}
	if incDone := pollDone(t, a.srv, incSt.ID); incDone.State != JobDone {
		t.Fatalf("doc-example incremental job failed: %s", incDone.Error)
	}
	actual["incremental-report response"] = httpJSON(http.MethodGet, "/v1/jobs/"+incSt.ID+"/report", nil, http.StatusOK)

	// ---- ingestion mode ----
	// The doc example's ingest_dir is relative to the node's ingest root,
	// so it replays verbatim: the test wrote "pytorch-tree" under the root
	// every node was booted with.
	ingReq, ok := blocks["submit-ingest request"]
	if !ok {
		t.Fatal("docs/API.md lacks the submit-ingest request example")
	}
	actual["submit-ingest request"] = ingReq.json
	ingSub := httpJSON(http.MethodPost, "/v1/jobs", ingReq.json, http.StatusAccepted)
	actual["submit-ingest response"] = ingSub
	var ingSt jobStatus
	if err := json.Unmarshal(ingSub, &ingSt); err != nil {
		t.Fatal(err)
	}
	if ingDone := pollDone(t, a.srv, ingSt.ID); ingDone.State != JobDone {
		t.Fatalf("doc-example ingest job failed: %s", ingDone.Error)
	}

	// ---- metrics + store ----
	actual["metrics response"] = httpJSON(http.MethodGet, "/v1/metrics", nil, http.StatusOK)
	actual["store response"] = httpJSON(http.MethodGet, "/v1/store", nil, http.StatusOK)

	// ---- peer routes ----
	batchLookupReq, ok := blocks["peer-lookup-batch request"]
	if !ok {
		t.Fatal("docs/API.md lacks the peer-lookup-batch request example")
	}
	actual["peer-lookup-batch request"] = batchLookupReq.json
	actual["peer-lookup-batch response"] = answerLayout(t, httpJSON(http.MethodPost, "/v1/peer/lookup-batch", batchLookupReq.json, http.StatusOK))

	// A found compact lookup needs a real key: the first library of the
	// doc-example job, which node a computed and still caches.
	foundReq, err := json.Marshal(peerBatchLookupRequest{Keys: []peerLookupRequest{
		{Stage: "compact", Hash: a.svc.Job(st.ID).Result.libKeys[0]},
	}})
	if err != nil {
		t.Fatal(err)
	}
	actual["peer-lookup-batch-found request"] = foundReq
	found := answerLayout(t, httpJSON(http.MethodPost, "/v1/peer/lookup-batch", foundReq, http.StatusOK))
	if want := `"name":"` + kindRecord + "/" + a.svc.Job(st.ID).Result.libKeys[0] + `"`; !bytes.Contains(found, []byte(want)) {
		t.Fatalf("found answer %s does not name the key asked", found)
	}
	actual["peer-lookup-batch-found response"] = found

	// An install push needs a real fingerprint (the owner checks the
	// install it resolves against it): b's push of the install the submit
	// example resolved on a, which a therefore answers without reading it.
	in, err := nodes["b"].svc.install(mlframework.PyTorch, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := in.WriteWire(&wire); err != nil {
		t.Fatal(err)
	}
	actual["peer-install response"] = httpJSON(http.MethodPut, installPath(negativa.InstallFingerprint(in), "b", "pytorch", 6), wire.Bytes(), http.StatusOK)

	// ---- membership plane ----
	// The ping/join/leave requests are built live (real URLs) so the doc
	// examples are shape-checked without poisoning node A's membership view
	// with unreachable placeholder addresses.
	liveNodes := map[string]string{"a": nodes["a"].srv.URL, "b": nodes["b"].srv.URL}
	pingBody, err := json.Marshal(cluster.HeartbeatRequest{From: "b", URL: nodes["b"].srv.URL, Nodes: liveNodes})
	if err != nil {
		t.Fatal(err)
	}
	actual["peer-ping request"] = pingBody
	actual["peer-ping response"] = httpJSON(http.MethodPost, "/v1/peer/ping", pingBody, http.StatusOK)

	joinBody, err := json.Marshal(cluster.JoinRequest{ID: "c", URL: nodes["b"].srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	actual["peer-join request"] = joinBody
	actual["peer-join response"] = httpJSON(http.MethodPost, "/v1/peer/join", joinBody, http.StatusOK)

	leaveBody, err := json.Marshal(cluster.LeaveRequest{ID: "c"})
	if err != nil {
		t.Fatal(err)
	}
	actual["peer-leave request"] = leaveBody
	actual["peer-leave response"] = httpJSON(http.MethodPost, "/v1/peer/leave", leaveBody, http.StatusOK)

	// A push of one record and one library image: the image's kind is not
	// replicated, so the answer refuses it.
	pushed := castore.AppendEntry(nil, kindRecord, "doc0", []byte("a record"))
	pushed = castore.AppendEntry(pushed, "lib", "doc1", []byte("a library image"))
	actual["peer-objects response"] = httpJSON(http.MethodPut, "/v1/peer/objects", pushed, http.StatusOK)

	statBody, err := json.Marshal(peerStatRequest{Objects: []storeRef{{Kind: kindRecord, Key: "absent0"}}})
	if err != nil {
		t.Fatal(err)
	}
	actual["peer-stat request"] = statBody
	actual["peer-stat response"] = httpJSON(http.MethodPost, "/v1/peer/stat", statBody, http.StatusOK)

	// ---- shape comparison, both completeness directions ----
	var keys []string
	for k := range actual {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var problems []string
	for _, k := range keys {
		blk, ok := blocks[k]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: exercised by the test but has no apidoc example in docs/API.md", k))
			continue
		}
		var docV, liveV any
		if err := json.Unmarshal(blk.json, &docV); err != nil {
			problems = append(problems, fmt.Sprintf("%s: example is not valid JSON: %v", k, err))
			continue
		}
		if err := json.Unmarshal(actual[k], &liveV); err != nil {
			t.Fatalf("%s: live payload is not valid JSON: %v", k, err)
		}
		shapeDiff(k, docV, liveV, blk.subset, &problems)
	}
	for k := range blocks {
		// gw--prefixed blocks document the multi-tenant gateway, which wraps
		// this package; they are enforced by internal/gateway's apidoc test.
		if strings.HasPrefix(k, "gw-") {
			continue
		}
		if _, ok := actual[k]; !ok {
			problems = append(problems, fmt.Sprintf("%s: documented in docs/API.md but not exercised by this test", k))
		}
	}
	if len(problems) > 0 {
		t.Fatalf("docs/API.md is out of sync with the live API:\n  %s", strings.Join(problems, "\n  "))
	}
}
