package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"negativaml/internal/dserve"
)

// This file enforces the gw--prefixed apidoc blocks in docs/API.md — the
// multi-tenant gateway's slice of the API. internal/dserve's apidoc test
// enforces every other block; it cannot exercise these because the gateway
// wraps dserve (the import points the other way), so the marker parsing and
// shape comparison are mirrored here against a gateway-fronted server.

// gwDocBlock is one annotated JSON example from docs/API.md.
type gwDocBlock struct {
	json   []byte
	subset bool
}

var gwAPIDocMarker = regexp.MustCompile(`<!--\s*apidoc:\s*([a-z0-9-]+)\s+(request|response)(\s+subset)?\s*-->`)

// parseGatewayAPIDoc extracts the gw--prefixed apidoc blocks from
// docs/API.md.
func parseGatewayAPIDoc(t *testing.T) map[string]gwDocBlock {
	t.Helper()
	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("docs/API.md must exist: %v", err)
	}
	blocks := map[string]gwDocBlock{}
	lines := strings.Split(string(raw), "\n")
	for i := 0; i < len(lines); i++ {
		m := gwAPIDocMarker.FindStringSubmatch(lines[i])
		if m == nil || !strings.HasPrefix(m[1], "gw-") {
			continue
		}
		key := m[1] + " " + m[2]
		subset := strings.TrimSpace(m[3]) == "subset"
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
		blocks[key] = gwDocBlock{json: []byte(strings.Join(body, "\n")), subset: subset}
		i = j
	}
	return blocks
}

func gwJSONTypeName(v any) string {
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

// gwShapeDiff mirrors internal/dserve's shapeDiff: every documented key must
// exist in the live value with the same JSON type, recursing into objects
// and first array elements; unless subset, every live key must be documented
// too. null acts as a wildcard.
func gwShapeDiff(path string, doc, live any, subset bool, probs *[]string) {
	if doc == nil || live == nil {
		return
	}
	switch d := doc.(type) {
	case map[string]any:
		l, ok := live.(map[string]any)
		if !ok {
			*probs = append(*probs, fmt.Sprintf("%s: documented as object, live is %s", path, gwJSONTypeName(live)))
			return
		}
		for k, dv := range d {
			lv, ok := l[k]
			if !ok {
				*probs = append(*probs, fmt.Sprintf("%s.%s: documented but absent from the live response", path, k))
				continue
			}
			gwShapeDiff(path+"."+k, dv, lv, subset, probs)
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
			*probs = append(*probs, fmt.Sprintf("%s: documented as array, live is %s", path, gwJSONTypeName(live)))
			return
		}
		if len(d) > 0 && len(l) > 0 {
			gwShapeDiff(path+"[0]", d[0], l[0], subset, probs)
		}
	default:
		if dt, lt := gwJSONTypeName(doc), gwJSONTypeName(live); dt != lt {
			*probs = append(*probs, fmt.Sprintf("%s: documented as %s, live is %s", path, dt, lt))
		}
	}
}

// TestGatewayAPIDocExamples keeps the gateway sections of docs/API.md
// honest: the gw-submit request is replayed verbatim, every gw- response
// example is shape-compared against the live gateway, and a documented
// gw- block the test does not exercise fails.
func TestGatewayAPIDocExamples(t *testing.T) {
	blocks := parseGatewayAPIDoc(t)
	// A single dispatch slot plus a gated blocker holds the queue still so
	// the doc example's duplicate deterministically coalesces while queued;
	// the "limited" tenant's 1-byte result quota makes the shed example
	// deterministic too (charged at its coalesced job's completion).
	ts, g, _, release := newGatedFrontDoor(t, Config{DispatchSlots: 1}, []TenantConfig{
		{Name: "acme", Keys: []string{"key-acme"}},
		{Name: "limited", Keys: []string{"key-limited"},
			Quota: QuotaConfig{MaxResultBytes: 1}},
	})
	actual := map[string][]byte{}

	raw := func(t *testing.T, method, path, key string, body any) (*http.Response, []byte) {
		t.Helper()
		var out json.RawMessage
		resp := doJSON(t, method, ts.URL+path, key, body, &out)
		return resp, []byte(out)
	}

	// ---- authentication ----
	resp, body := raw(t, "GET", "/v1/metrics", "", nil)
	if resp.StatusCode != http.StatusUnauthorized || resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatalf("unauthenticated metrics: status %d, WWW-Authenticate %q", resp.StatusCode, resp.Header.Get("WWW-Authenticate"))
	}
	actual["gw-auth-error response"] = body

	// ---- coalescing setup: a heavy cold batch owns the only slot ----
	resp, body = raw(t, "POST", "/v1/jobs", "key-acme", heavyReq())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker submit: status %d: %s", resp.StatusCode, body)
	}
	var blockerSt JobView
	if err := json.Unmarshal(body, &blockerSt); err != nil {
		t.Fatal(err)
	}

	// ---- gw-submit: replay the documented request verbatim ----
	submitReq, ok := blocks["gw-submit request"]
	if !ok {
		t.Fatal("docs/API.md lacks the gw-submit request example")
	}
	actual["gw-submit request"] = submitReq.json
	var docReq dserve.JobRequest
	if err := json.Unmarshal(submitReq.json, &docReq); err != nil {
		t.Fatalf("gw-submit request example is not a valid job request: %v", err)
	}
	resp, body = raw(t, "POST", "/v1/jobs", "key-acme", docReq)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("doc-example submit: status %d: %s", resp.StatusCode, body)
	}
	actual["gw-submit response"] = body
	var st JobView
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	// The identical batch from the other tenant coalesces onto the queued
	// unit (the blocker still owns the only dispatch slot).
	resp, body = raw(t, "POST", "/v1/jobs", "key-limited", docReq)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("duplicate submit: status %d: %s", resp.StatusCode, body)
	}
	var dup JobView
	if err := json.Unmarshal(body, &dup); err != nil {
		t.Fatal(err)
	}
	if !dup.Coalesced {
		t.Fatal("duplicate of a queued batch did not coalesce")
	}
	release()

	// ---- gw-job-status: the documented job, completed ----
	if done := pollGwDone(t, ts.URL, "key-acme", st.ID); done.State != dserve.JobDone {
		t.Fatalf("doc-example job failed: %s", done.Error)
	}
	_, actual["gw-job-status response"] = raw(t, "GET", "/v1/jobs/"+st.ID, "key-acme", nil)

	// ---- gw-events: long-poll envelope of the finished job ----
	_, actual["gw-events response"] = raw(t, "GET", "/v1/jobs/"+st.ID+"/events?after=-1&timeout_ms=100", "key-acme", nil)

	// ---- gw-shed: limited's coalesced rider charged its result bytes,
	// so its next submission exceeds the 1-byte retention quota ----
	pollGwDone(t, ts.URL, "key-limited", dup.ID)
	next := dserve.JobRequest{
		Framework: "tensorflow", TailLibs: 6,
		Workloads: []dserve.WorkloadSpec{{Model: "MobileNetV2", Batch: 1}},
	}
	resp, body = raw(t, "POST", "/v1/jobs", "key-limited", next)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	actual["gw-shed response"] = body

	// ---- gw-metrics: the storm above touched every documented counter ----
	if got := g.Counters.Get("gateway.coalesced"); got == 0 {
		t.Fatal("gateway.coalesced counter never moved")
	}
	pollGwDone(t, ts.URL, "key-acme", blockerSt.ID)
	_, actual["gw-metrics response"] = raw(t, "GET", "/v1/metrics", "key-acme", nil)

	// ---- shape comparison ----
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
		gwShapeDiff(k, docV, liveV, blk.subset, &problems)
	}
	for k := range blocks {
		if _, ok := actual[k]; !ok {
			problems = append(problems, fmt.Sprintf("%s: documented in docs/API.md but not exercised by this test", k))
		}
	}
	if len(problems) > 0 {
		t.Fatalf("docs/API.md gateway sections are out of sync with the live API:\n  %s", strings.Join(problems, "\n  "))
	}
}
