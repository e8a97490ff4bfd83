package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"accltl/internal/workload"
)

// The task routes are tested against the same textual workload scenarios
// that drive the facade's task tests (accesscheck/task_test.go): one
// scenario, two entry points, one expected verdict — a round-trip
// differential between the wire layer and the in-process API.

func containmentReq(sc workload.ContainmentScenario) ContainmentRequest {
	return ContainmentRequest{
		Mode:      sc.Mode,
		Q1:        sc.Q1,
		Q2:        sc.Q2,
		Rules:     sc.Rules,
		Goal:      sc.Goal,
		Relations: sc.Relations,
		Methods:   sc.Methods,
		Seed:      sc.Seed,
		Depth:     sc.Depth,
	}
}

func relevanceReq(sc workload.RelevanceScenario) RelevanceRequest {
	return RelevanceRequest{
		Relations: sc.Relations,
		Methods:   sc.Methods,
		Probe:     sc.Probe,
		Binding:   sc.Binding,
		Query:     sc.Query,
		Hidden:    sc.Hidden,
		Seed:      sc.Seed,
		MaxDepth:  sc.MaxDepth,
	}
}

func TestContainmentEndpointScenarios(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, sc := range workload.ContainmentScenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/containment", containmentReq(sc))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var out ContainmentResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if out.Contained != sc.WantContained || out.Exact != sc.WantExact {
				t.Errorf("contained=%v exact=%v, want %v/%v: %s",
					out.Contained, out.Exact, sc.WantContained, sc.WantExact, body)
			}
			if out.Truncated != !sc.WantExact {
				t.Errorf("truncated = %v, want %v", out.Truncated, !sc.WantExact)
			}
			if out.Engine == "" || out.Mode != sc.Mode {
				t.Errorf("envelope wrong: engine=%q mode=%q", out.Engine, out.Mode)
			}
			if out.Cached {
				t.Error("first solve claims to be cached")
			}
			// Exact verdicts are admitted to the cache; depth-relative ones
			// must re-solve.
			resp, body = postJSON(t, ts.URL+"/v1/containment", containmentReq(sc))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("repeat: status %d: %s", resp.StatusCode, body)
			}
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if out.Cached != sc.WantExact {
				t.Errorf("repeat cached = %v, want %v", out.Cached, sc.WantExact)
			}
		})
	}
	m := metrics(t, ts)
	n := len(workload.ContainmentScenarios())
	if got := m[`accserve_task_requests_total{task="containment"}`]; got != 2*n {
		t.Errorf("containment requests = %d, want %d", got, 2*n)
	}
}

func TestRelevanceEndpointScenarios(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, sc := range workload.RelevanceScenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/relevance", relevanceReq(sc))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var out RelevanceResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			verdict := out.Relevant
			if sc.Probe == "" {
				verdict = out.Answer
				if len(out.Accessible) == 0 {
					t.Error("accessible-part mode returned no accessible facts")
				}
			}
			if verdict != sc.WantVerdict {
				t.Errorf("verdict = %v, want %v: %s", verdict, sc.WantVerdict, body)
			}
			if out.Engine == "" {
				t.Error("no engine reported")
			}
		})
	}
}

func TestChaseEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := ChaseRequest{
		Arities: []string{"R:3"},
		FDs:     []string{"R:0->1", "R:1->2"},
		Sigma:   "R:0->2",
	}
	resp, body := postJSON(t, ts.URL+"/v1/chase", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ChaseResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Implied || out.Verdict != "implied" || !out.Terminated || out.Truncated {
		t.Errorf("transitivity not implied: %s", body)
	}
	if out.Engine != "chase" {
		t.Errorf("engine = %q, want chase", out.Engine)
	}

	// Terminating chases are exact, so the repeat is a cache hit.
	_, body = postJSON(t, ts.URL+"/v1/chase", req)
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Error("repeat chase not served from cache")
	}

	// The reverse implication fails but still terminates.
	req.FDs = []string{"R:0->1"}
	_, body = postJSON(t, ts.URL+"/v1/chase", req)
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Implied || !out.Terminated {
		t.Errorf("reverse implication: %s", body)
	}
}

// TestCoordinatorChecksTotalCountsChecksOnly: containment, relevance and
// chase requests the coordinator forwards whole count under
// task_forwards_total, not accserve_coordinator_checks_total; a check it
// forwards whole counts there once.
func TestCoordinatorChecksTotalCountsChecksOnly(t *testing.T) {
	url, _, _ := newFabric(t, 2, CoordinatorConfig{})
	for route, req := range map[string]any{
		"/v1/containment": containmentReq(workload.ContainmentScenarios()[0]),
		"/v1/relevance":   relevanceReq(workload.RelevanceScenarios()[0]),
		"/v1/chase":       ChaseRequest{Arities: []string{"R:2"}, FDs: []string{"R:0->1"}, Sigma: "R:0->1"},
	} {
		if resp, body := postJSON(t, url+route, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", route, resp.StatusCode, body)
		}
	}
	m := metricsAt(t, url)
	for _, k := range []string{"containment", "relevance", "chase"} {
		if n := m[`accserve_coordinator_task_forwards_total{task="`+k+`"}`]; n != 1 {
			t.Errorf("%s forwards = %d, want 1", k, n)
		}
	}
	if n := m["accserve_coordinator_checks_total"]; n != 0 {
		t.Errorf("checks_total = %d after three task forwards, want 0", n)
	}

	// A schema without methods plans no shard, so the check is forwarded.
	req := CheckRequest{Relations: []string{"R:int"}, Formula: "F [exists x. post R(x)]"}
	if resp, body := postJSON(t, url+"/v1/check", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("check: status %d: %s", resp.StatusCode, body)
	}
	m = metricsAt(t, url)
	if m["accserve_coordinator_forwards_total"] != 1 || m["accserve_coordinator_checks_total"] != 1 {
		t.Errorf("forwards_total %d, checks_total %d after one forwarded check; want 1, 1",
			m["accserve_coordinator_forwards_total"], m["accserve_coordinator_checks_total"])
	}
}

// TestStrictDecodeRejectsUnknownFields: every /v1/* body decoder, on both
// roles, runs with DisallowUnknownFields, so a typoed field is a
// structured 400 naming the field instead of a silently ignored option.
func TestStrictDecodeRejectsUnknownFields(t *testing.T) {
	for _, rl := range roles(t, Config{}) {
		routes := []string{"/v1/check", "/v1/containment", "/v1/relevance", "/v1/chase", "/v1/batch", rl.own}
		for _, route := range routes {
			resp, body := postJSON(t, rl.url+route, map[string]any{"max_dpeth": 3})
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400: %s", rl.name, route, resp.StatusCode, body)
				continue
			}
			var out errorResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Errorf("%s %s: error body not structured JSON: %s", rl.name, route, body)
				continue
			}
			if !strings.Contains(out.Error, "max_dpeth") {
				t.Errorf("%s %s: error does not name the unknown field: %q", rl.name, route, out.Error)
			}
		}
	}
}

// TestTaskCacheIsolation: a cache warmed by one task kind never answers
// another. The three requests share every piece of schema and formula text;
// only the task kind differs, and the kind leads the fingerprint.
func TestTaskCacheIsolation(t *testing.T) {
	ts := newTestServer(t, Config{})
	sc := workload.RelevanceScenarios()[0]

	// Warm the cache with an access-mode containment over the exact
	// schema/query text the relevance scenario uses.
	creq := ContainmentRequest{
		Mode:      "access",
		Relations: sc.Relations,
		Methods:   sc.Methods,
		Q1:        sc.Query,
		Q2:        sc.Query,
		Seed:      sc.Seed,
		Depth:     2,
	}
	resp, body := postJSON(t, ts.URL+"/v1/containment", creq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.StatusCode, body)
	}

	// Same text, different task: must miss.
	resp, body = postJSON(t, ts.URL+"/v1/relevance", relevanceReq(sc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("relevance: status %d: %s", resp.StatusCode, body)
	}
	var rout RelevanceResponse
	if err := json.Unmarshal(body, &rout); err != nil {
		t.Fatal(err)
	}
	if rout.Cached {
		t.Error("relevance request served from a containment-warmed cache")
	}

	// And a check over the same schema text must miss both.
	resp, body = postJSON(t, ts.URL+"/v1/check", CheckRequest{
		Relations: sc.Relations, Methods: sc.Methods, Formula: satFormula,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check: status %d: %s", resp.StatusCode, body)
	}
	var cout CheckResponse
	if err := json.Unmarshal(body, &cout); err != nil {
		t.Fatal(err)
	}
	if cout.Cached {
		t.Error("check request served from a task-warmed cache")
	}

	m := metrics(t, ts)
	if got := m[`accserve_task_cache_hits_total{task="relevance"}`]; got != 0 {
		t.Errorf("relevance cache hits = %d, want 0", got)
	}
	if got := m[`accserve_task_cache_hits_total{task="containment"}`]; got != 0 {
		t.Errorf("containment cache hits = %d, want 0", got)
	}
	if m[`accserve_cache_tier_hits_total{tier="memory"}`] != 0 {
		t.Errorf("check cache hits = %d, want 0", m[`accserve_cache_tier_hits_total{tier="memory"}`])
	}
}

// TestMixedBatchTasks: one /v1/batch carrying all four kinds plus two broken
// items answers 200 with index-aligned results and per-item errors.
func TestMixedBatchTasks(t *testing.T) {
	ts := newTestServer(t, Config{})
	csc := workload.ContainmentScenarios()[0]
	rsc := workload.RelevanceScenarios()[0]
	creq := containmentReq(csc)
	rreq := relevanceReq(rsc)
	chase := ChaseRequest{Arities: []string{"R:2"}, FDs: []string{"R:0->1"}, Sigma: "R:0->1"}
	check := checkReq(satFormula)
	batch := BatchRequest{Items: []TaskRequest{
		{Task: "check", Check: &check},
		{Task: "containment", Containment: &creq},
		{Task: "relevance", Relevance: &rreq},
		{Task: "chase", Chase: &chase},
		{Task: "conjuring"}, // unknown kind
		{Task: "chase"},     // missing payload
		{Task: "containment", Containment: &ContainmentRequest{Mode: "ucq", Q1: "[[[", Q2: "[[["}}, // parse failure
	}}
	resp, body := postJSON(t, ts.URL+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(batch.Items) {
		t.Fatalf("got %d results, want %d", len(out.Results), len(batch.Items))
	}
	if r := out.Results[0]; r.Result == nil || !r.Result.Satisfiable || r.Task != "check" {
		t.Errorf("item 0: %+v, want satisfiable check", r)
	}
	if r := out.Results[1]; r.Containment == nil || r.Containment.Contained != csc.WantContained {
		t.Errorf("item 1: %+v, want contained=%v", r, csc.WantContained)
	}
	if r := out.Results[2]; r.Relevance == nil || r.Relevance.Answer != rsc.WantVerdict {
		t.Errorf("item 2: %+v, want answer=%v", r, rsc.WantVerdict)
	}
	if r := out.Results[3]; r.Chase == nil || !r.Chase.Implied {
		t.Errorf("item 3: %+v, want implied", r)
	}
	if r := out.Results[4]; r.Error == "" {
		t.Error("item 4: unknown task kind not reported")
	}
	if r := out.Results[5]; !strings.Contains(r.Error, "payload") {
		t.Errorf("item 5: error = %q, want missing-payload", r.Error)
	}
	if r := out.Results[6]; r.Error == "" || r.Containment != nil {
		t.Errorf("item 6: %+v, want isolated parse failure", r)
	}

	// Exactly one of requests/items per batch.
	resp, _ = postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Requests: []CheckRequest{check},
		Items:    []TaskRequest{{Task: "check", Check: &check}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("both-forms batch: status %d, want 400", resp.StatusCode)
	}
	// An empty "requests" array beside "items" is the items form.
	resp, body = postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"requests": []CheckRequest{},
		"items":    []TaskRequest{{Task: "chase", Chase: &chase}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("empty requests beside items: status %d, want 200: %s", resp.StatusCode, body)
	}
}

// TestContainmentCacheSeparatesStagedFromPlainAtoms: a verdict cached for
// q1 = q2 = "exists x. Rpost(x)" must not answer q1 = "exists x. post
// R(x)", a different query that q2 does not contain.
func TestContainmentCacheSeparatesStagedFromPlainAtoms(t *testing.T) {
	ts := newTestServer(t, Config{})
	ask := func(q1, q2 string) ContainmentResponse {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/containment", ContainmentRequest{Q1: q1, Q2: q2})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out ContainmentResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	const plain, staged = "exists x. Rpost(x)", "exists x. post R(x)"
	if out := ask(plain, plain); !out.Contained || out.Cached {
		t.Fatalf("q1 = q2: contained=%v cached=%v, want true/false", out.Contained, out.Cached)
	}
	if out := ask(staged, plain); out.Contained || out.Cached {
		t.Errorf("post R against Rpost: contained=%v cached=%v, want false/false", out.Contained, out.Cached)
	}
}
