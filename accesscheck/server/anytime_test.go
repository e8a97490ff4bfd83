package server

// Server-level anytime behavior: blown budgets answer with resumable
// coverage-tagged partials, identical follow-ups resume the stored
// frontier, context causes are told apart in error codes and metrics, and
// /v1/batch streams NDJSON on request. Names carry "Sharded" so CI's race
// pass picks them up.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"accltl/accesscheck"
	"accltl/accesscheck/fabric"
)

// wideRelations/wideMethods blow the phone-directory schema up to ten
// access methods, giving the canonical partition ~50 root shards — enough
// slices that a microsecond-scale budget reliably covers some but not all
// of them, which is what the anytime tests need.
var wideRelations = []string{
	"Mobile#:string,string,string,int",
	"Address:string,string,string,int",
	"Email:string,string",
	"Phone:string,string",
	"Fax:string,string",
	"Pager:string,string",
}

var wideMethods = []string{
	"AcM1:Mobile#:0",
	"AcM2:Address:0,1",
	"AcM3:Email:0",
	"AcM4:Phone:0",
	"AcM5:Email:1",
	"AcM6:Phone:1",
	"AcM7:Fax:0",
	"AcM8:Fax:1",
	"AcM9:Pager:0",
	"AcM10:Pager:1",
}

// wideUnsatFormula keeps the contradiction of unsatFormula but conjoins
// positive obligations over the extra relations, inflating the
// formula-derived witness universe — hundreds of paths across ~50 root
// shards, several milliseconds of search — so budget expiry lands mid-run
// (the engines poll the context every 64 paths) with honest partial
// coverage, instead of the whole check finishing between two polls.
const wideUnsatFormula = `[exists n,p,s,ph. pre Mobile#(n,p,s,ph)] & (![exists n,p,s,ph. pre Mobile#(n,p,s,ph)])` +
	` & [exists a,b. pre Email(a,b)] & [exists a2,b2. pre Email(a2,b2)]` +
	` & [exists c,d. pre Phone(c,d)] & [exists c2,d2. pre Phone(c2,d2)]` +
	` & [exists e1,e2. pre Fax(e1,e2)] & [exists g1,g2. pre Pager(g1,g2)]`

// TestServerShardedAnytimeRepeatConverges: hammering /v1/check with the
// identical request under doubling budgets yields only honest answers —
// 504s naming budget_exhausted, or 200s that are either coverage-tagged
// resumable partials or the final exact verdict — with coverage never
// regressing, and the stored checkpoint dropped once the check settles.
func TestServerShardedAnytimeRepeatConverges(t *testing.T) {
	ts := newTestServer(t, Config{})
	// A sequence whose first budget the sub-millisecond search outlasts
	// settles before any pressure lands and shows nothing, so it is redone
	// on a fresh fingerprint: MaxDepth one higher, which changes neither
	// this search's cost nor its verdict.
	for depth := 4; depth < 36; depth++ {
		if anytimeRepeatConverges(t, ts, depth) {
			return
		}
	}
	t.Skip("machine too fast to exercise budget pressure")
}

// anytimeRepeatConverges runs one doubling-budget sequence of the wide
// unsat check at MaxDepth depth and reports whether budget pressure landed
// in it: a budget_exhausted 504 or a resumable partial.
func anytimeRepeatConverges(t *testing.T, ts *httptest.Server, depth int) bool {
	t.Helper()
	exhausted := metrics(t, ts)["accserve_budget_exhausted_total"]
	req := CheckRequest{Relations: wideRelations, Methods: wideMethods, Formula: wideUnsatFormula}
	req.Options = &CheckOptions{MaxDepth: depth, Engine: "bounded"}

	budget := 100 * time.Microsecond
	prevCov := 0.0
	sawPartial := false
	var final CheckResponse
	settled := false
	for round := 0; round < 40 && !settled; round++ {
		req.Budget = budget.String()
		budget *= 2
		resp, body := postJSON(t, ts.URL+"/v1/check", req)
		switch resp.StatusCode {
		case http.StatusGatewayTimeout:
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatal(err)
			}
			if e.Code != "budget_exhausted" {
				t.Fatalf("round %d: 504 code %q, want budget_exhausted", round, e.Code)
			}
			if e.RetryAfter < 1 || resp.Header.Get("Retry-After") == "" {
				t.Fatalf("round %d: 504 without a usable backoff: %+v", round, e)
			}
		case http.StatusOK:
			var out CheckResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if out.Coverage < prevCov {
				t.Fatalf("round %d: coverage regressed %v -> %v", round, prevCov, out.Coverage)
			}
			prevCov = out.Coverage
			if out.Resumable {
				sawPartial = true
				if !out.Truncated || out.Satisfiable {
					t.Fatalf("round %d: resumable partial malformed: %+v", round, out)
				}
				if out.Coverage <= 0 || out.Coverage >= 1 {
					t.Fatalf("round %d: partial coverage %v outside (0,1)", round, out.Coverage)
				}
				if out.RetryAfter < 1 || resp.Header.Get("Retry-After") == "" {
					t.Fatalf("round %d: partial without a retry hint", round)
				}
				continue
			}
			final = out
			settled = true
		default:
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, body)
		}
	}
	if !settled {
		t.Fatal("check never settled under doubling budgets")
	}
	if final.Satisfiable || final.Coverage != 1 {
		t.Errorf("settled answer not exact unsat: %+v", final)
	}

	m := metrics(t, ts)
	if m["accserve_checkpoints_size"] != 0 {
		t.Errorf("settled check left %d checkpoint(s) behind", m["accserve_checkpoints_size"])
	}
	if sawPartial {
		if m["accserve_anytime_partials_total"] == 0 {
			t.Error("partial answers served but accserve_anytime_partials_total is 0")
		}
		if m["accserve_anytime_resumes_total"] == 0 {
			t.Error("a partial was resumed but accserve_anytime_resumes_total is 0")
		}
	}
	return m["accserve_budget_exhausted_total"] > exhausted || sawPartial
}

// TestServerShardedShardBudgetCause: a coordinator-imposed per-shard budget
// that expires answers 504 with its own cause code, distinct from the
// request-budget cause, and increments its own counter.
func TestServerShardedShardBudgetCause(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := checkReq(unsatFormula)
	sch, err := accesscheck.ParseSchema(req.Relations, req.Methods)
	if err != nil {
		t.Fatal(err)
	}
	f, err := accesscheck.ParseFormula(req.Formula)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := accesscheck.NewChecker(accesscheck.WithMaxDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := chk.ShardPlan(context.Background(), sch, f)
	if err != nil {
		t.Fatal(err)
	}
	wire := &fabric.Shard{
		Version:   fabric.WireVersion,
		Relations: req.Relations,
		Methods:   req.Methods,
		Formula:   req.Formula,
		Options:   &fabric.CheckOptions{MaxDepth: 8},
		Budget:    "1ns",
		PlanSize:  len(plan),
		Shards:    []fabric.ShardRef{{Index: plan[0].Index, Key: plan[0].Key, WholeAccess: plan[0].WholeAccess}},
	}
	resp, body := postJSON(t, ts.URL+"/v1/shard", wire)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "shard_budget_exhausted" {
		t.Errorf("code = %q, want shard_budget_exhausted", e.Code)
	}
	m := metrics(t, ts)
	if m["accserve_shard_budget_exhausted_total"] == 0 {
		t.Error("shard budget expiry not counted in its own metric")
	}
	if m["accserve_budget_exhausted_total"] != 0 {
		t.Error("shard budget expiry bled into the request-budget counter")
	}
}

// TestServerShardedClientDisconnectCause: a client that walks away from a
// large in-flight batch is recorded as client_disconnected, not as a budget
// expiry. Every item is fingerprint-unique (distinct response-choice caps)
// so the cache cannot absorb the work before the disconnect lands.
func TestServerShardedClientDisconnectCause(t *testing.T) {
	ts := newTestServer(t, Config{})
	var batch BatchRequest
	for i := 0; i < 50; i++ {
		r := CheckRequest{Relations: wideRelations, Methods: wideMethods, Formula: wideUnsatFormula}
		r.Options = &CheckOptions{MaxDepth: 4, MaxResponseChoices: i + 2, Engine: "bounded"}
		r.Budget = "30s"
		batch.Requests = append(batch.Requests, r)
	}
	b, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(hr); err == nil {
		resp.Body.Close()
		t.Skip("batch finished before the client disconnected")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := metrics(t, ts); m["accserve_client_disconnected_total"] > 0 {
			if m["accserve_budget_exhausted_total"] != 0 {
				t.Error("disconnect bled into the budget-expiry counter")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("accserve_client_disconnected_total never incremented")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCoordinatorShardedAnytimeResumeConverges: a coordinator under budget
// pressure answers coverage-tagged partials assembled from whatever the
// workers finished, checkpoints the frontier at shard-group granularity,
// and an identical follow-up redispatches only the missing slices —
// coverage grows monotonically until the merged verdict is exact, at which
// point the merged-result cache answers without touching the fabric.
func TestCoordinatorShardedAnytimeResumeConverges(t *testing.T) {
	url, _, coord := newFabric(t, 2, CoordinatorConfig{})
	req := CheckRequest{Relations: wideRelations, Methods: wideMethods, Formula: wideUnsatFormula}
	req.Options = &CheckOptions{MaxDepth: 4, Engine: "bounded"}

	budget := time.Millisecond
	prevCov := 0.0
	sawPartial := false
	var final CheckResponse
	settled := false
	for round := 0; round < 40 && !settled; round++ {
		req.Budget = budget.String()
		budget *= 2
		resp, body := postJSON(t, url+"/v1/check", req)
		switch {
		case resp.StatusCode == http.StatusOK:
			var out CheckResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if out.Coverage < prevCov {
				t.Fatalf("round %d: coverage regressed %v -> %v", round, prevCov, out.Coverage)
			}
			prevCov = out.Coverage
			if out.Resumable {
				sawPartial = true
				if !out.Truncated || out.Satisfiable || out.Coverage <= 0 || out.Coverage >= 1 {
					t.Fatalf("round %d: malformed partial: %+v", round, out)
				}
				if out.ShardsCompleted == 0 || out.ShardsCompleted >= out.ShardsTotal {
					t.Fatalf("round %d: partial covers %d/%d shards", round, out.ShardsCompleted, out.ShardsTotal)
				}
				continue
			}
			final = out
			settled = true
		case resp.StatusCode >= 500:
			// Budget died before any group finished: honest refusal.
		default:
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, body)
		}
	}
	if !settled {
		t.Fatal("coordinator never settled under doubling budgets")
	}
	ref := referenceResult(t, req)
	if final.Satisfiable != ref.Satisfiable || final.Coverage != 1 {
		t.Errorf("settled answer diverged: sat=%v coverage=%v, want sat=%v coverage=1",
			final.Satisfiable, final.Coverage, ref.Satisfiable)
	}
	if sawPartial {
		if n := coord.resumes.Load(); n == 0 {
			t.Error("partials served but the coordinator never counted a resume")
		}
	}

	// Settled exact verdicts answer from the merged-result cache.
	req.Budget = "10s"
	resp, body := postJSON(t, url+"/v1/check", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("settled re-request: status %d: %s", resp.StatusCode, body)
	}
	var again CheckResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("settled exact verdict not served from the merged-result cache")
	}
	if again.Satisfiable != final.Satisfiable || again.Coverage != 1 {
		t.Errorf("cached answer diverged from settled: %+v vs %+v", again, final)
	}
	if hits := coord.resCache.Stats().Hits; hits == 0 {
		t.Error("merged-result cache hit not counted")
	}
}

// TestServerShardedBatchNDJSONStreaming: Accept: application/x-ndjson turns
// /v1/batch into one line per item in completion order, index-correlated,
// covering every item exactly once — and the default buffered shape is
// untouched without the header.
func TestServerShardedBatchNDJSONStreaming(t *testing.T) {
	ts := newTestServer(t, Config{})
	batch := BatchRequest{Requests: []CheckRequest{
		checkReq(satFormula),
		checkReq(unsatFormula),
		{Relations: testRelations, Formula: "[[["}, // parse error
	}}
	b, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	seen := map[int]BatchStreamItem{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line BatchStreamItem
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if _, dup := seen[line.Index]; dup {
			t.Fatalf("index %d streamed twice", line.Index)
		}
		seen[line.Index] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("streamed %d lines, want 3", len(seen))
	}
	if r := seen[0].Result; r == nil || !r.Satisfiable {
		t.Errorf("item 0 (sat): %+v", seen[0])
	}
	if r := seen[1].Result; r == nil || r.Satisfiable {
		t.Errorf("item 1 (unsat): %+v", seen[1])
	}
	if seen[2].Error == "" {
		t.Errorf("item 2 (parse error) streamed without an error: %+v", seen[2])
	}

	// Without the Accept header the buffered object shape is unchanged.
	respB, body := postJSON(t, ts.URL+"/v1/batch", batch)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("buffered batch: status %d: %s", respB.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("buffered batch did not answer a BatchResponse object: %v", err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("buffered batch answered %d results, want 3", len(out.Results))
	}
}
