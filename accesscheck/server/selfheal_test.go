package server

// Self-healing fabric tests: dynamic membership over real HTTP joins,
// mid-batch worker death healed by a replacement join (no coordinator
// restart), deterministic coverage-tagged partial answers, the structured
// 503 when nothing can accept work, and worker-side failpoints.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accltl/accesscheck"
	"accltl/accesscheck/fabric"
)

// joinWorker registers a worker URL with a coordinator through the real
// POST /v1/join endpoint, as the accserve -join heartbeat would.
func joinWorker(t *testing.T, coordURL, workerURL, ttl string) fabric.JoinResponse {
	t.Helper()
	resp, body := postJSON(t, coordURL+"/v1/join", fabric.JoinRequest{URL: workerURL, TTL: ttl})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join %s: status %d: %s", workerURL, resp.StatusCode, body)
	}
	var jr fabric.JoinResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	return jr
}

// workersView fetches the GET /v1/workers admin view.
func workersView(t *testing.T, coordURL string) struct {
	Workers     []fabric.WorkerStatus `json:"workers"`
	Members     int                   `json:"members"`
	Permanent   int                   `json:"permanent"`
	Joins       uint64                `json:"joins_total"`
	Expirations uint64                `json:"expirations"`
} {
	t.Helper()
	resp, err := http.Get(coordURL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/workers: status %d", resp.StatusCode)
	}
	var view struct {
		Workers     []fabric.WorkerStatus `json:"workers"`
		Members     int                   `json:"members"`
		Permanent   int                   `json:"permanent"`
		Joins       uint64                `json:"joins_total"`
		Expirations uint64                `json:"expirations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

// TestCoordinatorDynamicMembership: a coordinator born with an EMPTY
// membership table serves checks as soon as workers self-register via
// /v1/join, and the answers match single-process verdicts.
func TestCoordinatorDynamicMembership(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	defer ts.Close()

	// Before anyone joins, work is refused with the structured 503.
	resp, body := postJSON(t, ts.URL+"/v1/check", checkReq(satFormula))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty fabric: status %d, want 503: %s", resp.StatusCode, body)
	}

	w1 := newTestServer(t, Config{})
	w2 := newTestServer(t, Config{})
	joinWorker(t, ts.URL, w1.URL, "1m")
	joinWorker(t, ts.URL, w2.URL, "1m")

	view := workersView(t, ts.URL)
	if view.Members != 2 || view.Permanent != 0 || view.Joins != 2 {
		t.Fatalf("membership after two joins = %+v", view)
	}

	for _, formula := range []string{satFormula, unsatFormula} {
		req := checkReq(formula)
		ref := referenceResult(t, req)
		resp, body := postJSON(t, ts.URL+"/v1/check", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", formula[:12], resp.StatusCode, body)
		}
		var out CheckResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		assertEquivalent(t, formula[:12], out, ref)
		if out.ShardsTotal > 0 && out.ShardsCompleted != out.ShardsTotal {
			t.Errorf("%s: coverage %d/%d on a healthy fabric", formula[:12], out.ShardsCompleted, out.ShardsTotal)
		}
	}
}

// TestReplacementJoinHealsFabricMidBatch is the golden self-healing
// scenario: a worker dies mid-batch, a fresh worker joins via /v1/join
// with no coordinator restart, and the fabric recovers. Every answered
// item must either match the single-process verdict exactly (full cover)
// or honestly report partial coverage: Truncated with ShardsCompleted <
// ShardsTotal.
func TestReplacementJoinHealsFabricMidBatch(t *testing.T) {
	alive := newTestServer(t, Config{})
	dying := &dyingWorker{inner: New(Config{})}
	dw := httptest.NewServer(dying)
	defer dw.Close()

	coord, err := NewCoordinator(CoordinatorConfig{
		Retries:    1,
		Backoff:    5 * time.Millisecond,
		HedgeAfter: 50 * time.Millisecond,
		Breaker:    fabric.BreakerConfig{Threshold: 1, Cooldown: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	defer ts.Close()

	// Both workers arrive dynamically — nothing about this fabric was
	// configured at construction time.
	joinWorker(t, ts.URL, alive.URL, "1m")
	joinWorker(t, ts.URL, dw.URL, "1m")

	refSat := referenceResult(t, checkReq(satFormula))
	refUnsat := referenceResult(t, checkReq(unsatFormula))
	refFor := func(i int) *accesscheck.Result {
		if i%2 == 0 {
			return refSat
		}
		return refUnsat
	}

	// Warm run with both up so slices genuinely spread over both workers.
	if resp, body := postJSON(t, ts.URL+"/v1/check", checkReq(satFormula)); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm check: status %d: %s", resp.StatusCode, body)
	}

	dying.dead.Store(true)

	batch := BatchRequest{Requests: []CheckRequest{
		checkReq(satFormula), checkReq(unsatFormula),
		checkReq(satFormula), checkReq(unsatFormula),
	}}
	resp, body := postJSON(t, ts.URL+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch during death: status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if r.Result == nil {
			t.Errorf("item %d failed despite a live worker: %s", i, r.Error)
			continue
		}
		full := r.Result.ShardsTotal == 0 || r.Result.ShardsCompleted == r.Result.ShardsTotal
		if full {
			assertEquivalent(t, fmt.Sprintf("death item %d", i), *r.Result, refFor(i))
		} else if !r.Result.Truncated {
			t.Errorf("item %d: partial cover %d/%d without Truncated",
				i, r.Result.ShardsCompleted, r.Result.ShardsTotal)
		}
	}

	// A replacement self-registers — the coordinator keeps running.
	replacement := newTestServer(t, Config{})
	joinWorker(t, ts.URL, replacement.URL, "1m")
	view := workersView(t, ts.URL)
	if view.Members != 3 {
		t.Fatalf("members after replacement join = %d, want 3", view.Members)
	}

	// With the replacement in the ring (and the dead worker's breaker open,
	// denying it without a wire round-trip), every item is exact again.
	resp, body = postJSON(t, ts.URL+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch after heal: status %d: %s", resp.StatusCode, body)
	}
	out = BatchResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if r.Result == nil {
			t.Errorf("healed item %d failed: %s", i, r.Error)
			continue
		}
		if r.Result.ShardsTotal > 0 && r.Result.ShardsCompleted != r.Result.ShardsTotal {
			t.Errorf("healed item %d: coverage %d/%d, want full",
				i, r.Result.ShardsCompleted, r.Result.ShardsTotal)
			continue
		}
		assertEquivalent(t, fmt.Sprintf("healed item %d", i), *r.Result, refFor(i))
	}
}

// shardIndexFail wraps a worker and, while armed, 500s every /v1/shard
// request whose assignment covers the target canonical index. All other
// traffic passes through.
type shardIndexFail struct {
	inner  http.Handler
	target int
	armed  atomic.Bool
}

func (s *shardIndexFail) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.armed.Load() && r.URL.Path == "/v1/shard" {
		data, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(data))
		var sh fabric.Shard
		if json.Unmarshal(data, &sh) == nil {
			for _, ref := range sh.Shards {
				if ref.Index == s.target {
					http.Error(w, "induced shard failure", http.StatusInternalServerError)
					return
				}
			}
		}
	}
	s.inner.ServeHTTP(w, r)
}

// planAndGroups recomputes the coordinator's affinity grouping for the
// given request over two worker URLs: which worker owns each canonical
// shard.
func planAndGroups(t *testing.T, req CheckRequest, workers []string) ([]accesscheck.ShardID, map[string][]int) {
	t.Helper()
	chk, err := checkerFor(req.Options, 1)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := accesscheck.ParseSchema(req.Relations, req.Methods)
	if err != nil {
		t.Fatal(err)
	}
	f, err := accesscheck.ParseFormula(req.Formula)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := chk.ShardPlan(context.Background(), sch, f)
	if err != nil {
		t.Fatal(err)
	}
	fp := chk.Fingerprint(sch, f)
	router := fabric.NewRouter(workers)
	groups := make(map[string][]int)
	for _, sh := range plan {
		owner := router.Sequence(fabric.RouteKey(fp, sh.Key), len(workers))[0]
		groups[owner] = append(groups[owner], sh.Index)
	}
	return plan, groups
}

// TestCoordinatorPartialAnswerDeterministic: when one shard's slices fail
// on EVERY worker, the coordinator degrades to a coverage-tagged partial —
// 200, Satisfiable=false, Truncated, ShardsCompleted < ShardsTotal (the
// Unknown shape) — and upgrades back to the exact verdict once capacity
// returns, proving the partial was never cached as the answer.
func TestCoordinatorPartialAnswerDeterministic(t *testing.T) {
	req := checkReq(unsatFormula)

	// The wrapped pair must split the plan into at least two affinity
	// groups, or losing the target shard would lose every merged part.
	// Grouping depends on the consistent hash of the (random-port) worker
	// URLs, so redraw the pair until the split happens.
	var f1, f2 *shardIndexFail
	var ws [2]*httptest.Server
	var target int
	found := false
	for attempt := 0; attempt < 30 && !found; attempt++ {
		f1 = &shardIndexFail{inner: New(Config{})}
		f2 = &shardIndexFail{inner: New(Config{})}
		ws[0] = httptest.NewServer(f1)
		ws[1] = httptest.NewServer(f2)
		plan, groups := planAndGroups(t, req, []string{ws[0].URL, ws[1].URL})
		if len(plan) >= 2 && len(groups) >= 2 {
			// Fail a shard from the smaller group so the other group's
			// verdicts survive the degradation.
			smallest := -1
			for _, idxs := range groups {
				if smallest < 0 || len(idxs) < smallest {
					smallest = len(idxs)
					target = idxs[0]
				}
			}
			found = true
			break
		}
		ws[0].Close()
		ws[1].Close()
	}
	if !found {
		t.Skip("plan has fewer than two shards; partial coverage is unreachable")
	}
	defer ws[0].Close()
	defer ws[1].Close()
	f1.target, f2.target = target, target
	f1.armed.Store(true)
	f2.armed.Store(true)

	coord, err := NewCoordinator(CoordinatorConfig{
		Workers: []string{ws[0].URL, ws[1].URL},
		Retries: -1, // no per-worker retries: the failover chain is the test
		Breaker: fabric.BreakerConfig{Threshold: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/check", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded check: status %d, want 200 partial: %s", resp.StatusCode, body)
	}
	var out CheckResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Satisfiable {
		t.Fatalf("partial answer satisfiable: %+v", out)
	}
	if !out.Truncated {
		t.Error("partial unsat answer not marked Truncated (Unknown)")
	}
	if out.ShardsTotal == 0 || out.ShardsCompleted >= out.ShardsTotal {
		t.Errorf("coverage = %d/%d, want a strict partial", out.ShardsCompleted, out.ShardsTotal)
	}
	m := metrics(t, ts)
	if m["accserve_coordinator_partial_answers_total"] == 0 {
		t.Error("partial answer not counted in metrics")
	}

	// Capacity returns: the same check now answers exactly, matching the
	// single-process verdict — the partial did not poison any cache.
	f1.armed.Store(false)
	f2.armed.Store(false)
	ref := referenceResult(t, req)
	resp, body = postJSON(t, ts.URL+"/v1/check", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered check: status %d: %s", resp.StatusCode, body)
	}
	out = CheckResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ShardsCompleted != out.ShardsTotal {
		t.Fatalf("recovered coverage = %d/%d, want full", out.ShardsCompleted, out.ShardsTotal)
	}
	assertEquivalent(t, "recovered", out, ref)
}

// TestCoordinatorNoHealthyWorkers503: both empty membership and an
// all-breakers-open fabric answer the structured 503 with a Retry-After.
func TestCoordinatorNoHealthyWorkers503(t *testing.T) {
	t.Run("empty membership", func(t *testing.T) {
		coord, err := NewCoordinator(CoordinatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(coord)
		defer ts.Close()
		resp, body := postJSON(t, ts.URL+"/v1/check", checkReq(satFormula))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("503 without a Retry-After header")
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		if e.Code != "no_healthy_workers" {
			t.Errorf("error code = %q, want no_healthy_workers", e.Code)
		}
		if e.RetryAfter < 1 {
			t.Errorf("retry_after_seconds = %d, want >= 1", e.RetryAfter)
		}
		m := metrics(t, ts)
		if m["accserve_coordinator_no_workers_total"] == 0 {
			t.Error("refusal not counted in accserve_coordinator_no_workers_total")
		}
	})

	t.Run("all breakers open", func(t *testing.T) {
		// One member whose server is gone: the first check opens its
		// threshold-1 breaker, the second is refused locally with the
		// cooldown-derived Retry-After.
		dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
		deadURL := dead.URL
		dead.Close()
		coord, err := NewCoordinator(CoordinatorConfig{
			Workers: []string{deadURL},
			Retries: -1,
			Breaker: fabric.BreakerConfig{Threshold: 1, Cooldown: 30 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(coord)
		defer ts.Close()

		resp, body := postJSON(t, ts.URL+"/v1/check", checkReq(satFormula))
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("first check: status %d, want 502: %s", resp.StatusCode, body)
		}
		resp, body = postJSON(t, ts.URL+"/v1/check", checkReq(satFormula))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("second check: status %d, want 503: %s", resp.StatusCode, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		if e.Code != "no_healthy_workers" {
			t.Errorf("error code = %q, want no_healthy_workers", e.Code)
		}
		// The hint derives from the 30s cooldown, minus the instants the
		// first check burned.
		if e.RetryAfter < 25 || e.RetryAfter > 30 {
			t.Errorf("retry_after_seconds = %d, want ~30 (breaker cooldown)", e.RetryAfter)
		}
	})
}

// TestLeaseExpiryEvictsWorker: a short real-time lease granted over
// /v1/join lapses without renewal and the member leaves the admin view.
func TestLeaseExpiryEvictsWorker(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	defer ts.Close()

	w := newTestServer(t, Config{})
	jr := joinWorker(t, ts.URL, w.URL, "150ms")
	if jr.Granted != "150ms" {
		t.Fatalf("granted = %q, want 150ms", jr.Granted)
	}
	if view := workersView(t, ts.URL); view.Members != 1 {
		t.Fatalf("members right after join = %d", view.Members)
	}
	time.Sleep(250 * time.Millisecond)
	view := workersView(t, ts.URL)
	if view.Members != 0 || view.Expirations != 1 {
		t.Fatalf("after lease lapse: members=%d expirations=%d, want 0/1",
			view.Members, view.Expirations)
	}

	// Malformed TTLs are rejected at the endpoint.
	resp, _ := postJSON(t, ts.URL+"/v1/join", fabric.JoinRequest{URL: w.URL, TTL: "soonish"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad ttl: status %d, want 400", resp.StatusCode)
	}
}

// TestJoinRefusesURLsItCannotDispatchTo: POST /v1/join takes a worker's
// base URL, http[s]://host[:port], and nothing else. A member joined with
// a stray path answered 404 to every shard (a 4xx neither trips its
// breaker nor degrades the answer), so every fanned-out check that gave it
// a shard failed; a case variant of a member's URL joined as a second
// member, a second place on the ring for one worker.
func TestJoinRefusesURLsItCannotDispatchTo(t *testing.T) {
	coordURL, workers, _ := newFabric(t, 2, CoordinatorConfig{})
	hostPort := strings.TrimPrefix(workers[0].URL, "http://")
	for _, bad := range []string{
		workers[0].URL + "/typo",
		"ftp://" + hostPort,
		"http://u:p@" + hostPort,
		workers[0].URL + "?q=1",
	} {
		resp, body := postJSON(t, coordURL+"/v1/join", fabric.JoinRequest{URL: bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("join %q: status %d, want 400: %s", bad, resp.StatusCode, body)
		}
	}
	if jr := joinWorker(t, coordURL, "HTTP://"+strings.ToUpper(hostPort), "1m"); jr.Worker.URL != workers[0].URL {
		t.Errorf("upper-case join named member %q, want %q", jr.Worker.URL, workers[0].URL)
	}
	if view := workersView(t, coordURL); view.Members != 2 {
		t.Fatalf("members after the joins = %d, want the 2 workers", view.Members)
	}
	// Fresh wide checks fan out over both members and settle exactly.
	for depth := 2; depth < 6; depth++ {
		req := CheckRequest{Relations: wideRelations, Methods: wideMethods, Formula: wideUnsatFormula, Options: &CheckOptions{MaxDepth: depth}}
		resp, body := postJSON(t, coordURL+"/v1/check", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("depth %d: status %d: %s", depth, resp.StatusCode, body)
		}
		var out CheckResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		assertEquivalent(t, fmt.Sprintf("depth %d", depth), out, referenceResult(t, req))
	}
}

// TestWorkerShardFailpoint: a worker armed with worker.shard=err500:1
// injects exactly one 500, then serves normally, and the firing shows up
// in /metrics.
func TestWorkerShardFailpoint(t *testing.T) {
	fps, err := fabric.ParseFailpoints("worker.shard=err500:1")
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Failpoints: fps})

	req := checkReq(unsatFormula)
	sch, _ := accesscheck.ParseSchema(req.Relations, req.Methods)
	f, _ := accesscheck.ParseFormula(req.Formula)
	chk, err := accesscheck.NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := chk.ShardPlan(context.Background(), sch, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) == 0 {
		t.Skip("empty plan")
	}
	wire := &fabric.Shard{
		Version:   fabric.WireVersion,
		Relations: req.Relations,
		Methods:   req.Methods,
		Formula:   req.Formula,
		PlanSize:  len(plan),
		Shards:    []fabric.ShardRef{{Index: 0, Key: plan[0].Key, WholeAccess: plan[0].WholeAccess}},
	}
	resp, body := postJSON(t, ts.URL+"/v1/shard", wire)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("armed shard: status %d, want injected 500: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/shard", wire)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disarmed shard: status %d: %s", resp.StatusCode, body)
	}
	var part fabric.ShardResult
	if err := json.Unmarshal(body, &part); err != nil {
		t.Fatal(err)
	}
	if part.ShardsCompleted != 1 || part.ShardsTotal != len(plan) {
		t.Errorf("worker coverage = %d/%d, want 1/%d", part.ShardsCompleted, part.ShardsTotal, len(plan))
	}
	if m := metrics(t, ts); m["accserve_failpoints_fired_total"] != 1 {
		t.Errorf("failpoints fired = %d, want 1", m["accserve_failpoints_fired_total"])
	}
}
