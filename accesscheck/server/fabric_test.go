package server

// End-to-end tests for the distributed check fabric: a coordinator over two
// real in-process workers (httptest) must answer bit-identically to a
// single-process Checker.Check across the golden option grid, keep
// answering when a worker dies mid-batch, and expose per-worker health.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accltl/accesscheck"
	"accltl/accesscheck/fabric"
	"accltl/internal/workload"
)

// goldenGrid is the option grid fanned-out checks are compared against
// single-process runs on. MaxPaths cells are deliberately absent: a path
// cap lands at a different point in each subset's walk, so capped counts
// are not comparable across partitions (the lts tests pin that contract).
var goldenGrid = []*CheckOptions{
	nil,
	{Engine: "bounded"},
	{Grounded: true},
	{MaxDepth: 4},
	{MaxResponseChoices: 2},
	{Grounded: true, MaxDepth: 5},
	{AllExact: true},
}

func gridName(o *CheckOptions) string {
	if o == nil {
		return "default"
	}
	b, _ := json.Marshal(o)
	return string(b)
}

// newFabric starts n worker servers and a coordinator over them, returning
// the coordinator's URL, the workers' test servers, and the coordinator
// itself (for registry and metrics access).
func newFabric(t *testing.T, n int, ccfg CoordinatorConfig) (string, []*httptest.Server, *Coordinator) {
	t.Helper()
	workers := make([]*httptest.Server, n)
	for i := range workers {
		workers[i] = httptest.NewServer(New(Config{}))
		t.Cleanup(workers[i].Close)
		ccfg.Workers = append(ccfg.Workers, workers[i].URL)
	}
	coord, err := NewCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	return ts.URL, workers, coord
}

// referenceResult solves the request single-process, through the same
// option mapping the workers use.
func referenceResult(t *testing.T, req CheckRequest) *accesscheck.Result {
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
	res, err := chk.Check(context.Background(), sch, f)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertEquivalent(t *testing.T, label string, got CheckResponse, ref *accesscheck.Result) {
	t.Helper()
	if got.Satisfiable != ref.Satisfiable {
		t.Errorf("%s: satisfiable = %v, want %v", label, got.Satisfiable, ref.Satisfiable)
	}
	if got.Engine != ref.Engine.String() {
		t.Errorf("%s: engine = %q, want %q", label, got.Engine, ref.Engine)
	}
	if got.Fragment != ref.Fragment.String() {
		t.Errorf("%s: fragment = %q, want %q", label, got.Fragment, ref.Fragment)
	}
	if got.InFragment != ref.InFragment || got.Decidable != ref.Decidable {
		t.Errorf("%s: in_fragment/decidable = %v/%v, want %v/%v",
			label, got.InFragment, got.Decidable, ref.InFragment, ref.Decidable)
	}
	if got.Depth != ref.Depth {
		t.Errorf("%s: depth = %d, want %d", label, got.Depth, ref.Depth)
	}
	if ref.Satisfiable {
		if got.Witness == "" {
			t.Errorf("%s: satisfiable without a witness", label)
		}
		return
	}
	// Unsat verdicts come from exhausting the whole partition, so the
	// merged report counts must reproduce the serial search exactly.
	if got.Truncated != ref.Truncated || got.ResponsesCapped != ref.ResponsesCapped {
		t.Errorf("%s: truncated/responses_capped = %v/%v, want %v/%v",
			label, got.Truncated, got.ResponsesCapped, ref.Truncated, ref.ResponsesCapped)
	}
	if got.PathsExplored != ref.PathsExplored {
		t.Errorf("%s: paths_explored = %d, want %d", label, got.PathsExplored, ref.PathsExplored)
	}
}

// TestCoordinatorEquivalenceGrid: coordinator + two workers answer every
// golden grid cell bit-identically to a single-process check.
func TestCoordinatorEquivalenceGrid(t *testing.T) {
	url, _, coord := newFabric(t, 2, CoordinatorConfig{})
	for _, opts := range goldenGrid {
		for _, formula := range []string{satFormula, unsatFormula} {
			req := checkReq(formula)
			req.Options = opts
			label := fmt.Sprintf("%s/%s", gridName(opts), formula[:12])
			ref := referenceResult(t, req)
			resp, body := postJSON(t, url+"/v1/check", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d: %s", label, resp.StatusCode, body)
				continue
			}
			var out CheckResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, label, out, ref)
		}
	}
	// The grid must actually exercise the fan-out path, not fall back to
	// forwarding every cell.
	if got := coord.fanouts.Load(); got == 0 {
		t.Error("no grid cell took the shard fan-out path")
	}
}

// TestCoordinatorBatchEquivalence: /v1/batch through the fabric lines up
// item-for-item with single-process results, including per-item errors.
func TestCoordinatorBatchEquivalence(t *testing.T) {
	url, _, _ := newFabric(t, 2, CoordinatorConfig{})
	batch := BatchRequest{Requests: []CheckRequest{
		checkReq(satFormula),
		checkReq(unsatFormula),
		{Relations: testRelations, Formula: "[[["},
		checkReq(satFormula),
	}}
	resp, body := postJSON(t, url+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(out.Results))
	}
	for _, i := range []int{0, 3} {
		if r := out.Results[i]; r.Result == nil || !r.Result.Satisfiable {
			t.Errorf("item %d: %+v, want satisfiable", i, r)
		}
	}
	if r := out.Results[1]; r.Result == nil || r.Result.Satisfiable {
		t.Errorf("item 1: %+v, want unsatisfiable", r)
	}
	if r := out.Results[2]; r.Error == "" {
		t.Error("item 2: parse failure not reported")
	}
	ref := referenceResult(t, checkReq(unsatFormula))
	assertEquivalent(t, "batch item 1", *out.Results[1].Result, ref)
}

// TestCoordinatorCacheAffinity: repeating a check routes each slice back
// to the worker that already holds its shard-keyed cache entry, so the
// second merged answer is fully cached.
func TestCoordinatorCacheAffinity(t *testing.T) {
	url, _, _ := newFabric(t, 2, CoordinatorConfig{})
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, url+"/v1/check", checkReq(unsatFormula))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		var out CheckResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if want := i > 0; out.Cached != want {
			t.Errorf("request %d: cached = %v, want %v", i, out.Cached, want)
		}
	}
}

// dyingWorker wraps a real worker and kills every connection once tripped,
// like a process dying mid-batch: requests already accepted are aborted
// without a response, later ones fail the same way.
type dyingWorker struct {
	inner http.Handler
	dead  atomic.Bool
}

func (d *dyingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	d.inner.ServeHTTP(w, r)
}

// TestCoordinatorSurvivesWorkerDeathMidBatch: with one of two workers dead,
// every batch item must still answer correctly via retry/failover, and the
// coordinator must report the fabric as degraded.
func TestCoordinatorSurvivesWorkerDeathMidBatch(t *testing.T) {
	alive := httptest.NewServer(New(Config{}))
	defer alive.Close()
	dying := &dyingWorker{inner: New(Config{})}
	dw := httptest.NewServer(dying)
	defer dw.Close()

	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:    []string{alive.URL, dw.URL},
		Retries:    1,
		Backoff:    5 * time.Millisecond,
		HedgeAfter: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	defer ts.Close()

	// Warm run with both workers up: the fan-out path spreads slices over
	// both, so the later batch genuinely loses in-flight capacity.
	resp, body := postJSON(t, ts.URL+"/v1/check", checkReq(satFormula))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm check: status %d: %s", resp.StatusCode, body)
	}

	dying.dead.Store(true)

	batch := BatchRequest{Requests: []CheckRequest{
		checkReq(satFormula),
		checkReq(unsatFormula),
		checkReq(satFormula),
		checkReq(unsatFormula),
	}}
	resp, body = postJSON(t, ts.URL+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with dead worker: status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	wantSat := []bool{true, false, true, false}
	for i, r := range out.Results {
		if r.Result == nil {
			t.Errorf("item %d failed despite a live worker: %s", i, r.Error)
			continue
		}
		if r.Result.Satisfiable != wantSat[i] {
			t.Errorf("item %d: satisfiable = %v, want %v", i, r.Result.Satisfiable, wantSat[i])
		}
	}

	// The dead worker must show up in per-worker health.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Status  string                `json:"status"`
		Workers []fabric.WorkerStatus `json:"workers"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusOK || health.Status != "degraded" {
		t.Errorf("healthz = %d %q, want 200 \"degraded\"", hresp.StatusCode, health.Status)
	}
	downSeen := false
	for _, ws := range health.Workers {
		if ws.URL == dw.URL && !ws.Healthy {
			downSeen = true
		}
		if ws.URL == alive.URL && !ws.Healthy {
			t.Error("live worker reported unhealthy")
		}
	}
	if !downSeen {
		t.Error("dead worker not reported unhealthy")
	}
}

// TestCoordinatorMetrics: the coordinator exposes fabric dispatch counters
// and per-worker health gauges.
func TestCoordinatorMetrics(t *testing.T) {
	url, workers, _ := newFabric(t, 2, CoordinatorConfig{})
	postJSON(t, url+"/v1/check", checkReq(satFormula))
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"accserve_coordinator_checks_total",
		"accserve_fabric_shards_dispatched_total",
		"accserve_fabric_retries_total",
		"accserve_fabric_hedges_total",
		fmt.Sprintf("accserve_worker_up{worker=%q} 1", workers[0].URL),
		fmt.Sprintf("accserve_worker_up{worker=%q} 1", workers[1].URL),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestWorkerShardEndpoint: POST /v1/shard on a plain server runs exactly
// the assigned slices, and per-slice results merge back to the
// single-process verdict.
func TestWorkerShardEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := checkReq(unsatFormula)
	ref := referenceResult(t, req)

	sch, err := accesscheck.ParseSchema(req.Relations, req.Methods)
	if err != nil {
		t.Fatal(err)
	}
	f, err := accesscheck.ParseFormula(req.Formula)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := accesscheck.NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := chk.ShardPlan(context.Background(), sch, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) < 2 {
		t.Fatalf("want a multi-shard plan, got %d", len(plan))
	}

	wireFor := func(refs []fabric.ShardRef) *fabric.Shard {
		return &fabric.Shard{
			Version:   fabric.WireVersion,
			Relations: req.Relations,
			Methods:   req.Methods,
			Formula:   req.Formula,
			PlanSize:  len(plan),
			Shards:    refs,
		}
	}

	// One request per slice; merging all partials reproduces the serial run.
	parts := make([]fabric.ShardResult, 0, len(plan))
	for _, sh := range plan {
		wire := wireFor([]fabric.ShardRef{{Index: sh.Index, Key: sh.Key, WholeAccess: sh.WholeAccess}})
		resp, body := postJSON(t, ts.URL+"/v1/shard", wire)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d: status %d: %s", sh.Index, resp.StatusCode, body)
		}
		var part fabric.ShardResult
		if err := json.Unmarshal(body, &part); err != nil {
			t.Fatal(err)
		}
		if len(part.Shards) != 1 || part.Shards[0] != sh.Index {
			t.Fatalf("shard %d: result covers %v", sh.Index, part.Shards)
		}
		parts = append(parts, part)
	}
	merged, err := fabric.Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Satisfiable != ref.Satisfiable || merged.PathsExplored != ref.PathsExplored {
		t.Errorf("merged verdict/paths = %v/%d, want %v/%d",
			merged.Satisfiable, merged.PathsExplored, ref.Satisfiable, ref.PathsExplored)
	}
	if merged.Truncated != ref.Truncated {
		t.Errorf("merged truncated = %v, want %v", merged.Truncated, ref.Truncated)
	}

	// A stale or tampered plan view must be rejected with 409, visibly in
	// metrics, never silently searched.
	bad := wireFor([]fabric.ShardRef{{Index: 0, Key: "not-the-canonical-key"}})
	resp, body := postJSON(t, ts.URL+"/v1/shard", bad)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("tampered key: status %d, want 409: %s", resp.StatusCode, body)
	}
	bad = wireFor([]fabric.ShardRef{{Index: 0, Key: plan[0].Key, WholeAccess: plan[0].WholeAccess}})
	bad.PlanSize = len(plan) + 3
	resp, body = postJSON(t, ts.URL+"/v1/shard", bad)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("wrong plan size: status %d, want 409: %s", resp.StatusCode, body)
	}
	m := metrics(t, ts)
	if m["accserve_shard_plan_mismatches_total"] != 2 {
		t.Errorf("plan mismatches = %d, want 2", m["accserve_shard_plan_mismatches_total"])
	}
	if m["accserve_shard_checks_total"] == 0 {
		t.Error("shard solves not counted")
	}

	// Foreign wire versions are a 400, not a guess.
	bad = wireFor([]fabric.ShardRef{{Index: 0, Key: plan[0].Key, WholeAccess: plan[0].WholeAccess}})
	bad.Version = 99
	resp, body = postJSON(t, ts.URL+"/v1/shard", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("foreign version: status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestWorkerShardCaching: partial results are cached under the shard-keyed
// fingerprint; a repeat of the same slice is a hit, and the slice entry
// never answers the full check.
func TestWorkerShardCaching(t *testing.T) {
	ts := newTestServer(t, Config{})
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
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/shard", wire)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		var part fabric.ShardResult
		if err := json.Unmarshal(body, &part); err != nil {
			t.Fatal(err)
		}
		if want := i > 0; part.Cached != want {
			t.Errorf("request %d: cached = %v, want %v", i, part.Cached, want)
		}
	}
	// The full check must not be served from the slice's cache entry.
	resp, body := postJSON(t, ts.URL+"/v1/check", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full check: status %d: %s", resp.StatusCode, body)
	}
	var out CheckResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Error("full check served from a partial result's cache entry")
	}
}

// shardGroup is the wire shard assigning the given canonical indexes of
// req's plan, with the true keys and plan size.
func shardGroup(t *testing.T, req CheckRequest, indexes ...int) *fabric.Shard {
	t.Helper()
	sch, err := accesscheck.ParseSchema(req.Relations, req.Methods)
	if err != nil {
		t.Fatal(err)
	}
	f, err := accesscheck.ParseFormula(req.Formula)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := (&accesscheck.Checker{}).ShardPlan(context.Background(), sch, f)
	if err != nil {
		t.Fatal(err)
	}
	wire := &fabric.Shard{
		Version:   fabric.WireVersion,
		Relations: req.Relations,
		Methods:   req.Methods,
		Formula:   req.Formula,
		PlanSize:  len(plan),
	}
	for _, i := range indexes {
		if i >= len(plan) {
			t.Fatalf("plan has %d shards, no index %d", len(plan), i)
		}
		wire.Shards = append(wire.Shards, fabric.ShardRef{Index: i, Key: plan[i].Key, WholeAccess: plan[i].WholeAccess})
	}
	return wire
}

// postShard posts a wire shard and decodes a 200 answer.
func postShard(t *testing.T, url string, wire *fabric.Shard) fabric.ShardResult {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/shard", wire)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var part fabric.ShardResult
	if err := json.Unmarshal(body, &part); err != nil {
		t.Fatal(err)
	}
	return part
}

// TestWorkerShardRepeatSkipsPlanning: a worker answers a shard group it
// verified and settled from its cache tiers before any planning, so a
// repeat under a budget no plan could meet ("1ns") still answers 200
// cached, with the settled verdict — from the memory tier, and from the
// disk tier after a restart over the same CacheDir — and never solves
// again. A tampered view of the same group misses: under the dead budget
// it reaches planning and expires rather than answering.
func TestWorkerShardRepeatSkipsPlanning(t *testing.T) {
	cfg := Config{CacheSize: 8, CacheDir: t.TempDir()}
	wire := shardGroup(t, checkReq(unsatFormula), 0, 1)
	dead := *wire
	dead.Budget = "1ns"
	same := func(phase string, got, want fabric.ShardResult) {
		t.Helper()
		if !got.Cached {
			t.Errorf("%s: repeat not answered from the cache: %+v", phase, got)
		}
		if got.Satisfiable != want.Satisfiable || got.PathsExplored != want.PathsExplored ||
			got.Depth != want.Depth || got.Truncated != want.Truncated ||
			!reflect.DeepEqual(got.Shards, want.Shards) || got.ShardsTotal != want.ShardsTotal {
			t.Errorf("%s: cached answer %+v, settled %+v", phase, got, want)
		}
	}

	s1 := New(cfg)
	ts1 := httptest.NewServer(s1)
	settled := postShard(t, ts1.URL, wire)
	if settled.Cached {
		t.Fatalf("first request answered from an empty cache: %+v", settled)
	}
	same("memory", postShard(t, ts1.URL, &dead), settled)
	tampered := dead
	tampered.Shards = []fabric.ShardRef{wire.Shards[0], {Index: 1, Key: "not-the-canonical-key"}}
	if resp, body := postJSON(t, ts1.URL+"/v1/shard", &tampered); resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("tampered view under a dead budget: status %d, want 504: %s", resp.StatusCode, body)
	}
	m := metrics(t, ts1)
	if m["accserve_shard_checks_total"] != 1 || m["accserve_shard_plan_mismatches_total"] != 0 {
		t.Errorf("memory phase: %d shard solves, %d mismatches; want 1 and 0",
			m["accserve_shard_checks_total"], m["accserve_shard_plan_mismatches_total"])
	}
	ts1.Close()
	if err := s1.Close(); err != nil { // write-behind: residents flush here
		t.Fatalf("close: %v", err)
	}

	s2 := New(cfg)
	ts2 := httptest.NewServer(s2)
	t.Cleanup(ts2.Close)
	t.Cleanup(func() { s2.Close() })
	same("disk", postShard(t, ts2.URL, &dead), settled)
	m = metrics(t, ts2)
	if m["accserve_shard_checks_total"] != 0 || m[`accserve_cache_tier_hits_total{tier="disk"}`] != 1 {
		t.Errorf("disk phase: %d shard solves, %d disk hits; want 0 and 1",
			m["accserve_shard_checks_total"], m[`accserve_cache_tier_hits_total{tier="disk"}`])
	}
}

// TestDeadlineCarriesRetryAfter: on both roles, every budgeted route
// answers a blown own budget the same way — a 504 naming budget_exhausted
// with a machine-readable backoff in both the Retry-After header and the
// structured JSON body, or, on a batch, that message on every item — and
// counts it once, as a budget expiry, never as a dispatch error.
func TestDeadlineCarriesRetryAfter(t *testing.T) {
	const wantMsg = "context deadline exceeded: request budget exhausted"
	check := checkReq(unsatFormula)
	check.Options = &CheckOptions{MaxDepth: 8, Engine: "bounded"}
	check.Budget = "1ns"
	containment := containmentReq(workload.ContainmentScenarios()[0])
	containment.Budget = "1ns"
	relevance := relevanceReq(workload.RelevanceScenarios()[0])
	relevance.Budget = "1ns"
	chase := ChaseRequest{Arities: []string{"R:3"}, FDs: []string{"R:0->1", "R:1->2"}, Sigma: "R:0->2", Budget: "1ns"}
	batch := BatchRequest{Items: []TaskRequest{
		{Task: "check", Check: &check},
		{Task: "containment", Containment: &containment},
		{Task: "relevance", Relevance: &relevance},
		{Task: "chase", Chase: &chase},
	}}
	routes := []struct {
		path     string
		body     any
		expiries int
	}{
		{"/v1/check", check, 1},
		{"/v1/containment", containment, 1},
		{"/v1/relevance", relevance, 1},
		{"/v1/chase", chase, 1},
		{"/v1/batch", batch, len(batch.Items)},
	}
	for _, rl := range roles(t, Config{}) {
		for _, rt := range routes {
			label := rl.name + " " + rt.path
			before := metricsAt(t, rl.url)
			resp, body := postJSON(t, rl.url+rt.path, rt.body)
			if rt.path == "/v1/batch" {
				var out BatchResponse
				if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil {
					t.Fatalf("%s: status %d: %s", label, resp.StatusCode, body)
				}
				for i, item := range out.Results {
					if item.Error != wantMsg {
						t.Errorf("%s item %d: error %q, want %q", label, i, item.Error, wantMsg)
					}
				}
			} else {
				if resp.StatusCode != http.StatusGatewayTimeout {
					t.Fatalf("%s: status %d, want 504: %s", label, resp.StatusCode, body)
				}
				if got := resp.Header.Get("Retry-After"); got != "1" {
					t.Errorf("%s: Retry-After = %q, want \"1\" (1ns budget rounds up to 1s)", label, got)
				}
				var e errorResponse
				if err := json.Unmarshal(body, &e); err != nil {
					t.Fatal(err)
				}
				if e.Code != "budget_exhausted" {
					t.Errorf("%s: error code = %q, want \"budget_exhausted\" (own-budget expiry names its cause)", label, e.Code)
				}
				if e.RetryAfter != 1 {
					t.Errorf("%s: retry_after_seconds = %d, want 1", label, e.RetryAfter)
				}
				if e.Error != wantMsg {
					t.Errorf("%s: message %q, want %q", label, e.Error, wantMsg)
				}
			}
			after := metricsAt(t, rl.url)
			if d := after[rl.prefix+"budget_exhausted_total"] - before[rl.prefix+"budget_exhausted_total"]; d != rt.expiries {
				t.Errorf("%s: %sbudget_exhausted_total moved by %d, want %d", label, rl.prefix, d, rt.expiries)
			}
			const dispatchErrs = "accserve_coordinator_dispatch_errors_total"
			if d := after[dispatchErrs] - before[dispatchErrs]; d != 0 {
				t.Errorf("%s: expiry counted as %d dispatch error(s)", label, d)
			}
		}
	}
}

// TestCacheEvictionsExposed: overflowing a 1-entry cache with two distinct
// exact results increments the memory tier's eviction counter.
func TestCacheEvictionsExposed(t *testing.T) {
	ts := newTestServer(t, Config{CacheSize: 1})
	postJSON(t, ts.URL+"/v1/check", checkReq(satFormula))
	postJSON(t, ts.URL+"/v1/check", checkReq(unsatFormula))
	m := metrics(t, ts)
	if m[`accserve_cache_tier_evictions_total{tier="memory"}`] == 0 {
		t.Error("eviction not counted after overflowing a 1-entry cache")
	}
}

// TestFabricScrapedMetricNames guards the /metrics names the serving
// benchmark (perfbench/trace.go) and the fabric smoke script read. The
// benchmark sums each name over the coordinator and the workers, so a name
// that goes missing silently reads 0, and a name that starts appearing on
// the other role is counted twice. Every scraped name must appear on
// exactly the role that emits it: the coordinator's accserve_coordinator_,
// accserve_fabric_ and accserve_registry_ families, and the workers'
// everything else.
func TestFabricScrapedMetricNames(t *testing.T) {
	name := regexp.MustCompile(`accserve_[a-z_]+(\{[a-z]+="[a-z]+"\})?`)
	var scraped []string
	for _, src := range []string{"../../perfbench/trace.go", "../../scripts/fabric_smoke.sh"} {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		found := name.FindAllString(string(data), -1)
		if len(found) == 0 {
			t.Fatalf("%s names no accserve_ metric", src)
		}
		scraped = append(scraped, found...)
	}

	var workers []string
	for i := 0; i < 2; i++ {
		srv := New(Config{CacheDir: t.TempDir()})
		ts := httptest.NewServer(srv)
		t.Cleanup(func() { ts.Close(); srv.Close() })
		workers = append(workers, ts.URL)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord)
	t.Cleanup(cts.Close)
	for route, body := range map[string]any{
		"/v1/check":       checkReq(unsatFormula),
		"/v1/containment": containmentReq(workload.ContainmentScenarios()[0]),
	} {
		if resp, out := postJSON(t, cts.URL+route, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", route, resp.StatusCode, out)
		}
	}

	onCoord, onWorker := metricsAt(t, cts.URL), metricsAt(t, workers[0])
	for _, n := range scraped {
		coordOnly := strings.HasPrefix(n, "accserve_coordinator_") ||
			strings.HasPrefix(n, "accserve_fabric_") || strings.HasPrefix(n, "accserve_registry_")
		_, c := onCoord[n]
		_, w := onWorker[n]
		if c != coordOnly || w == coordOnly {
			t.Errorf("%s: on coordinator %v, on worker %v; want it on the %s only",
				n, c, w, map[bool]string{true: "coordinator", false: "workers"}[coordOnly])
		}
	}
}
