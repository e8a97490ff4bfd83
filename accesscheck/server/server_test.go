package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The test schema is the paper's phone-directory example: Mobile# with a
// boolean access on the number, Address with an access on (street, postcode).
var testRelations = []string{
	"Mobile#:string,string,string,int",
	"Address:string,string,string,int",
}

var testMethods = []string{
	"AcM1:Mobile#:0",
	"AcM2:Address:0,1",
}

// satFormula has a short witness (bind AcM1 eventually fires);
// unsatFormula demands a pre-populated Mobile# fact that no access can
// produce before the first transition under an empty I0 with G-always
// scope, making it unsatisfiable within the bound.
const (
	satFormula   = `(![exists n,p,s,ph. pre Mobile#(n,p,s,ph)]) U [exists n. bind AcM1(n)]`
	unsatFormula = `[exists n,p,s,ph. pre Mobile#(n,p,s,ph)] & (![exists n,p,s,ph. pre Mobile#(n,p,s,ph)])`
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg))
	t.Cleanup(ts.Close)
	return ts
}

// postJSONErr is the goroutine-safe transport helper: callers off the test
// goroutine must use it (t.Fatal from a spawned goroutine only kills that
// goroutine and silently corrupts the test).
func postJSONErr(url string, body any) (int, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out.Bytes(), nil
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func checkReq(formula string) CheckRequest {
	return CheckRequest{Relations: testRelations, Methods: testMethods, Formula: formula}
}

func TestCheckEndpointVerdicts(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/check", checkReq(satFormula))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out CheckResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Satisfiable {
		t.Errorf("sat formula reported unsatisfiable: %+v", out)
	}
	if out.Witness == "" {
		t.Error("satisfiable without a witness")
	}
	if out.Cached {
		t.Error("first solve claims to be cached")
	}

	resp, body = postJSON(t, ts.URL+"/v1/check", checkReq(unsatFormula))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Satisfiable {
		t.Errorf("unsat formula reported satisfiable: %+v", out)
	}
}

func TestCheckEndpointBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []CheckRequest{
		{},                         // everything missing
		{Relations: testRelations}, // no formula
		{Formula: satFormula},      // no relations
		{Relations: []string{"nope"}, Formula: satFormula},              // bad relation decl
		{Relations: testRelations, Formula: "[[["},                      // bad formula
		{Relations: testRelations, Formula: satFormula, Budget: "huh"},  // bad budget
		{Relations: testRelations, Formula: satFormula, Budget: "-5ms"}, // negative budget
	}
	for i, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/check", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400: %s", i, resp.StatusCode, body)
		}
	}
}

// TestCheckEndpointSchemaNames: a relation or method name must lex as one
// formula identifier. "R(int); S:int" used to declare one relation that
// rendered like the two relations R and S, sharing their cache keys; it is
// refused with a 400 now. A name with a non-ASCII letter checks end to
// end, formula and all.
func TestCheckEndpointSchemaNames(t *testing.T) {
	ts := newTestServer(t, Config{})
	odd := CheckRequest{Relations: []string{"R(int); S:int", "T:int"}, Methods: []string{"scanT:T"}, Formula: "F [bind scanT]"}
	resp, body := postJSON(t, ts.URL+"/v1/check", odd)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "not an identifier") {
		t.Errorf("relation named %q: status %d, want 400 naming the identifier rule: %s", "R(int); S", resp.StatusCode, body)
	}

	cafe := CheckRequest{Relations: []string{"Café:int"}, Methods: []string{"scanCafé:Café"}, Formula: "F [exists x. post Café(x)]"}
	resp, body = postJSON(t, ts.URL+"/v1/check", cafe)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("Café check: status %d: %s", resp.StatusCode, body)
	}
	var out CheckResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Satisfiable || !strings.Contains(out.Witness, "scanCafé") {
		t.Errorf("Café check: satisfiable %v, witness %q; want a witness scanning Café", out.Satisfiable, out.Witness)
	}
}

// exactReq is the check of a schema with one free scan, scanR, under
// exact_methods names: R must be empty after the first access and
// non-empty later, which an exact scanR rules out and a subset scan allows.
func exactReq(names ...string) CheckRequest {
	return CheckRequest{
		Relations: []string{"R:int,int"},
		Methods:   []string{"scanR:R:"},
		Formula:   "(![exists x,y. post R(x,y)]) & (F [exists x,y. post R(x,y)])",
		Options:   &CheckOptions{ExactMethods: names},
	}
}

// TestCheckRefusesUnknownExactMethod: an exact method the schema does not
// declare answers 400 naming it on both roles, before any cache tier is
// probed, so no hit or miss counter moves. It used to be ignored: the
// check without it (satisfiable) was answered, and cached as exact. The
// declared name answers the check it asks (unsatisfiable).
func TestCheckRefusesUnknownExactMethod(t *testing.T) {
	for _, r := range roles(t, Config{}) {
		before := metricsAt(t, r.url)
		resp, body := postJSON(t, r.url+"/v1/check", exactReq("scnR"))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "scnR") {
			t.Errorf("%s: status %d, want 400 naming scnR: %s", r.name, resp.StatusCode, body)
		}
		for name, n := range metricsAt(t, r.url) {
			if (strings.Contains(name, "hits") || strings.Contains(name, "misses")) && n != before[name] {
				t.Errorf("%s: %s moved from %d to %d", r.name, name, before[name], n)
			}
		}
		resp, body = postJSON(t, r.url+"/v1/check", exactReq("scanR"))
		var out CheckResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil || out.Satisfiable || out.Truncated {
			t.Errorf("%s: exact scanR: status %d, want 200 with an exact unsat: %s", r.name, resp.StatusCode, body)
		}
	}
}

// role is one front of the request spine: a standalone server or a
// coordinator over two workers. prefix starts the role's shared metric
// names; own is a POST route only this role serves.
type role struct {
	name, url, prefix, own string
}

// roles starts both fronts over cfg; the coordinator's workers take the
// defaults.
func roles(t *testing.T, cfg Config) []role {
	t.Helper()
	ts := newTestServer(t, cfg)
	url, _, _ := newFabric(t, 2, CoordinatorConfig{Server: cfg})
	return []role{
		{name: "server", url: ts.URL, prefix: "accserve_", own: "/v1/shard"},
		{name: "coordinator", url: url, prefix: "accserve_coordinator_", own: "/v1/join"},
	}
}

func metrics(t *testing.T, ts *httptest.Server) map[string]int {
	t.Helper()
	return metricsAt(t, ts.URL)
}

func metricsAt(t *testing.T, url string) map[string]int {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int)
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			// Ratio and estimate gauges are floats; keep the integer map
			// shape and floor them (assertions only read counters).
			f, ferr := strconv.ParseFloat(fields[1], 64)
			if ferr != nil {
				t.Fatalf("bad metric line %q", line)
			}
			n = int(f)
		}
		out[fields[0]] = n
	}
	return out
}

// TestRepeatedRequestsHitCache: the second identical request must be served
// from the cache, observably via the stats endpoint and the cached flag.
func TestRepeatedRequestsHitCache(t *testing.T) {
	ts := newTestServer(t, Config{})
	var out CheckResponse
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/check", checkReq(satFormula))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if want := i > 0; out.Cached != want {
			t.Errorf("request %d: cached = %v, want %v", i, out.Cached, want)
		}
	}
	m := metrics(t, ts)
	if m[`accserve_cache_tier_hits_total{tier="memory"}`] != 2 {
		t.Errorf("cache hits = %d, want 2", m[`accserve_cache_tier_hits_total{tier="memory"}`])
	}
	if m[`accserve_cache_tier_misses_total{tier="memory"}`] != 1 {
		t.Errorf("cache misses = %d, want 1", m[`accserve_cache_tier_misses_total{tier="memory"}`])
	}
	if m["accserve_checks_total"] != 1 {
		t.Errorf("solves = %d, want 1 (second and third served from cache)", m["accserve_checks_total"])
	}
}

// TestDifferentOptionsMissCache: the fingerprint covers options, so the
// same schema/formula under different restrictions re-solves.
func TestDifferentOptionsMissCache(t *testing.T) {
	ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/check", checkReq(satFormula))
	req := checkReq(satFormula)
	req.Options = &CheckOptions{Grounded: true}
	_, body := postJSON(t, ts.URL+"/v1/check", req)
	var out CheckResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Error("request with different options served from cache")
	}
}

// TestBatchMixedVerdicts: a batch of sat/unsat/broken requests returns
// correct per-item outcomes in order.
func TestBatchMixedVerdicts(t *testing.T) {
	ts := newTestServer(t, Config{})
	batch := BatchRequest{Requests: []CheckRequest{
		checkReq(satFormula),
		checkReq(unsatFormula),
		{Relations: testRelations, Formula: "[[["},
		checkReq(satFormula),
	}}
	resp, body := postJSON(t, ts.URL+"/v1/batch", batch)
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
	if r := out.Results[0]; r.Result == nil || !r.Result.Satisfiable {
		t.Errorf("item 0: %+v, want satisfiable", r)
	}
	if r := out.Results[1]; r.Result == nil || r.Result.Satisfiable {
		t.Errorf("item 1: %+v, want unsatisfiable", r)
	}
	if r := out.Results[2]; r.Error == "" {
		t.Errorf("item 2: parse failure not reported")
	}
	if r := out.Results[3]; r.Result == nil || !r.Result.Satisfiable {
		t.Errorf("item 3: %+v, want satisfiable", r)
	}
	// Re-sending the whole batch: the exact items (sat and unsat) are now
	// cached; only the broken item still fails.
	resp, body = postJSON(t, ts.URL+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat batch: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 3} {
		if r := out.Results[i]; r.Result == nil || !r.Result.Cached {
			t.Errorf("repeat batch item %d not served from cache: %+v", i, r)
		}
	}
}

func TestBatchLimits(t *testing.T) {
	ts := newTestServer(t, Config{MaxBatch: 2})
	resp, _ := postJSON(t, ts.URL+"/v1/batch", BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: []CheckRequest{
		checkReq(satFormula), checkReq(satFormula), checkReq(satFormula),
	}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413", resp.StatusCode)
	}
}

// TestTinyBudgetReturnsDeadlineError: a budget far below the solve time
// must produce a 504, not a hang. The formula forces the bounded engine
// over a deep search.
func TestTinyBudgetReturnsDeadlineError(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := checkReq(unsatFormula)
	req.Options = &CheckOptions{MaxDepth: 8, Engine: "bounded"}
	req.Budget = "1ns"
	done := make(chan struct{})
	var status int
	var body []byte
	var postErr error
	go func() {
		defer close(done)
		status, body, postErr = postJSONErr(ts.URL+"/v1/check", req)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("tiny-budget request hung")
	}
	if postErr != nil {
		t.Fatal(postErr)
	}
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, body)
	}
	m := metrics(t, ts)
	if m["accserve_deadline_exceeded_total"] == 0 {
		t.Error("deadline expiry not counted in metrics")
	}
}

// TestBudgetQueryParameter: ?budget= applies when the body names none.
func TestBudgetQueryParameter(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := checkReq(unsatFormula)
	req.Options = &CheckOptions{MaxDepth: 8, Engine: "bounded"}
	resp, body := postJSON(t, ts.URL+"/v1/check?budget=1ns", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
}

// TestTruncatedResultsNotCached: a capped search is served with
// truncated=true but never enters the cache — the repeat re-solves.
func TestTruncatedResultsNotCached(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := checkReq(unsatFormula)
	req.Options = &CheckOptions{MaxPaths: 3} // cap cuts the unsat search
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/check", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		var out CheckResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Truncated {
			t.Fatalf("request %d: capped search not flagged truncated: %+v", i, out)
		}
		if out.Cached {
			t.Errorf("request %d: truncated result served from cache", i)
		}
	}
	m := metrics(t, ts)
	if m["accserve_truncations_total"] != 2 {
		t.Errorf("truncations = %d, want 2 (both solves capped)", m["accserve_truncations_total"])
	}
	if m[`accserve_cache_tier_hits_total{tier="memory"}`] != 0 {
		t.Errorf("cache hits = %d, want 0", m[`accserve_cache_tier_hits_total{tier="memory"}`])
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

// TestConcurrentMixedTraffic drives the server with parallel check and
// batch requests; run under -race this exercises the cache and counters
// for data races.
func TestConcurrentMixedTraffic(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 4, CacheSize: 8})
	formulas := []string{satFormula, unsatFormula}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				f := formulas[(g+i)%len(formulas)]
				if g%2 == 0 {
					status, body, err := postJSONErr(ts.URL+"/v1/check", checkReq(f))
					if err != nil {
						t.Errorf("check: %v", err)
					} else if status != http.StatusOK {
						t.Errorf("check: status %d: %s", status, body)
					}
				} else {
					status, body, err := postJSONErr(ts.URL+"/v1/batch", BatchRequest{Requests: []CheckRequest{
						checkReq(f), checkReq(formulas[(g+i+1)%len(formulas)]),
					}})
					if err != nil {
						t.Errorf("batch: %v", err)
					} else if status != http.StatusOK {
						t.Errorf("batch: status %d: %s", status, body)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	m := metrics(t, ts)
	if m["accserve_in_flight"] != 0 {
		t.Errorf("in-flight = %d after traffic drained", m["accserve_in_flight"])
	}
	if m[`accserve_cache_tier_hits_total{tier="memory"}`] == 0 {
		t.Error("no cache hits across 60 identical-shaped requests")
	}
}

// TestOversizedBodyRejected: on both roles, the body cap answers 413
// instead of buffering an arbitrarily large request into memory.
func TestOversizedBodyRejected(t *testing.T) {
	req := checkReq(satFormula)
	req.Formula = strings.Repeat("x", 2048) // garbage, but over the cap
	for _, rl := range roles(t, Config{MaxBodyBytes: 512}) {
		resp, body := postJSON(t, rl.url+"/v1/check", req)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized check body: status %d, want 413: %s", rl.name, resp.StatusCode, body)
		}
		resp, body = postJSON(t, rl.url+"/v1/batch", BatchRequest{Requests: []CheckRequest{req}})
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized batch body: status %d, want 413: %s", rl.name, resp.StatusCode, body)
		}
		// The role's own route (the worker's /v1/shard, the coordinator's
		// /v1/join) reads its body under the same cap.
		resp, body = postJSON(t, rl.url+rl.own, req)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized %s body: status %d, want 413: %s", rl.name, rl.own, resp.StatusCode, body)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/check")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/check: status %d, want 405", resp.StatusCode)
	}
}
