package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// TestParallelismConfigAndMetrics: the configured per-check parallelism is
// applied, exported on /metrics, and per-request overrides can lower but
// never raise it.
func TestParallelismConfigAndMetrics(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2, Parallelism: 3})

	// Default request: runs at the server's configured parallelism.
	resp, body := postJSON(t, ts.URL+"/v1/check", checkReq(satFormula))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out CheckResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Satisfiable {
		t.Errorf("parallel solve changed the verdict: %+v", out)
	}
	m := metrics(t, ts)
	if m["accserve_parallelism"] != 3 {
		t.Errorf("accserve_parallelism = %d, want 3", m["accserve_parallelism"])
	}
	if m["accserve_workers_busy"] != 0 {
		t.Errorf("accserve_workers_busy = %d with no solve in flight", m["accserve_workers_busy"])
	}
	if m["accserve_request_parallelism_count"] != 1 || m["accserve_request_parallelism_sum"] != 3 {
		t.Errorf("request parallelism sum/count = %d/%d, want 3/1",
			m["accserve_request_parallelism_sum"], m["accserve_request_parallelism_count"])
	}

	// A request may lower its own fan-out...
	req := checkReq(unsatFormula)
	req.Options = &CheckOptions{Parallelism: 1}
	if resp, body := postJSON(t, ts.URL+"/v1/check", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	m = metrics(t, ts)
	if m["accserve_request_parallelism_sum"] != 4 {
		t.Errorf("after parallelism=1 override: sum = %d, want 4", m["accserve_request_parallelism_sum"])
	}

	// ...but not raise it above the operator's per-check limit (grounded
	// changes the fingerprint, so this is a fresh solve, not a cache hit).
	req = checkReq(unsatFormula)
	req.Options = &CheckOptions{Parallelism: 99, Grounded: true}
	if resp, body := postJSON(t, ts.URL+"/v1/check", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	m = metrics(t, ts)
	if m["accserve_request_parallelism_sum"] != 7 {
		t.Errorf("after parallelism=99 override: sum = %d, want 7 (clamped to 3)", m["accserve_request_parallelism_sum"])
	}
	if m["accserve_request_parallelism_count"] != 3 {
		t.Errorf("request count = %d, want 3", m["accserve_request_parallelism_count"])
	}

	// Cache hits run zero walkers and must not move the fan-out telemetry.
	if resp, body := postJSON(t, ts.URL+"/v1/check", checkReq(satFormula)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	m = metrics(t, ts)
	if m["accserve_request_parallelism_sum"] != 7 || m["accserve_request_parallelism_count"] != 3 {
		t.Errorf("cache hit moved fan-out telemetry: sum/count = %d/%d, want 7/3",
			m["accserve_request_parallelism_sum"], m["accserve_request_parallelism_count"])
	}
}

// TestParallelismDefaultRespectsMachine: with no explicit setting, the
// derived per-check parallelism keeps workers × parallelism ≤ GOMAXPROCS
// (the documented default interaction of the two knobs).
func TestParallelismDefaultRespectsMachine(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 64} {
		cfg := Config{Workers: workers}.withDefaults()
		if cfg.Parallelism < 1 {
			t.Errorf("workers=%d: derived parallelism %d < 1", workers, cfg.Parallelism)
		}
		if cfg.Workers*cfg.Parallelism > runtime.GOMAXPROCS(0) && cfg.Parallelism != 1 {
			t.Errorf("workers=%d: derived workers×parallelism = %d×%d exceeds GOMAXPROCS=%d",
				workers, cfg.Workers, cfg.Parallelism, runtime.GOMAXPROCS(0))
		}
	}
	// An explicit value is taken as given, even if it oversubscribes.
	cfg := Config{Workers: 4, Parallelism: 8}.withDefaults()
	if cfg.Parallelism != 8 {
		t.Errorf("explicit parallelism rewritten to %d", cfg.Parallelism)
	}
}

// TestParallelismCacheSharedAcrossFanout: results computed at one
// parallelism serve identical checks at another (Fingerprint excludes the
// knob), so the cache stays shared.
func TestParallelismCacheSharedAcrossFanout(t *testing.T) {
	ts := newTestServer(t, Config{Parallelism: 4})
	if resp, body := postJSON(t, ts.URL+"/v1/check", checkReq(satFormula)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	req := checkReq(satFormula)
	req.Options = &CheckOptions{Parallelism: 1}
	resp, body := postJSON(t, ts.URL+"/v1/check", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out CheckResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Error("identical check at a different parallelism missed the cache")
	}
}

// TestFanOutHonoursRequestParallelism: a coordinator ships a fanned-out
// check's options as the request carried them, so every worker solving a
// shard group runs at the request's parallelism cap, as a worker answering
// the whole check would.
func TestFanOutHonoursRequestParallelism(t *testing.T) {
	var urls []string
	var workers []*httptest.Server
	for range 2 {
		w := newTestServer(t, Config{Parallelism: 4})
		workers = append(workers, w)
		urls = append(urls, w.URL)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)

	req := CheckRequest{Relations: wideRelations, Methods: wideMethods, Formula: wideUnsatFormula,
		Options: &CheckOptions{MaxDepth: 4, Engine: "bounded", Parallelism: 1}}
	resp, body := postJSON(t, ts.URL+"/v1/check", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if m := metrics(t, ts); m["accserve_coordinator_fanouts_total"] != 1 {
		t.Fatalf("fanouts = %d, want 1: the check was not fanned out", m["accserve_coordinator_fanouts_total"])
	}
	for i, w := range workers {
		m := metrics(t, w)
		sum, count := m["accserve_request_parallelism_sum"], m["accserve_request_parallelism_count"]
		if count == 0 {
			t.Errorf("worker %d solved no shard group", i)
		}
		if sum != count {
			t.Errorf("worker %d: request parallelism sum/count = %d/%d, want every solve at 1", i, sum, count)
		}
	}
}
