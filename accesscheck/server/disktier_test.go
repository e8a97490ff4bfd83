package server

// Restart-warmth and eviction-resilience at the server level: a process
// restarted with the same -cache-dir answers a previously settled exact
// check from the disk tier without re-solving, and a budget-blown check
// whose suspended checkpoint was evicted mid-sequence restarts cleanly
// from scratch instead of wedging. Names carry "Sharded" so CI's race
// pass picks them up.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"accltl/accesscheck/cachetier"
)

// TestServerDiscardsFpV1Log: a cache directory written under the fp-v1
// scheme, whose tuple keys could collide and so may hold a wrong exact
// unsat, is discarded at boot instead of served.
func TestServerDiscardsFpV1Log(t *testing.T) {
	dir := t.TempDir()
	old, err := cachetier.OpenDiskTier(cachetier.DiskConfig{Dir: dir, Scheme: "fp-v1"})
	if err != nil {
		t.Fatal(err)
	}
	old.Put("check-key", []byte("minted under fp-v1"))
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	s := New(Config{CacheSize: 8, CacheDir: dir})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })
	m := metrics(t, ts)
	if m["accserve_cache_disk_scheme_discards_total"] != 1 || m["accserve_cache_disk_records"] != 0 {
		t.Errorf("scheme discards %d, records %d; want the fp-v1 log discarded (1, 0)",
			m["accserve_cache_disk_scheme_discards_total"], m["accserve_cache_disk_records"])
	}
}

// TestServerShardedWarmRestartServesFromDisk: solve an exact check, shut
// the server down (flushing residents through to the disk tier), build a
// fresh server over the same directory, and demand the repeat request is
// answered from disk — same verdict, Cached, zero solves.
func TestServerShardedWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{CacheSize: 8, CacheDir: dir}

	s1 := New(cfg)
	ts1 := httptest.NewServer(s1)
	resp, body := postJSON(t, ts1.URL+"/v1/check", checkReq(satFormula))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold solve: status %d: %s", resp.StatusCode, body)
	}
	var cold CheckResponse
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Cached || !cold.Satisfiable {
		t.Fatalf("cold solve malformed: %+v", cold)
	}
	ts1.Close()
	if err := s1.Close(); err != nil { // write-behind: residents flush here
		t.Fatalf("close: %v", err)
	}

	s2 := New(cfg)
	ts2 := httptest.NewServer(s2)
	t.Cleanup(ts2.Close)
	t.Cleanup(func() { s2.Close() })

	resp, body = postJSON(t, ts2.URL+"/v1/check", checkReq(satFormula))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm repeat: status %d: %s", resp.StatusCode, body)
	}
	var warm CheckResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Error("restarted server re-solved instead of serving the disk tier")
	}
	if warm.Satisfiable != cold.Satisfiable || warm.Witness != cold.Witness ||
		warm.Fragment != cold.Fragment || warm.Depth != cold.Depth {
		t.Errorf("disk-tier verdict drifted: cold %+v, warm %+v", cold, warm)
	}

	m := metrics(t, ts2)
	if m["accserve_checks_total"] != 0 {
		t.Errorf("restarted server solved %d check(s); want 0 (disk hit)", m["accserve_checks_total"])
	}
	if m[`accserve_cache_tier_hits_total{tier="disk"}`] == 0 {
		t.Error("disk tier hit not counted in accserve_cache_tier_hits_total{tier=\"disk\"}")
	}
	if m[`accserve_cache_disk_records`] == 0 {
		t.Error("recovery scan reports zero disk records after a flushed close")
	}
}

// TestServerShardedCheckpointEvictedMidSequence: with a 1-entry checkpoint
// store, blow check A's budget so its frontier is suspended, let check B's
// suspension evict it, then re-ask A under a generous budget. The server
// must restart A from scratch — a clean exact verdict with full coverage,
// no resume of the evicted frontier, no panic, no stale partial arithmetic.
func TestServerShardedCheckpointEvictedMidSequence(t *testing.T) {
	ts := newTestServer(t, Config{CacheSize: 1})
	base := CheckRequest{Relations: wideRelations, Methods: wideMethods, Formula: wideUnsatFormula}

	// Whether a budget leaves a frontier behind is a race with the clock:
	// one that dies before the solve starts stores nothing, one that
	// outlasts the sub-millisecond search settles the check and caches it
	// under its fingerprint. suspend therefore sends fresh fingerprints —
	// MaxDepth counting up from depth, which does not change this search's
	// cost or verdict — under budgets cycling from 25µs to 12.8ms, until
	// the counter named by moved leaves zero, and returns the request that
	// moved it. The server's own metrics, not the status code, say whether
	// a frontier was stored.
	suspend := func(depth int, moved string) CheckRequest {
		t.Helper()
		for i := 0; i < 64; i++ {
			req := base
			req.Options = &CheckOptions{MaxDepth: depth + i, Engine: "bounded"}
			req.Budget = (25 * time.Microsecond << (i % 10)).String()
			resp, body := postJSON(t, ts.URL+"/v1/check", req)
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("depth %d, budget %s: status %d: %s", depth+i, req.Budget, resp.StatusCode, body)
			}
			if metrics(t, ts)[moved] > 0 {
				return req
			}
		}
		t.Fatalf("64 budget-pressed checks never moved %s", moved)
		return CheckRequest{}
	}

	// A's suspension (a coverage-tagged partial or a zero-progress 504 —
	// both checkpoint) fills the capacity-1 store; B's, on fingerprints A
	// never used, evicts it.
	reqA := suspend(4, "accserve_checkpoints_size")
	suspend(100, "accserve_checkpoints_evictions_total")
	resumes := metrics(t, ts)["accserve_anytime_resumes_total"]

	// A again, roomy budget: its checkpoint is gone, so this is a fresh
	// full run — it must land the exact verdict with honest coverage.
	reqA.Budget = "30s"
	resp, body := postJSON(t, ts.URL+"/v1/check", reqA)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-eviction rerun: status %d: %s", resp.StatusCode, body)
	}
	var final CheckResponse
	if err := json.Unmarshal(body, &final); err != nil {
		t.Fatal(err)
	}
	if final.Resumable || final.Truncated || final.Satisfiable {
		t.Errorf("post-eviction rerun not a clean exact unsat: %+v", final)
	}
	if final.Coverage != 1 {
		t.Errorf("post-eviction rerun coverage %v, want 1", final.Coverage)
	}
	if got := metrics(t, ts)["accserve_anytime_resumes_total"]; got != resumes {
		t.Errorf("post-eviction rerun resumed a frontier (resumes %d -> %d); want a fresh run", resumes, got)
	}
}
