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
)

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
// no panic, no stale partial arithmetic.
func TestServerShardedCheckpointEvictedMidSequence(t *testing.T) {
	ts := newTestServer(t, Config{CacheSize: 1})
	reqA := CheckRequest{Relations: wideRelations, Methods: wideMethods, Formula: wideUnsatFormula}
	reqA.Options = &CheckOptions{MaxDepth: 4, Engine: "bounded"}
	reqB := reqA
	reqB.Options = &CheckOptions{MaxDepth: 5, Engine: "bounded"} // distinct fingerprint

	// Provoke a suspended frontier for A: tiny budgets until a 504 or a
	// coverage-tagged partial lands. Either one stores A's checkpoint.
	suspended := false
	budget := 100 * time.Microsecond
	for round := 0; round < 20 && !suspended; round++ {
		reqA.Budget = budget.String()
		resp, body := postJSON(t, ts.URL+"/v1/check", reqA)
		switch resp.StatusCode {
		case http.StatusGatewayTimeout:
			suspended = true
		case http.StatusOK:
			var out CheckResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if out.Resumable {
				suspended = true
			} else {
				t.Skip("machine too fast: check settled before any budget pressure")
			}
		default:
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, body)
		}
	}
	if !suspended {
		t.Skip("could not provoke a suspended checkpoint")
	}

	// B's suspension (or zero-progress expiry — both checkpoint) evicts A's
	// frontier from the capacity-1 store.
	reqB.Budget = (100 * time.Microsecond).String()
	resp, body := postJSON(t, ts.URL+"/v1/check", reqB)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("evictor check: status %d: %s", resp.StatusCode, body)
	}
	if m := metrics(t, ts); m["accserve_checkpoints_evictions_total"] == 0 {
		t.Skip("eviction did not occur (B settled without checkpointing)")
	}

	// A again, roomy budget: its checkpoint is gone, so this is a fresh
	// full run — it must land the exact verdict with honest coverage.
	reqA.Budget = "30s"
	resp, body = postJSON(t, ts.URL+"/v1/check", reqA)
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
}
