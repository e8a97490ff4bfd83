package server

// The result store at the server level: a full memory tier holds the last
// CacheSize answers, a process restarted with the same -cache-dir answers
// a previously settled exact check from the disk tier without re-solving,
// and a budget-blown check whose suspended checkpoint was evicted
// mid-sequence restarts cleanly from scratch instead of wedging. CI's
// "result store" step runs these under the race detector, twice.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"accltl/accesscheck/cachetier"
	"accltl/internal/pollctx"
)

// TestMemoryTierHoldsLastAnswers: a default server that has answered 3,000
// distinct checks answers a re-ask of its last 1,024 (its CacheSize), in
// answer order, all from memory. Answer order is the hard order for a tier
// that holds fewer than its last CacheSize keys: each miss re-solves and
// evicts a key the re-ask has yet to reach. A tier split into 8 LRU shards
// of 128 re-solves 418 of them.
func TestMemoryTierHoldsLastAnswers(t *testing.T) {
	s := New(Config{})
	t.Cleanup(func() { s.Close() })
	const answered, window = 3000, 1024
	reqs := make([]CheckRequest, answered)
	for i := range reqs {
		// MaxPaths is in the fingerprint, and no cap this high cuts the
		// search short, so every answer is exact and admitted.
		reqs[i] = checkReq(satFormula)
		reqs[i].Options = &CheckOptions{MaxPaths: 1000 + i}
	}
	ctx := context.Background()
	for i, req := range reqs {
		out, err := s.check(ctx, req)
		if err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
		if out.Cached || out.Truncated {
			t.Fatalf("check %d: cached %v, truncated %v; want a fresh exact answer", i, out.Cached, out.Truncated)
		}
	}
	resolved := 0
	for i, req := range reqs[answered-window:] {
		out, err := s.check(ctx, req)
		if err != nil {
			t.Fatalf("re-ask %d: %v", i, err)
		}
		if !out.Cached {
			resolved++
		}
	}
	if resolved != 0 {
		t.Errorf("%d of the last %d answers re-solved; want all %d served from memory", resolved, window, window)
	}
}

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
// store, expire check A so its checkpoint is stored, let check B's
// suspension evict it, then re-ask A under a generous budget. The
// server must restart A from scratch — a clean exact verdict with full
// coverage, no resume of the evicted frontier, no panic, no stale partial
// arithmetic.
func TestServerShardedCheckpointEvictedMidSequence(t *testing.T) {
	// One walker polls the context in one order, so a context that expires
	// at a chosen poll stops the search at the same point on every machine.
	s := New(Config{CacheSize: 1, Parallelism: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	base := CheckRequest{Relations: wideRelations, Methods: wideMethods, Formula: wideUnsatFormula}

	// suspend runs req under contexts that expire at poll 1, 2, ... until
	// the counter named by moved leaves zero. A coverage-tagged partial and
	// a zero-progress expiry both store a checkpoint; the server's own
	// metrics, not the answer, say whether one was stored.
	suspend := func(req CheckRequest, moved string) {
		t.Helper()
		for limit := 1; limit <= 64; limit++ {
			_, err := s.check(pollctx.New(limit, context.DeadlineExceeded), req)
			if err != nil && statusOf(err) != http.StatusGatewayTimeout {
				t.Fatalf("expiry at poll %d: %v", limit, err)
			}
			if metrics(t, ts)[moved] > 0 {
				return
			}
		}
		t.Fatalf("expiries at polls 1 to 64 never moved %s", moved)
	}

	// A's suspension fills the capacity-1 store; B's, on a fingerprint A
	// never used (MaxDepth does not change this search's cost or verdict),
	// evicts it.
	reqA, reqB := base, base
	reqA.Options = &CheckOptions{MaxDepth: 4, Engine: "bounded"}
	reqB.Options = &CheckOptions{MaxDepth: 5, Engine: "bounded"}
	suspend(reqA, "accserve_checkpoints_size")
	suspend(reqB, "accserve_checkpoints_evictions_total")
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
