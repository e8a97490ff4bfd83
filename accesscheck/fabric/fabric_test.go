package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func sampleShard() *Shard {
	return &Shard{
		Version:   WireVersion,
		Relations: []string{"R:int"},
		Methods:   []string{"mR:R:0"},
		Formula:   `[exists x. pre R(x)]`,
		Options:   &CheckOptions{Grounded: true, MaxDepth: 3},
		Budget:    "2s",
		PlanSize:  7,
		Shards: []ShardRef{
			{Index: 1, Key: "mR(1)"},
			{Index: 4, Key: "mS(1,2)", WholeAccess: true},
		},
	}
}

func TestShardRoundTrip(t *testing.T) {
	in := sampleShard()
	data, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeShard(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the shard:\nin:  %+v\nout: %+v", in, out)
	}
	if got := out.Indexes(); !reflect.DeepEqual(got, []int{1, 4}) {
		t.Errorf("Indexes() = %v", got)
	}
}

// TestShardViewDigest: the view digest moves with every field a worker's
// plan verification compares — the plan size and each ref's index, key and
// whole-access flag, including how the keys split — and with nothing else
// a redispatch of the same group may change, such as the budget.
func TestShardViewDigest(t *testing.T) {
	base := sampleShard().ViewDigest()
	mutate := func(f func(*Shard)) string {
		s := sampleShard()
		f(s)
		return s.ViewDigest()
	}
	for name, d := range map[string]string{
		"plan size":    mutate(func(s *Shard) { s.PlanSize++ }),
		"index":        mutate(func(s *Shard) { s.Shards[1].Index = 5 }),
		"key":          mutate(func(s *Shard) { s.Shards[0].Key = "mR(2)" }),
		"key boundary": mutate(func(s *Shard) { s.Shards[0].Key, s.Shards[1].Key = "mR(1)m", "S(1,2)" }),
		"whole access": mutate(func(s *Shard) { s.Shards[0].WholeAccess = true }),
		"dropped ref":  mutate(func(s *Shard) { s.Shards = s.Shards[:1] }),
	} {
		if d == base {
			t.Errorf("%s: digest unchanged", name)
		}
	}
	if d := mutate(func(s *Shard) { s.Budget = "1ns" }); d != base {
		t.Error("budget moved the view digest")
	}
}

func TestShardValidation(t *testing.T) {
	mutate := func(f func(*Shard)) *Shard {
		s := sampleShard()
		f(s)
		return s
	}
	cases := map[string]*Shard{
		"wrong version":   mutate(func(s *Shard) { s.Version = WireVersion + 1 }),
		"no formula":      mutate(func(s *Shard) { s.Formula = "" }),
		"no relations":    mutate(func(s *Shard) { s.Relations = nil }),
		"no slices":       mutate(func(s *Shard) { s.Shards = nil }),
		"zero plan":       mutate(func(s *Shard) { s.PlanSize = 0 }),
		"index past plan": mutate(func(s *Shard) { s.Shards[1].Index = s.PlanSize }),
		"negative index":  mutate(func(s *Shard) { s.Shards[0].Index = -1 }),
		"unsorted":        mutate(func(s *Shard) { s.Shards[0].Index = 5 }),
		"duplicate":       mutate(func(s *Shard) { s.Shards[1].Index = s.Shards[0].Index }),
		"missing key":     mutate(func(s *Shard) { s.Shards[0].Key = "" }),
	}
	for name, s := range cases {
		if _, err := s.Encode(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Decoding enforces the same invariants on arrival.
	bad, _ := json.Marshal(mutate(func(s *Shard) { s.Version = 99 }))
	if _, err := DecodeShard(bad); err == nil {
		t.Error("foreign wire version decoded")
	}
}

func part(shards []int, sat bool, witness string, trunc bool, paths int) ShardResult {
	return ShardResult{Version: WireVersion, Shards: shards, Verdict: Verdict{
		Satisfiable: sat, Witness: witness,
		Truncated: trunc, PathsExplored: paths, Depth: 4, Engine: "bounded", Fragment: "AccLTL+",
	}}
}

func TestMergeSemantics(t *testing.T) {
	// Witness preference: the lowest covered shard index wins, not arrival
	// order.
	m, err := Merge([]ShardResult{
		part([]int{3, 5}, true, "late", false, 10),
		part([]int{0, 1}, true, "early", false, 7),
		part([]int{2, 4}, false, "", true, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Satisfiable || m.Witness != "early" {
		t.Errorf("witness preference: got %q (sat=%v), want \"early\"", m.Witness, m.Satisfiable)
	}
	if m.Truncated || m.ResponsesCapped {
		t.Error("satisfiable merge must clear exactness qualifiers")
	}
	if m.PathsExplored != 10+7+5-2 {
		t.Errorf("paths = %d, want %d", m.PathsExplored, 10+7+5-2)
	}
	if !reflect.DeepEqual(m.Shards, []int{0, 1, 2, 3, 4, 5}) {
		t.Errorf("covered shards = %v", m.Shards)
	}

	// Unsat merge ORs the qualifiers.
	m, err = Merge([]ShardResult{
		part([]int{0}, false, "", false, 3),
		part([]int{1}, false, "", true, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Satisfiable || !m.Truncated {
		t.Errorf("unsat merge: sat=%v trunc=%v", m.Satisfiable, m.Truncated)
	}

	// Identity guards.
	if _, err := Merge(nil); err == nil {
		t.Error("empty merge accepted")
	}
	bad := part([]int{1}, false, "", false, 1)
	bad.Depth = 9
	if _, err := Merge([]ShardResult{part([]int{0}, false, "", false, 1), bad}); err == nil {
		t.Error("depth mismatch accepted")
	}
	if _, err := Merge([]ShardResult{part([]int{0}, false, "", false, 1), part([]int{0}, false, "", false, 1)}); err == nil {
		t.Error("double-covered shard accepted")
	}
	stale := part([]int{1}, false, "", false, 1)
	stale.Version = WireVersion + 1
	if _, err := Merge([]ShardResult{part([]int{0}, false, "", false, 1), stale}); err == nil {
		t.Error("foreign wire version accepted in merge")
	}
}

func TestRouterAffinityAndSpread(t *testing.T) {
	workers := []string{"http://a", "http://b", "http://c"}
	r := NewRouter(workers)
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		key := RouteKey("fp", string(rune('a'+i%26))+string(rune('0'+i%10)))
		w1, ok := r.Route(key)
		if !ok {
			t.Fatal("route failed on non-empty ring")
		}
		w2, _ := NewRouter(workers).Route(key) // fresh ring, same inputs
		if w1 != w2 {
			t.Fatalf("routing not deterministic for %q: %s vs %s", key, w1, w2)
		}
		counts[w1]++
	}
	for _, w := range workers {
		if counts[w] == 0 {
			t.Errorf("worker %s received no keys: %v", w, counts)
		}
	}

	// Removing one worker must not remap keys between the survivors.
	full := NewRouter(workers)
	reduced := NewRouter([]string{"http://a", "http://c"})
	for i := 0; i < 300; i++ {
		key := RouteKey("fp2", string(rune('a'+i%26))+string(rune('0'+i%10)))
		before, _ := full.Route(key)
		after, _ := reduced.Route(key)
		if before != "http://b" && before != after {
			t.Fatalf("key %q moved %s -> %s though its owner survived", key, before, after)
		}
	}

	// Sequence: distinct candidates, primary first.
	seq := full.Sequence("some-key", 5)
	if len(seq) != 3 {
		t.Fatalf("sequence = %v, want all 3 workers", seq)
	}
	prim, _ := full.Route("some-key")
	if seq[0] != prim {
		t.Errorf("sequence starts at %s, Route says %s", seq[0], prim)
	}

	if _, ok := NewRouter(nil).Route("x"); ok {
		t.Error("empty ring routed")
	}
}

func TestRegistryProbesAndFeedback(t *testing.T) {
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("probe hit %s", r.URL.Path)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer up.Close()
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer down.Close()

	// Threshold 1: a single failure opens the breaker, so the probe/feedback
	// assertions below read like the old binary healthy flag.
	reg, err := NewRegistryWithConfig(RegistryConfig{
		Workers: []string{up.URL, down.URL + "/", up.URL},
		Client:  up.Client(),
		Breaker: BreakerConfig{Threshold: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(reg.Workers()); got != 2 {
		t.Fatalf("dedup failed: %d workers", got)
	}
	if got := len(reg.Healthy()); got != 2 {
		t.Fatalf("cold registry must be optimistic, healthy=%d", got)
	}
	if n := reg.ProbeAll(context.Background()); n != 1 {
		t.Fatalf("healthy after probe = %d, want 1", n)
	}
	snap := reg.Snapshot()
	if len(snap) != 2 || !snap[0].Healthy || snap[1].Healthy || snap[1].LastError == "" {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap[1].State != "open" {
		t.Errorf("failed worker breaker state = %q, want open", snap[1].State)
	}
	reg.MarkDown(up.URL, "dispatch failed")
	if len(reg.Healthy()) != 0 {
		t.Error("MarkDown ignored")
	}
	// MarkUp is a successful dispatch exchange: it closes the breaker from
	// any state (this is how a half-open trial succeeds).
	reg.MarkUp(up.URL)
	if len(reg.Healthy()) != 1 {
		t.Error("MarkUp ignored")
	}

	// An empty member list is now legal — the table grows through Join —
	// but malformed URLs still fail construction.
	if _, err := NewRegistry(nil, nil); err != nil {
		t.Errorf("NewRegistry(nil) = %v, want empty table", err)
	}
	for _, bad := range [][]string{{""}, {"not a url"}, {"/just/a/path"}} {
		if _, err := NewRegistry(bad, nil); err == nil {
			t.Errorf("NewRegistry(%v) accepted", bad)
		}
	}
}

// shardHandler answers /v1/shard with the given status; 200 carries a
// minimal valid result.
func shardHandler(status *atomic.Int64, result ShardResult) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st := int(status.Load())
		if st != http.StatusOK {
			w.WriteHeader(st)
			w.Write([]byte(`{"error":"induced"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(result)
	}
}

func TestDispatcherRetriesTransientFailures(t *testing.T) {
	want := part([]int{0}, true, "w", false, 3)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(want)
	}))
	defer srv.Close()
	d := &Dispatcher{Client: srv.Client(), Backoff: time.Millisecond}
	res, err := d.Do(context.Background(), srv.URL, sampleShard())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable || res.Witness != "w" {
		t.Errorf("result = %+v", res)
	}
	if calls.Load() != 2 {
		t.Errorf("calls = %d, want 2 (one retry)", calls.Load())
	}
}

func TestDispatcherTerminalStatuses(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusGatewayTimeout} {
		var st atomic.Int64
		st.Store(int64(status))
		var calls atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			shardHandler(&st, ShardResult{})(w, r)
		}))
		d := &Dispatcher{Client: srv.Client(), Backoff: time.Millisecond}
		_, err := d.Do(context.Background(), srv.URL, sampleShard())
		srv.Close()
		var se *StatusError
		if !errors.As(err, &se) || se.Status != status {
			t.Fatalf("status %d: err = %v", status, err)
		}
		if calls.Load() != 1 {
			t.Errorf("status %d retried (%d calls) though terminal", status, calls.Load())
		}
	}
}

func TestDispatcherHedgesToSecondWorker(t *testing.T) {
	want := part([]int{0}, false, "", false, 2)
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		json.NewEncoder(w).Encode(want)
	}))
	defer slow.Close()
	defer close(release)
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(want)
	}))
	defer fast.Close()

	d := &Dispatcher{Backoff: time.Millisecond, HedgeAfter: 20 * time.Millisecond}
	res, winner, err := d.DoHedged(context.Background(), []string{slow.URL, fast.URL}, sampleShard())
	if err != nil {
		t.Fatal(err)
	}
	if winner != fast.URL {
		t.Errorf("winner = %s, want the hedge target %s", winner, fast.URL)
	}
	if res.PathsExplored != 2 {
		t.Errorf("result = %+v", res)
	}
}

func TestDispatcherFailsOverOnWorkerDeath(t *testing.T) {
	want := part([]int{0}, true, "w", false, 1)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from now on
	alive := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(want)
	}))
	defer alive.Close()

	reg, err := NewRegistryWithConfig(RegistryConfig{
		Workers: []string{dead.URL, alive.URL},
		Breaker: BreakerConfig{Threshold: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := &Dispatcher{Retries: -1, Backoff: time.Millisecond, HedgeAfter: time.Second, Registry: reg}
	res, winner, err := d.DoHedged(context.Background(), []string{dead.URL, alive.URL}, sampleShard())
	if err != nil {
		t.Fatal(err)
	}
	if winner != alive.URL || !res.Satisfiable {
		t.Errorf("winner=%s res=%+v", winner, res)
	}
	// The transport failure must have fed back into the registry.
	for _, st := range reg.Snapshot() {
		if st.URL == dead.URL && st.Healthy {
			t.Error("dead worker still marked healthy after dispatch failure")
		}
	}
}

func TestDispatcherAllWorkersFail(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	d := &Dispatcher{Retries: -1, Backoff: time.Millisecond, HedgeAfter: time.Millisecond}
	if _, _, err := d.DoHedged(context.Background(), []string{dead.URL}, sampleShard()); err == nil {
		t.Error("dispatch to a dead fabric succeeded")
	}
}

// TestShardResultWireKeys pins the JSON keys of a fully populated
// ShardResult and the wire version: a worker and a coordinator of one
// WireVersion must read each other's parts.
func TestShardResultWireKeys(t *testing.T) {
	if WireVersion != 2 {
		t.Fatalf("WireVersion = %d, want 2", WireVersion)
	}
	var r ShardResult
	r.Version = WireVersion
	r.Shards = []int{0, 1}
	r.Satisfiable = true
	r.Witness = "AcM1(a)"
	r.Fragment = "AccLTL+"
	r.InFragment = true
	r.Decidable = true
	r.Engine = "bounded"
	r.Depth = 3
	r.Truncated = true
	r.ResponsesCapped = true
	r.PathsExplored = 42
	r.Cached = true
	r.ElapsedMS = 1.5
	r.ShardsCompleted = 2
	r.ShardsTotal = 5
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"cached", "decidable", "depth", "elapsed_ms", "engine", "fragment", "in_fragment",
		"paths_explored", "responses_capped", "satisfiable", "shards", "shards_completed", "shards_total",
		"truncated", "version", "witness"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("ShardResult keys = %v, want %v", keys, want)
	}
}
