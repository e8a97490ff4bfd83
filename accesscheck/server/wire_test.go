package server

import (
	"encoding/json"
	"testing"
)

// TestCheckResponseWireBytes pins CheckResponse's JSON encoding for a fully
// populated value. Clients, NDJSON batch lines and disk-tier records all
// read these bytes, so the declaration may move only if they do not. The
// fields are set one by one, so the test compiles against any declaration
// that keeps them.
func TestCheckResponseWireBytes(t *testing.T) {
	var r CheckResponse
	r.Satisfiable = true
	r.Fragment = "AccLTL+"
	r.InFragment = true
	r.Decidable = true
	r.Engine = "bounded"
	r.Truncated = true
	r.ResponsesCapped = true
	r.PathsExplored = 42
	r.Depth = 3
	r.Witness = "AcM1(a)"
	r.ElapsedMS = 1.5
	r.Cached = true
	r.ShardsCompleted = 2
	r.ShardsTotal = 5
	r.Coverage = 0.4
	r.Resumable = true
	r.RetryAfter = 1
	got, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"satisfiable":true,"fragment":"AccLTL+","in_fragment":true,"decidable":true,` +
		`"engine":"bounded","truncated":true,"responses_capped":true,"paths_explored":42,"depth":3,` +
		`"witness":"AcM1(a)","elapsed_ms":1.5,"cached":true,"shards_completed":2,"shards_total":5,` +
		`"coverage":0.4,"resumable":true,"retry_after_seconds":1}`
	if string(got) != want {
		t.Errorf("CheckResponse encodes as\n%s\nwant\n%s", got, want)
	}
}
