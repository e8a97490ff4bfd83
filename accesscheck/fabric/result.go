package fabric

import (
	"fmt"
	"sort"
)

// Verdict is the wire form of a check's answer: the verdict, the metadata
// of the search that reached it and the qualifiers on its exactness. It is
// declared once for every role: a worker's /v1/check answer
// (server.CheckResponse) and its /v1/shard answer (ShardResult) embed it,
// a coordinator's merge folds it, and a worker's disk tier stores the
// check answer's JSON.
type Verdict struct {
	// Satisfiable / Witness: a witness is verified against the direct
	// semantics by the engine before it reaches the wire, so a witness found
	// inside any slice is a witness for the whole check.
	Satisfiable bool `json:"satisfiable"`
	// Fragment/engine metadata, identical across all shards of one check —
	// Merge cross-checks that as another identity guard.
	Fragment   string `json:"fragment"`
	InFragment bool   `json:"in_fragment"`
	Decidable  bool   `json:"decidable"`
	Engine     string `json:"engine"`
	// Truncated / ResponsesCapped qualify an unsatisfiable verdict exactly
	// as on accesscheck.Result; on a shard part they are scoped to its
	// executed slices.
	Truncated       bool `json:"truncated"`
	ResponsesCapped bool `json:"responses_capped,omitempty"`
	// PathsExplored counts visited prefixes, including the one root visit
	// every slice run makes.
	PathsExplored int     `json:"paths_explored"`
	Depth         int     `json:"depth"`
	Witness       string  `json:"witness,omitempty"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	Cached        bool    `json:"cached"`
	// ShardsCompleted / ShardsTotal state coverage explicitly: how many of
	// the plan's canonical shards this verdict actually executed, out of
	// how many the plan holds. A worker answering for its assigned subset
	// reports len(Shards) / PlanSize; a coordinator merge reports the
	// union it collected. Completed == Total means a full-cover verdict;
	// both are zero on a whole-space answer. Completed < Total with
	// Truncated set and Satisfiable false reads as Unknown: no witness in
	// the explored region, nothing claimed about the rest.
	ShardsCompleted int `json:"shards_completed,omitempty"`
	ShardsTotal     int `json:"shards_total,omitempty"`
}

// ShardResult is the wire form of one worker's partial verdict: the
// outcome of executing a Shard's assigned partition slices. Shards echoes
// the executed canonical indexes so the coordinator can verify coverage
// and resolve witness preference without trusting request/response pairing
// alone.
type ShardResult struct {
	Version int   `json:"version"`
	Shards  []int `json:"shards"`
	Verdict
}

// Merge folds the partial results of a full partition cover into one
// result, with the same resolution rules the in-process sharded engine
// applies across walkers:
//
//   - any witness settles the verdict as satisfiable; among several, the
//     one from the lowest canonical shard index wins (the deterministic
//     preference of the serial order);
//   - an unsatisfiable merge ORs the exactness qualifiers — the merged
//     verdict is exact only if every slice ran exhaustively;
//   - a satisfiable merge clears them — a verified witness is definitive
//     regardless of caps elsewhere;
//   - PathsExplored is the sum minus one duplicate root visit per extra
//     part (each part's run visits the root once; a single-process run
//     visits it once in total).
//
// Parts must agree on depth and engine metadata and jointly cover each
// index at most once; disagreement means the workers did not execute the
// same check and surfaces as an error rather than a silently wrong merge.
func Merge(parts []ShardResult) (ShardResult, error) {
	if len(parts) == 0 {
		return ShardResult{}, fmt.Errorf("fabric: merge of zero shard results")
	}
	out := parts[0]
	out.Shards = nil
	seen := make(map[int]bool)
	witnessShard := -1
	sat := false
	var witness string
	trunc, respCapped := false, false
	paths := 0
	cached := true
	elapsed := 0.0
	for i, p := range parts {
		if p.Version != WireVersion {
			return ShardResult{}, fmt.Errorf("fabric: merge part %d has wire version %d, want %d", i, p.Version, WireVersion)
		}
		if len(p.Shards) == 0 {
			return ShardResult{}, fmt.Errorf("fabric: merge part %d covers no shards", i)
		}
		if p.Depth != out.Depth || p.Engine != out.Engine || p.Fragment != out.Fragment {
			return ShardResult{}, fmt.Errorf("fabric: merge part %d (depth %d, engine %s) does not match part 0 (depth %d, engine %s): workers executed different checks",
				i, p.Depth, p.Engine, out.Depth, out.Engine)
		}
		min := p.Shards[0]
		for _, idx := range p.Shards {
			if seen[idx] {
				return ShardResult{}, fmt.Errorf("fabric: shard index %d covered by two merge parts", idx)
			}
			seen[idx] = true
			if idx < min {
				min = idx
			}
			out.Shards = append(out.Shards, idx)
		}
		if p.Satisfiable && (witnessShard < 0 || min < witnessShard) {
			witnessShard = min
			witness = p.Witness
			sat = true
		}
		trunc = trunc || p.Truncated
		respCapped = respCapped || p.ResponsesCapped
		paths += p.PathsExplored
		cached = cached && p.Cached
		if p.ElapsedMS > elapsed {
			elapsed = p.ElapsedMS
		}
	}
	sort.Ints(out.Shards)
	out.Satisfiable = sat
	out.Witness = witness
	out.PathsExplored = paths - (len(parts) - 1)
	out.Cached = cached
	out.ElapsedMS = elapsed
	if sat {
		out.Truncated = false
		out.ResponsesCapped = false
	} else {
		out.Truncated = trunc
		out.ResponsesCapped = respCapped
	}
	out.ShardsCompleted = len(out.Shards)
	out.ShardsTotal = len(out.Shards)
	return out, nil
}

// MergeCover folds whatever partial results survived dispatch into one
// coverage-tagged verdict against a plan of planSize canonical shards —
// the graceful-degradation merge. Witness-over-error priority holds: a
// verified witness from any completed shard settles the whole check as
// satisfiable and exact, however many shards are missing. Without a
// witness, an unsatisfiable claim is only exact under full coverage;
// under partial coverage the verdict is "no witness in the explored
// region" — Satisfiable=false with Truncated set and ShardsCompleted <
// ShardsTotal, which callers surface as Unknown. Partial verdicts must
// never be cache-admitted (the exact-only admission rule handles that,
// since partials are always Truncated).
func MergeCover(parts []ShardResult, planSize int) (ShardResult, error) {
	out, err := Merge(parts)
	if err != nil {
		return ShardResult{}, err
	}
	return out.Cover(planSize)
}

// Cover is MergeCover's coverage step on a result Merge returned: it
// checks the result's indexes against a plan of planSize canonical shards
// and tags its coverage, marking an unsatisfiable incomplete cover
// truncated. Merge's untagged result is what can join a later Merge.
func (r ShardResult) Cover(planSize int) (ShardResult, error) {
	if planSize <= 0 {
		return ShardResult{}, fmt.Errorf("fabric: merge against empty plan")
	}
	if len(r.Shards) > planSize {
		return ShardResult{}, fmt.Errorf("fabric: merge covers %d shards but the plan holds %d", len(r.Shards), planSize)
	}
	for _, idx := range r.Shards {
		if idx < 0 || idx >= planSize {
			return ShardResult{}, fmt.Errorf("fabric: merge part covers shard %d outside plan of %d", idx, planSize)
		}
	}
	r.ShardsCompleted = len(r.Shards)
	r.ShardsTotal = planSize
	if r.ShardsCompleted < planSize && !r.Satisfiable {
		// The unexplored shards could hold a witness: the unsat claim is
		// not exact, whatever the completed slices reported.
		r.Truncated = true
	}
	return r, nil
}
