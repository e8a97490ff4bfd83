package server

// The worker role of the distributed check fabric: POST /v1/shard accepts
// a fabric.Shard — the full check plus the canonical partition slices to
// execute — answers a verified repeat from its cache tiers, and otherwise
// re-derives the shard plan locally, verifies it against the shipped
// canonical keys, runs the assigned slices with the mutate-and-undo core,
// and answers a fabric.ShardResult partial verdict. Every server is a
// capable worker; `accserve -worker` only names the role. The route is the
// worker's own, but a shard runs through the same anytime solve as
// /v1/check (solveCheck).
//
// Partial results go through the same tiers as whole checks, keyed by the
// shard-keyed fingerprint bound to the plan view the request asserts (its
// plan size and every shard ref; fabric.Shard.ViewDigest). The fingerprint
// includes the shard subset, so a cached partial verdict can never be
// confused with (or poison) a full check of the same inputs; the view
// binding means an entry is only ever found by a request asserting a view
// this worker verified before admitting it, so a hit answers without
// re-deriving the plan, while a tampered or skewed view misses and fails
// verification. The coordinator's affinity routing makes repeat shards of
// hot checks land where their entry already lives. The admission rule is
// unchanged — only exact (non-truncated) results are cached.

import (
	"context"
	"fmt"
	"net/http"

	"accltl/accesscheck"
	"accltl/accesscheck/fabric"
)

func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	if inj := s.cfg.Failpoints.Hit(fabric.FailWorkerShard); inj != nil {
		switch inj.Action {
		case fabric.ActDrop:
			// Abort the connection without a response — the coordinator sees
			// a transport failure, exactly like a crashed worker.
			panic(http.ErrAbortHandler)
		case fabric.ActErr500:
			writeJSON(w, http.StatusInternalServerError,
				errorResponse{Error: "failpoint " + fabric.FailWorkerShard})
			return
		case fabric.ActBlackhole:
			<-r.Context().Done()
			return
		case fabric.ActDelay:
			if err := inj.Sleep(r.Context()); err != nil {
				return
			}
		}
	}
	// The wire decoder itself (strict fields, version, slice invariants),
	// over the spine's size-capped body.
	sh, err := fabric.ReadShard(s.body(w, r))
	if !s.decoded(w, err) {
		return
	}
	// The shard budget is coordinator-imposed (shipped in the wire shard),
	// not this request's own: its expiry gets its own cause so worker
	// metrics and error bodies can tell the two apart.
	s.serve(w, r, sh.Budget, errShardBudgetExhausted, func(ctx context.Context) (any, error) {
		return s.doShard(ctx, sh)
	})
}

// doShard executes one wire shard end to end: parse, view-bound cache
// probe, plan verification, bounded subset solve, cache admission.
func (s *Server) doShard(ctx context.Context, sh *fabric.Shard) (*fabric.ShardResult, error) {
	par := s.parallelismFor(sh.Options)
	pc, err := parseCheck(CheckRequest{Relations: sh.Relations, Methods: sh.Methods, Formula: sh.Formula, Options: sh.Options},
		par, accesscheck.WithShards(sh.Indexes()...))
	if err != nil {
		return nil, err
	}
	chk, sch, f := pc.chk, pc.sch, pc.f

	// Only a result whose plan view passed verification below is ever
	// admitted under this key, so a hit in either tier was verified against
	// the same view and answers without planning.
	key := pc.fp + "/" + sh.ViewDigest()
	if out, ok := s.settled(key); ok {
		return shardPart(sh, out.Verdict), nil
	}

	// Miss: re-derive the partition and verify the sender's view of it. A
	// mismatch means coordinator and worker would not be searching the same
	// slices — version skew or diverging option defaults — and must fail
	// loudly (409) rather than merge a verdict about the wrong subspace.
	// The plan is derived through the checkpoint the search then runs on,
	// so a fresh group enumerates its partition once.
	plan, cp, err := chk.ShardPlanAnytime(ctx, sch, f, s.resumeFrom(key))
	if err != nil {
		if !isContextErr(err) {
			err = &httpError{status: http.StatusUnprocessableEntity, err: err}
		}
		return nil, err
	}
	if sh.PlanSize != len(plan) {
		s.shardMismatch.Add(1)
		return nil, &httpError{status: http.StatusConflict,
			err: fmt.Errorf("shard plan size %d does not match locally derived partition of %d", sh.PlanSize, len(plan))}
	}
	for _, ref := range sh.Shards {
		local := plan[ref.Index]
		if local.Key != ref.Key || local.WholeAccess != ref.WholeAccess {
			s.shardMismatch.Add(1)
			return nil, &httpError{status: http.StatusConflict,
				err: fmt.Errorf("shard %d key %q does not match locally derived %q", ref.Index, ref.Key, local.Key)}
		}
	}

	// Anytime frontier, keyed like the cache: each shard group of a check
	// owns its own checkpoint, so a redispatch of the identical group
	// (retry, hedge, or a resume round) picks up where the blown budget
	// left off, while sibling groups of the same check can never fold each
	// other's cumulative statistics into a partial report — a group's paths
	// must cover exactly its own slices for the coordinator's merge
	// arithmetic to stay honest.
	res, cp, err := s.solveCheck(ctx, chk, sch, f, key, par, cp)
	if err != nil {
		return nil, err
	}
	s.shardChecks.Add(1)
	out := shardPart(sh, wireResult(res, false).Verdict)
	if res.Resumable {
		// Partial coverage of the assigned group: report exactly the slices
		// that finished so the coordinator's merge counts honest coverage
		// and redispatches only the remainder. Resumable implies at least
		// one completed slice (a zero-progress expiry errors above). The
		// part claims only its completed slices, each explored to the
		// bound, so only the response cap qualifies it; the merge marks an
		// incomplete cover truncated, and a later full cover that includes
		// this part stays exact (and cacheable).
		out.Shards = cp.CompletedWithin(sh.Indexes())
		out.ShardsCompleted = len(out.Shards)
		out.Truncated = res.ResponsesCapped
	}
	return out, nil
}

// shardPart frames a verdict as the shard group's partial verdict: the
// executed indexes and the plan size come from the request, whose view the
// cache key pins.
func shardPart(sh *fabric.Shard, v fabric.Verdict) *fabric.ShardResult {
	v.ShardsCompleted, v.ShardsTotal = len(sh.Shards), sh.PlanSize
	return &fabric.ShardResult{Version: fabric.WireVersion, Shards: sh.Indexes(), Verdict: v}
}
