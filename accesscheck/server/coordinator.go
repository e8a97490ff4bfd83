package server

// The coordinator role of the distributed check fabric: the request spine
// in front of a fabric dispatcher instead of a local solver. A check's
// canonical shard plan is grouped by the consistent-hash owner of
// Fingerprint+shard-key (cache affinity: the same slice of the same check
// always lands on the worker whose shard-keyed LRU already holds it); one
// wire shard per owner is dispatched under the request's remaining budget
// with retries and hedging, and the partial verdicts merge with the
// witness/error-priority semantics the in-process sharded engine pins.
//
// Fallbacks keep the surface total: a check whose plan fails or has fewer
// than two slices, or a fabric with one healthy worker, is forwarded whole
// to a single worker's /v1/check (still routed by fingerprint so its
// whole-check cache stays hot).
//
// The coordinator keeps two stores of its own, keyed by the shard-less
// check fingerprint. The merged-result cache holds exact assembled
// verdicts only (witness-settled or full-cover un-truncated), so a repeat
// check answers without touching the fabric. The checkpoint store holds
// the opposite: for each check whose dispatch came back incomplete
// (worker budgets expired with partial progress, or shard groups lost to
// degradable failures), the union of the parts collected so far. A
// follow-up identical request redispatches only the canonical indexes the
// union lacks and merges the union with the new parts, so the cover grows
// monotonically.
//
// Non-check tasks (/v1/containment, /v1/relevance, /v1/chase, and the
// matching mixed-batch items) are never fanned out — shard planning is a
// property of the check pipeline only. Each is forwarded whole to the
// worker the ring selects for its task fingerprint, so repeat tasks land
// where their cache entry lives.
//
// The coordinator's own routes are POST /v1/join, GET /v1/workers and a
// /healthz that probes every worker.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"accltl/accesscheck"
	"accltl/accesscheck/cache"
	"accltl/accesscheck/cachetier"
	"accltl/accesscheck/fabric"
)

// CoordinatorConfig sizes a coordinator.
type CoordinatorConfig struct {
	// Workers are the permanent members of the membership table: base URLs
	// of accserve worker processes. May be empty — workers can self-register
	// via POST /v1/join and keep their TTL lease alive on a heartbeat.
	Workers []string
	// Server carries the knobs the spine reads (DefaultBudget, MaxBatch,
	// MaxBodyBytes) and Failpoints, whose "dispatch.send" site fires on
	// shard dispatch. CacheSize sizes the merged-result cache and the
	// checkpoint store. The solver-pool fields (Workers, Parallelism,
	// CacheDir) are unused: the coordinator never solves locally.
	Server Config
	// Retries / Backoff / MaxBackoff / HedgeAfter tune the fabric
	// dispatcher (zero values select its defaults).
	Retries    int
	Backoff    time.Duration
	MaxBackoff time.Duration
	HedgeAfter time.Duration
	// Breaker tunes the per-worker circuit breakers (zero values select
	// the registry defaults: threshold 3, cooldown 5s).
	Breaker fabric.BreakerConfig
	// DefaultLeaseTTL is the lease granted to joins that name no TTL
	// (default 15s).
	DefaultLeaseTTL time.Duration
	// Client is the HTTP client used for worker traffic (default: one with
	// no global timeout — budgets arrive per request via contexts).
	Client *http.Client
}

// Coordinator is the coordinator role: the request spine in front of the
// fabric. Construct with NewCoordinator.
type Coordinator struct {
	*spine
	client *http.Client
	reg    *fabric.Registry
	disp   *fabric.Dispatcher
	// taskChk derives task fingerprints for affinity routing; non-check
	// fingerprints are canonical in the payload alone, so a default checker
	// agrees with every worker.
	taskChk *accesscheck.Checker
	// resCache holds exact merged verdicts (witness-settled, or full-cover
	// and not cap-truncated) keyed by the shard-less fingerprint — the
	// same key affinity routing uses. Partial merges never enter.
	resCache *cache.LRU[fabric.ShardResult]
	// ckpts holds the frontiers of incomplete dispatches: the union
	// fabric.Merge made of the parts collected so far, untagged by the
	// cover, with ShardsTotal the plan size it was collected against.
	ckpts *cache.LRU[fabric.ShardResult]

	checks        atomic.Uint64
	fanouts       atomic.Uint64
	forwards      atomic.Uint64
	dispatchErrs  atomic.Uint64
	mergeFailures atomic.Uint64
	partials      atomic.Uint64
	resumes       atomic.Uint64
	noWorkers     atomic.Uint64
	// taskForwards counts whole-task forwards per kind (check forwards are
	// the plan/worker fallback counted in forwards).
	taskForwards [numTaskKinds]atomic.Uint64
}

// NewCoordinator builds a coordinator over a (possibly empty) permanent
// worker list; the membership table grows and shrinks at runtime through
// /v1/join leases.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	reg, err := fabric.NewRegistryWithConfig(fabric.RegistryConfig{
		Workers:    cfg.Workers,
		Client:     client,
		Breaker:    cfg.Breaker,
		DefaultTTL: cfg.DefaultLeaseTTL,
	})
	if err != nil {
		return nil, err
	}
	taskChk, err := accesscheck.NewChecker()
	if err != nil {
		return nil, err
	}
	scfg := cfg.Server.withDefaults()
	c := &Coordinator{
		client: client,
		reg:    reg,
		// Exact-only admission: a witness settles the check exactly however
		// much coverage is missing; anything else must cover the full plan
		// without cap truncation to answer a later identical request. The
		// rule is cachetier.Admissible, shared with the worker stores —
		// merged results always carry ShardsTotal = len(plan) ≥ 2, so the
		// Planned == 0 whole-space clause never fires here.
		resCache: cache.New(scfg.CacheSize, func(r fabric.ShardResult) bool {
			return cachetier.Admissible(cachetier.Verdict{
				WitnessSettled: r.Satisfiable,
				Truncated:      r.Truncated,
				Covered:        r.ShardsCompleted,
				Planned:        r.ShardsTotal,
			})
		}),
		ckpts: cache.New[fabric.ShardResult](scfg.CacheSize, nil),
		disp: &fabric.Dispatcher{
			Client:     client,
			Retries:    cfg.Retries,
			Backoff:    cfg.Backoff,
			MaxBackoff: cfg.MaxBackoff,
			HedgeAfter: cfg.HedgeAfter,
			Registry:   reg,
			Failpoints: scfg.Failpoints,
		},
		taskChk: taskChk,
	}
	c.spine = newSpine(scfg, "accserve_coordinator_", c, c.writeMetrics)
	c.mux.HandleFunc("POST /v1/join", c.handleJoin)
	c.mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	return c, nil
}

// Registry exposes the worker registry (health probing, status snapshots).
func (c *Coordinator) Registry() *fabric.Registry { return c.reg }

// check plans, fans out, and merges one check.
func (c *Coordinator) check(ctx context.Context, req CheckRequest) (*CheckResponse, error) {
	// The shard-less checker: its fingerprint is the affinity key every
	// slice of this check shares, and its plan is the partition. Request
	// parallelism is a worker-side execution knob, irrelevant to both.
	pc, err := parseCheck(req, 1)
	if err != nil {
		return nil, err
	}
	chk, sch, f, fp := pc.chk, pc.sch, pc.f, pc.fp

	// Merged-result cache: an exact verdict already assembled for this
	// check answers without touching the fabric at all.
	if hit, ok := c.resCache.Get(fp); ok {
		c.checks.Add(1)
		out := wireShardMerge(hit)
		out.Cached = true
		return out, nil
	}

	// The ring is built over every member — open breakers stay in it so
	// affinity survives brief outages (the dispatcher's breaker gate skips
	// them and fails over along the sequence) — but a request only
	// proceeds if someone could admit it.
	workers, err := c.availableWorkers()
	if err != nil {
		return nil, err
	}
	router := fabric.NewRouter(workers)

	plan, _, planErr := chk.ShardPlan(ctx, sch, f)
	if planErr != nil || len(plan) < 2 || len(workers) < 2 {
		c.forwards.Add(1)
		out := new(CheckResponse)
		if err := c.forward(ctx, router.Sequence(fp, len(workers)), "/v1/check", req, out); err != nil {
			return nil, err
		}
		c.checks.Add(1)
		return out, nil
	}
	c.fanouts.Add(1)

	// Resume: the stored frontier's indexes need no redispatch — only the
	// shards no previous round completed go back on the wire, and the
	// frontier leads this round's parts into the merge. A frontier
	// collected against another plan size is stale.
	var merged []fabric.ShardResult
	var covered []int
	if union, ok := c.ckpts.Get(fp); ok && union.ShardsTotal == len(plan) {
		merged, covered = append(merged, union), union.Shards
		c.resumes.Add(1)
	}

	// Group the plan's not-yet-covered slices by their affinity owner,
	// preserving canonical order inside each group; each group ships as one
	// wire shard with the owner first in its hedge/failover candidate list.
	// The plan and the frontier's indexes are both ascending.
	type group struct {
		refs []fabric.ShardRef
		seq  []string
	}
	groups := make(map[string]*group)
	var order []string
	for _, sh := range plan {
		if len(covered) > 0 && covered[0] == sh.Index {
			covered = covered[1:]
			continue
		}
		key := fabric.RouteKey(fp, sh.Key)
		seq := router.Sequence(key, len(workers))
		g, ok := groups[seq[0]]
		if !ok {
			g = &group{seq: seq}
			groups[seq[0]] = g
			order = append(order, seq[0])
		}
		g.refs = append(g.refs, fabric.ShardRef{Index: sh.Index, Key: sh.Key, WholeAccess: sh.WholeAccess})
	}

	budget := time.Duration(0)
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl)
	}
	if budget <= 0 {
		return nil, errBudgetExhausted
	}
	// Reserve a merge window: the per-shard budget on the wire is shorter
	// than the request's own remaining budget, so a worker whose slice ran
	// out of time still answers its suspended partial BEFORE this request's
	// deadline closes the connection. Shipping the full remainder instead
	// would make both ends expire simultaneously and lose every partial to
	// the dead connection — the request would 504 with zero collected
	// coverage no matter how much the workers finished.
	wireBudget := budget - budget/5
	if wireBudget <= 0 {
		wireBudget = budget
	}

	parts := make([]*fabric.ShardResult, len(order))
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for i, owner := range order {
		g := groups[owner]
		wire := &fabric.Shard{
			Version:   fabric.WireVersion,
			Relations: req.Relations,
			Methods:   req.Methods,
			Formula:   req.Formula,
			Options:   req.Options,
			Budget:    wireBudget.String(),
			PlanSize:  len(plan),
			Shards:    g.refs,
		}
		wg.Add(1)
		go func(i int, g *group, wire *fabric.Shard) {
			defer wg.Done()
			res, _, err := c.disp.DoHedged(ctx, g.seq, wire)
			parts[i], errs[i] = res, err
		}(i, g, wire)
	}
	wg.Wait()

	// This round's successes join the frontier in one merge: the stored
	// union and fresh parts participate identically, and Merge refuses an
	// index covered twice or parts of different checks.
	var firstErr error
	for i, err := range errs {
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		merged = append(merged, *parts[i])
	}
	if firstErr != nil {
		// Graceful degradation: a shard group that exhausted its retries
		// and failovers loses its slices, not the request. Whatever
		// verdicts DID come back merge into a coverage-tagged partial —
		// witness-over-error priority holds (a witness from any completed
		// shard settles the whole check, exactly), and without a witness
		// the answer is Unknown: Satisfiable=false, Truncated,
		// ShardsCompleted < ShardsTotal. Partials are always Truncated, so
		// the exact-only cache-admission rule keeps them out of every
		// cache — instead their frontier is checkpointed, making the
		// partial resumable: an identical request redispatches only the
		// missing slices. Only infrastructure failures degrade: a 4xx
		// means the request itself is wrong on every worker and fails
		// outright.
		if len(merged) > 0 && degradable(firstErr) {
			if out, err := c.finishMerge(fp, merged, len(plan)); err == nil {
				return out, nil
			}
		}
		// Non-degradable failure: a witness already in hand still settles
		// the verdict (the in-process engine's witness-over-error
		// priority); unsat partials cannot stand in for the missing slices.
		for _, p := range merged {
			if p.Satisfiable {
				c.resCache.Add(fp, p)
				c.ckpts.Remove(fp)
				return wireShardMerge(p), nil
			}
		}
		return nil, c.dispatchError(firstErr)
	}
	out, err := c.finishMerge(fp, merged, len(plan))
	if err != nil {
		return nil, &httpError{status: http.StatusBadGateway, err: err}
	}
	return out, nil
}

// finishMerge merges a round's parts against a plan of planSize shards and
// settles the result against the two stores: exact verdicts (witness, or
// full cover) enter the merged-result cache and retire any frontier;
// incomplete covers — workers whose own budgets expired with partial
// progress, or shard groups lost to degradable failures — store their
// union as the frontier, so the next identical request redispatches only
// what is missing.
func (c *Coordinator) finishMerge(fp string, parts []fabric.ShardResult, planSize int) (*CheckResponse, error) {
	union, err := fabric.Merge(parts)
	var res fabric.ShardResult
	if err == nil {
		res, err = union.Cover(planSize)
	}
	if err != nil {
		c.mergeFailures.Add(1)
		return nil, err
	}
	c.checks.Add(1)
	if !res.Satisfiable && res.ShardsCompleted < res.ShardsTotal {
		c.partials.Add(1)
		// The union as Merge made it, not as Cover tagged it: the tag marks
		// an incomplete cover truncated, and a stored tag would keep the
		// full cover a later round completes truncated too.
		union.ShardsTotal = planSize
		c.ckpts.Add(fp, union)
	} else {
		// Final answer. Admission still applies: a full-cover verdict
		// truncated by path caps is cap-relative and stays out of the
		// cache, but its checkpoint is spent either way.
		c.resCache.Add(fp, res)
		c.ckpts.Remove(fp)
	}
	return wireShardMerge(res), nil
}

// degradable reports whether a shard-group failure may be absorbed into a
// coverage-tagged partial answer. Infrastructure failures — transport,
// 5xx, open breakers, a budget that died inside the fabric — degrade; a
// 4xx means the request itself is wrong on every worker and must fail.
func degradable(err error) bool {
	var se *fabric.StatusError
	if errors.As(err, &se) {
		return se.Status >= 500
	}
	return true
}

// availableWorkers returns the full membership ring, failing with the
// structured 503 no_healthy_workers error when the table is empty or no
// breaker would admit a dispatch.
func (c *Coordinator) availableWorkers() ([]string, error) {
	avail, hint := c.reg.Available()
	if len(avail) == 0 {
		c.noWorkers.Add(1)
		return nil, noHealthyWorkersError(hint)
	}
	return c.reg.Workers(), nil
}

// noHealthyWorkersError is the structured 503 the coordinator answers when
// nothing could accept a dispatch: code "no_healthy_workers" plus a
// Retry-After derived from the soonest breaker cooldown.
func noHealthyWorkersError(hint time.Duration) error {
	secs := int((hint + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return &httpError{
		status:     http.StatusServiceUnavailable,
		code:       "no_healthy_workers",
		retryAfter: secs,
		err:        fmt.Errorf("no healthy workers: membership table empty or every breaker open"),
	}
}

// forward ships one whole request to the first worker of seq that answers
// it, failing over along seq; out receives the worker's 200 body. Breaker-
// open candidates are skipped without a request, and every answer feeds
// the breaker by the rule shard dispatch uses (fabric.BreakerFailure):
// only a breaker failure moves on to the next candidate; any other answer
// would be the same on every worker. Forwards bypass the dispatcher: they
// are not retried or hedged, and not counted as shard dispatches.
func (c *Coordinator) forward(ctx context.Context, seq []string, path string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var lastErr error
	for _, worker := range seq {
		if !c.reg.Allow(worker) {
			continue
		}
		data, err := fabric.Post(ctx, c.client, worker, path, body)
		if err == nil {
			if err = json.Unmarshal(data, out); err != nil {
				err = fmt.Errorf("worker %s: bad %s response: %w", worker, path, err)
			}
		}
		c.reg.Record(worker, err)
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil || !fabric.BreakerFailure(err) {
			break
		}
	}
	if lastErr == nil {
		// Every candidate was denied locally by its breaker.
		c.noWorkers.Add(1)
		_, hint := c.reg.Available()
		return noHealthyWorkersError(hint)
	}
	return c.dispatchError(lastErr)
}

// task forwards one non-check task whole to the worker its fingerprint
// ring-selects — shard fan-out is a check-pipeline property, so the other
// kinds travel undivided and land where their cache entry lives.
func (c *Coordinator) task(ctx context.Context, t *accesscheck.Task, payload any) (any, error) {
	fp, err := c.taskChk.FingerprintTask(t)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	c.taskForwards[t.Kind].Add(1)
	workers, err := c.availableWorkers()
	if err != nil {
		return nil, err
	}
	seq := fabric.NewRouter(workers).Sequence(fp, len(workers))
	out := taskWire[t.Kind].response()
	if err := c.forward(ctx, seq, taskWire[t.Kind].path, payload, out); err != nil {
		return nil, err
	}
	return out, nil
}

// dispatchError maps a fabric failure onto the coordinator's own response
// and counts it. A context death passes through, and a worker's 504 (the
// budget this request's own budget derived died inside the fabric) becomes
// this request's budget expiry: the spine counts and answers both as
// expiries, never as dispatch errors. Other worker-reported 4xx statuses
// pass through (the request is wrong on any worker); transport failures
// and everything else become 502.
func (c *Coordinator) dispatchError(err error) error {
	var se *fabric.StatusError
	isStatus := errors.As(err, &se)
	switch {
	case isContextErr(err):
		return err
	case isStatus && se.Status == http.StatusGatewayTimeout:
		return errBudgetExhausted
	}
	c.dispatchErrs.Add(1)
	if isStatus && se.Status >= 400 && se.Status < 500 {
		return &httpError{status: se.Status, err: err}
	}
	return &httpError{status: http.StatusBadGateway, err: err}
}

// wireShardMerge renders a merged partial verdict as the public
// CheckResponse. Coverage/Resumable follow the anytime contract: a witness
// or a full cover is exact (Coverage 1); anything less is a resumable
// partial — the coordinator checkpoints its frontier, so the identical
// request redispatches only the missing shards.
func wireShardMerge(res fabric.ShardResult) *CheckResponse {
	out := &CheckResponse{Verdict: res.Verdict}
	switch {
	case res.Satisfiable || (res.ShardsTotal > 0 && res.ShardsCompleted == res.ShardsTotal):
		out.Coverage = 1
	case res.ShardsTotal > 0:
		out.Coverage = float64(res.ShardsCompleted) / float64(res.ShardsTotal)
		out.Resumable = true
	}
	return out
}

// handleJoin is the membership endpoint: a worker announces (or renews)
// itself and receives its granted lease. Rejoining preserves the member's
// breaker state — a flapping worker cannot launder its failure history by
// re-registering.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req fabric.JoinRequest
	if !c.decode(w, r, &req) {
		return
	}
	var ttl time.Duration
	if req.TTL != "" {
		d, err := time.ParseDuration(req.TTL)
		if err != nil || d <= 0 {
			writeError(w, badRequest("bad ttl %q: want a positive Go duration", req.TTL), c.cfg.DefaultBudget)
			return
		}
		ttl = d
	}
	st, granted, err := c.reg.Join(req.URL, ttl)
	if err != nil {
		writeError(w, badRequest("%v", err), c.cfg.DefaultBudget)
		return
	}
	writeJSON(w, http.StatusOK, fabric.JoinResponse{Granted: granted.String(), Worker: st})
}

// handleWorkers is the admin view of the membership table. Unlike
// /healthz it never probes and always answers 200 — an empty table is an
// observable state, not an error — so operators and smoke scripts can
// watch membership converge.
func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	rs := c.reg.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"workers":       c.reg.Snapshot(),
		"members":       rs.Members,
		"permanent":     rs.Permanent,
		"joins_total":   rs.Joins,
		"expirations":   rs.Expirations,
		"breaker_opens": rs.BreakerOpens,
	})
}

// handleHealthz probes every worker and reports per-worker reachability:
// 200 with status "ok" when all workers answer, "degraded" when only some
// do, 503 when none do.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	healthy := c.reg.ProbeAll(ctx)
	snap := c.reg.Snapshot()
	status := "ok"
	code := http.StatusOK
	switch {
	case healthy == 0:
		status = "down"
		code = http.StatusServiceUnavailable
	case healthy < len(snap):
		status = "degraded"
	}
	writeJSON(w, code, map[string]any{
		"status":  status,
		"role":    "coordinator",
		"workers": snap,
	})
}

// writeMetrics writes the coordinator's own /metrics lines; the spine adds
// the shared ones under the accserve_coordinator_ prefix.
func (c *Coordinator) writeMetrics(w io.Writer) {
	ds := c.disp.Stats()
	fmt.Fprintf(w, "accserve_coordinator_checks_total %d\n", c.checks.Load())
	fmt.Fprintf(w, "accserve_coordinator_fanouts_total %d\n", c.fanouts.Load())
	fmt.Fprintf(w, "accserve_coordinator_forwards_total %d\n", c.forwards.Load())
	fmt.Fprintf(w, "accserve_coordinator_dispatch_errors_total %d\n", c.dispatchErrs.Load())
	fmt.Fprintf(w, "accserve_coordinator_merge_failures_total %d\n", c.mergeFailures.Load())
	fmt.Fprintf(w, "accserve_coordinator_partial_answers_total %d\n", c.partials.Load())
	fmt.Fprintf(w, "accserve_coordinator_resumes_total %d\n", c.resumes.Load())
	fmt.Fprintf(w, "accserve_coordinator_no_workers_total %d\n", c.noWorkers.Load())
	rcs := c.resCache.Stats()
	fmt.Fprintf(w, "accserve_coordinator_cache_hits_total %d\n", rcs.Hits)
	fmt.Fprintf(w, "accserve_coordinator_cache_misses_total %d\n", rcs.Misses)
	fmt.Fprintf(w, "accserve_coordinator_cache_size %d\n", rcs.Size)
	fmt.Fprintf(w, "accserve_coordinator_cache_evictions_total %d\n", rcs.Evictions)
	ccs := c.ckpts.Stats()
	fmt.Fprintf(w, "accserve_coordinator_checkpoints_size %d\n", ccs.Size)
	fmt.Fprintf(w, "accserve_coordinator_checkpoints_evictions_total %d\n", ccs.Evictions)
	// Unified tier-labeled view, in the worker's scheme: the coordinator's
	// stores are its merged-result cache and its shard-group checkpoint
	// frontier.
	fmt.Fprintf(w, "accserve_cache_tier_hits_total{tier=\"merged\"} %d\n", rcs.Hits)
	fmt.Fprintf(w, "accserve_cache_tier_misses_total{tier=\"merged\"} %d\n", rcs.Misses)
	fmt.Fprintf(w, "accserve_cache_tier_evictions_total{tier=\"merged\"} %d\n", rcs.Evictions)
	fmt.Fprintf(w, "accserve_cache_hit_ratio{tier=\"merged\"} %g\n", ratio(rcs.Hits, rcs.Misses))
	fmt.Fprintf(w, "accserve_cache_tier_hits_total{tier=\"checkpoint\"} %d\n", ccs.Hits)
	fmt.Fprintf(w, "accserve_cache_tier_misses_total{tier=\"checkpoint\"} %d\n", ccs.Misses)
	fmt.Fprintf(w, "accserve_cache_tier_evictions_total{tier=\"checkpoint\"} %d\n", ccs.Evictions)
	fmt.Fprintf(w, "accserve_cache_hit_ratio{tier=\"checkpoint\"} %g\n", ratio(ccs.Hits, ccs.Misses))
	for _, k := range taskKinds {
		if k == accesscheck.TaskCheck {
			continue // whole-check forwards are accserve_coordinator_forwards_total
		}
		fmt.Fprintf(w, "accserve_coordinator_task_forwards_total{task=%q} %d\n", k.String(), c.taskForwards[k].Load())
	}
	fmt.Fprintf(w, "accserve_fabric_shards_dispatched_total %d\n", ds.Dispatched)
	fmt.Fprintf(w, "accserve_fabric_retries_total %d\n", ds.Retried)
	fmt.Fprintf(w, "accserve_fabric_hedges_total %d\n", ds.Hedged)
	fmt.Fprintf(w, "accserve_fabric_breaker_denied_total %d\n", ds.Denied)
	rs := c.reg.Stats()
	fmt.Fprintf(w, "accserve_registry_members %d\n", rs.Members)
	fmt.Fprintf(w, "accserve_registry_permanent_members %d\n", rs.Permanent)
	fmt.Fprintf(w, "accserve_registry_joins_total %d\n", rs.Joins)
	fmt.Fprintf(w, "accserve_registry_expirations_total %d\n", rs.Expirations)
	fmt.Fprintf(w, "accserve_registry_breaker_opens_total %d\n", rs.BreakerOpens)
	snap := c.reg.Snapshot()
	sorted := make([]fabric.WorkerStatus, len(snap))
	copy(sorted, snap)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].URL < sorted[j].URL })
	for _, ws := range sorted {
		up := 0
		if ws.Healthy {
			up = 1
		}
		fmt.Fprintf(w, "accserve_worker_up{worker=%q} %d\n", ws.URL, up)
		// Breaker position as a gauge: 0 closed, 1 open, 2 half-open.
		fmt.Fprintf(w, "accserve_worker_breaker_state{worker=%q,state=%q} %d\n", ws.URL, ws.State, breakerGauge(ws.State))
	}
}

func breakerGauge(state string) int {
	switch state {
	case "open":
		return 1
	case "half-open":
		return 2
	default:
		return 0
	}
}
