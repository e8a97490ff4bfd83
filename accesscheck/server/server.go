// Package server is the HTTP frontend of the accesscheck facade: a batch
// check service with bounded concurrency, per-request response-time budgets
// and an exact-results-only LRU cache, in the spirit of bounded-response-
// time query services (BlinkDB). It serves in two roles over one request
// spine (spine.go): a Server solves locally and doubles as a fabric
// worker, and a Coordinator fans checks out over a fabric of workers.
//
// Endpoints:
//
//	POST /v1/check        AccLTL satisfiability; CheckRequest → CheckResponse
//	POST /v1/containment  query containment (ucq / datalog / access modes);
//	                      ContainmentRequest → ContainmentResponse
//	POST /v1/relevance    accessible part / long-term relevance;
//	                      RelevanceRequest → RelevanceResponse
//	POST /v1/chase        FD+ID implication; ChaseRequest → ChaseResponse
//	POST /v1/batch        many tasks; BatchRequest (check-only "requests" or
//	                      mixed-task "items") → BatchResponse
//	POST /v1/shard        worker only: a slice of one check's shard plan;
//	                      fabric.Shard → fabric.ShardResult
//	GET  /healthz         liveness probe
//	GET  /metrics         Prometheus-style text counters (truncations,
//	                      cache tiers, per-task counters, in-flight, ...)
//
// The coordinator adds POST /v1/join and GET /v1/workers (coordinator.go).
//
// Every task kind, on either role, shares one spine: the same budget
// resolution, the same 504 semantics on a blown budget, and the same batch
// and error shapes. On a Server every task also shares the bounded worker
// pool and the exact-results-only LRU keyed by task-kind-aware
// fingerprints.
//
// Budget semantics: every check runs under a deadline. The most specific
// wins — the item's "budget" field, then the ?budget= query parameter, then
// the server's default. The budget becomes a context.WithTimeout around the
// solve, so an expired budget aborts the search loops promptly and the
// request fails with 504 (single check) or a per-item error (batch) instead
// of hanging.
//
// Cache-admission rule: only exact results are cached. A result with
// Truncated set — path cap, depth interplay, or response cap — is relative
// to this request's budget and caps, so it is returned to the caller but
// never admitted to the cache; a later identical request re-solves.
//
// Concurrency model: Workers bounds how many solves run at once, and
// Config.Parallelism bounds how many exploration walkers each solve may fan
// out to, so peak exploration concurrency is Workers × Parallelism; the
// default derivation keeps that product ≤ GOMAXPROCS. /metrics exposes both
// knobs plus workers_busy and the per-request parallelism sum/count.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"context"

	"accltl/accesscheck"
	"accltl/accesscheck/cache"
	"accltl/accesscheck/cachetier"
	"accltl/accesscheck/fabric"
)

// Config sizes the server; zero values select sensible defaults.
type Config struct {
	// Workers bounds concurrent solves across all requests (default
	// GOMAXPROCS). Queued work waits for a slot but keeps honouring its
	// budget while waiting.
	Workers int
	// Parallelism is the per-check exploration walker count handed to
	// accesscheck.WithParallelism: each running solve may fan its search
	// out over this many goroutines, so the server's peak exploration
	// concurrency is Workers × Parallelism. The default (0) keeps that
	// product within the machine: max(1, GOMAXPROCS / Workers), i.e.
	// workers × parallelism ≤ GOMAXPROCS. An explicit value is taken as
	// given — operators may oversubscribe deliberately. Per-request
	// "parallelism" options can lower the value for their own check but
	// never raise it above this limit.
	Parallelism int
	// CacheSize is the LRU capacity in results (default 1024), split evenly
	// across cacheShards fingerprint-sharded segments.
	CacheSize int
	// CacheDir, when non-empty, backs the result cache with an append-only
	// disk tier in this directory: entries evicted from memory (and the
	// residents at graceful shutdown, via Close) are written behind as wire
	// responses, and a restarted server answers previously seen exact
	// checks from disk without re-solving. The log is stamped with the
	// fingerprint scheme version; a log minted under another scheme is
	// discarded loudly at boot. Empty means memory-only (the previous
	// behavior).
	CacheDir string
	// DefaultBudget applies when neither the request body nor the query
	// string names one (default 5s). It must be positive: a server without
	// deadlines cannot promise bounded response times.
	DefaultBudget time.Duration
	// MaxBatch caps the requests accepted in one /v1/batch call
	// (default 256).
	MaxBatch int
	// MaxBodyBytes caps the request body size accepted by the JSON
	// endpoints (default 8 MiB): oversized bodies answer 413 instead of
	// being buffered into memory.
	MaxBodyBytes int64
	// Failpoints, when armed (accserve -failpoints / ACCSERVE_FAILPOINTS),
	// injects deterministic faults for chaos testing: at a worker's shard
	// handler ("worker.shard") and at a coordinator's shard dispatch
	// ("dispatch.send"). Nil in production.
	Failpoints *fabric.Failpoints
}

// cacheShards is the number of independently locked shards of the
// in-memory result cache, selected by the same FNV+avalanche hash the
// fabric's affinity ring uses (capped at CacheSize). Shards lower lock
// contention on hot mixed workloads; the per-shard LRU discipline and the
// exact-only admission rule are unchanged.
const cacheShards = 8

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0) / c.Workers
		if c.Parallelism < 1 {
			c.Parallelism = 1
		}
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 5 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// Server is the worker role: the request spine in front of the local
// solver. Construct with New; the zero value is not usable.
type Server struct {
	*spine
	// cache is the tiered result store: a fingerprint-sharded in-memory
	// LRU (exact results only), optionally written behind to an append-only
	// disk tier when Config.CacheDir is set. Only exact check results are
	// wire round-trippable, so only they persist; non-check task results
	// stay memory-resident.
	cache *cachetier.Tiered[accesscheck.TaskResult]
	// ckpts holds suspended anytime frontiers keyed by the fingerprint of
	// the check or shard group they belong to: the opposite admission
	// discipline of cache. Only partials live here; they are resumed,
	// never served as answers, and removed once the check settles.
	// Eviction is safe: a check that lost its frontier starts afresh.
	ckpts *cache.LRU[*accesscheck.Checkpoint]
	sem   chan struct{}
	// taskChk runs the non-check tasks. Their verdicts and fingerprints are
	// canonical in the payload alone (checker options do not leak in), so
	// one default-configured checker serves every such request.
	taskChk *accesscheck.Checker

	inFlight    atomic.Int64
	checks      atomic.Uint64
	truncations atomic.Uint64
	// anytimePartials counts resumable coverage-tagged answers served;
	// anytimeResumes counts requests that found a stored frontier to
	// resume from.
	anytimePartials atomic.Uint64
	anytimeResumes  atomic.Uint64
	errs            atomic.Uint64
	parSum          atomic.Uint64
	parCount        atomic.Uint64
	shardChecks     atomic.Uint64
	shardMismatch   atomic.Uint64

	// Per-task-kind counters, indexed by accesscheck.TaskKind: truncated
	// results served, and cache probe outcomes.
	taskTruncations [numTaskKinds]atomic.Uint64
	taskCacheHits   [numTaskKinds]atomic.Uint64
	taskCacheMisses [numTaskKinds]atomic.Uint64
}

// numTaskKinds sizes the per-task metric arrays.
const numTaskKinds = int(accesscheck.TaskChase) + 1

// taskKinds enumerates the kinds for metric rendering, in wire order.
var taskKinds = [numTaskKinds]accesscheck.TaskKind{
	accesscheck.TaskCheck, accesscheck.TaskContainment,
	accesscheck.TaskRelevance, accesscheck.TaskChase,
}

// New builds a Server from the config. A CacheDir that cannot be opened
// (or recovered) panics: a server told to persist must not silently run
// memory-only.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	taskChk, err := accesscheck.NewChecker()
	if err != nil {
		// NewChecker without options cannot fail; a change that makes it
		// fail must be caught loudly, not served as nil panics.
		panic(err)
	}
	// Exact results only: a truncated result is relative to this request's
	// caps and must never answer a later identical request. The rule lives
	// in cachetier.Admissible so every store in the fabric shares it.
	mem := cachetier.NewSharded(cfg.CacheSize, cacheShards, func(tr accesscheck.TaskResult) bool {
		return cachetier.Admissible(cachetier.Verdict{Truncated: tr.Truncated})
	})
	var back cachetier.Store
	if cfg.CacheDir != "" {
		dt, err := cachetier.OpenDiskTier(cachetier.DiskConfig{
			Dir:    cfg.CacheDir,
			Scheme: accesscheck.FingerprintSchemeVersion,
		})
		if err != nil {
			panic(fmt.Sprintf("server: cache dir %s: %v", cfg.CacheDir, err))
		}
		back = dt
	}
	s := &Server{
		cache:   cachetier.NewTiered(mem, back, encodeDiskCheck),
		ckpts:   cache.New(cfg.CacheSize, func(cp *accesscheck.Checkpoint) bool { return cp != nil }),
		sem:     make(chan struct{}, cfg.Workers),
		taskChk: taskChk,
	}
	s.spine = newSpine(cfg, "accserve_", s, s.writeMetrics)
	s.mux.HandleFunc("POST /v1/shard", s.handleShard)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Close flushes the resident exact check results through to the disk tier
// and closes it — the graceful-shutdown half of the write-behind contract.
// Call after the HTTP listener has drained (http.Server.Shutdown); safe on
// a memory-only server.
func (s *Server) Close() error { return s.cache.Close() }

// encodeDiskCheck is the disk tier's admission-and-serialization gate:
// only exact whole check results are wire round-trippable (a TaskResult's
// engine reports are not), so only they persist — as the JSON of the
// CheckResponse they would answer with, which a restarted server can
// serve verbatim.
func encodeDiskCheck(_ string, tr accesscheck.TaskResult) ([]byte, bool) {
	if tr.Kind != accesscheck.TaskCheck || tr.Check == nil || tr.Truncated {
		return nil, false
	}
	b, err := json.Marshal(wireResult(tr.Check, false))
	return b, err == nil
}

// CheckRequest is the wire form of one check: a schema as textual
// declarations (accesscheck.ParseSchema syntax), a formula
// (accesscheck.ParseFormula syntax), solver options, and an optional
// per-request budget ("250ms", "2s", ...).
type CheckRequest struct {
	Relations []string      `json:"relations"`
	Methods   []string      `json:"methods,omitempty"`
	Formula   string        `json:"formula"`
	Options   *CheckOptions `json:"options,omitempty"`
	Budget    string        `json:"budget,omitempty"`
}

// CheckOptions is a check request's "options": the facade's functional
// options on the wire, declared once in the fabric package because a
// coordinator ships them to its workers as they came.
type CheckOptions = fabric.CheckOptions

// CheckResponse is the wire form of an accesscheck.Result: the verdict as
// every role answers it, plus the anytime tags. Coverage / Resumable tag
// anytime answers (see accesscheck.Result): a Resumable response is a
// suspended partial whose frontier the server checkpointed — re-issuing the
// identical request resumes it, and RetryAfter suggests when (mirrored in a
// Retry-After header on single checks). Exact answers carry Coverage 1.
type CheckResponse struct {
	fabric.Verdict
	Coverage   float64 `json:"coverage,omitempty"`
	Resumable  bool    `json:"resumable,omitempty"`
	RetryAfter int     `json:"retry_after_seconds,omitempty"`
}

// BatchRequest carries many tasks; items are independent and answered in
// order. Exactly one of Requests (the original check-only form) and Items
// (mixed task kinds) must be set.
type BatchRequest struct {
	Requests []CheckRequest `json:"requests,omitempty"`
	Items    []TaskRequest  `json:"items,omitempty"`
}

// TaskRequest is one mixed-batch item: a task kind plus the matching
// request payload (which carries its own budget).
type TaskRequest struct {
	Task        string              `json:"task"`
	Check       *CheckRequest       `json:"check,omitempty"`
	Containment *ContainmentRequest `json:"containment,omitempty"`
	Relevance   *RelevanceRequest   `json:"relevance,omitempty"`
	Chase       *ChaseRequest       `json:"chase,omitempty"`
}

// BatchItem is one per-item outcome: Error, or exactly one result field
// matching the item's task kind (Result for checks, keeping the original
// check-only wire shape intact). Task echoes the kind on mixed batches.
type BatchItem struct {
	Task        string               `json:"task,omitempty"`
	Result      *CheckResponse       `json:"result,omitempty"`
	Containment *ContainmentResponse `json:"containment,omitempty"`
	Relevance   *RelevanceResponse   `json:"relevance,omitempty"`
	Chase       *ChaseResponse       `json:"chase,omitempty"`
	Error       string               `json:"error,omitempty"`
}

// BatchResponse lines up index-for-index with the batch's requests or
// items.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// BatchStreamItem is one NDJSON line of a streamed /v1/batch response: the
// item's index in the request plus its outcome. Lines arrive in completion
// order, not request order — the index is the correlation.
type BatchStreamItem struct {
	Index int `json:"index"`
	BatchItem
}

// errorResponse is the structured error body every non-2xx JSON endpoint
// answers with. Budget expiries additionally carry a machine-readable
// backoff: a Code naming what killed the context ("budget_exhausted",
// "shard_budget_exhausted", the legacy "deadline_exceeded" for externally
// imposed deadlines, "client_disconnected") and RetryAfter seconds,
// mirrored in a Retry-After header, so coordinator retry logic and real
// clients can back off programmatically instead of parsing prose.
type errorResponse struct {
	Error      string `json:"error"`
	Code       string `json:"code,omitempty"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
}

// Context causes: every deadline the server imposes is armed with one of
// these via context.WithTimeoutCause, so an expired context can say whether
// the request's own budget died, a coordinator-imposed per-shard budget
// died, or the client went away — three conditions that demand different
// operator responses (raise budgets / retune shard fan-out / nothing).
//
// The causes leak beyond our own handlers: net/http surfaces the context
// CAUSE (not context.DeadlineExceeded) in the errors of requests whose
// context expired, so a coordinator whose budget dies mid-dispatch sees
// `Post ...: request budget exhausted` from the transport. Every deadline
// classifier (fabric.BreakerFailure, isContextErr) asks
// errors.Is(err, context.DeadlineExceeded) — so the sentinels answer yes
// to that question via a custom Is, keeping them deadline errors wherever
// they travel while staying distinct identities for cause mapping.
type budgetCause struct{ msg string }

func (e *budgetCause) Error() string { return e.msg }

// Is makes the sentinel interchangeable with context.DeadlineExceeded for
// classification while remaining its own identity for cause switches.
func (e *budgetCause) Is(target error) bool { return target == context.DeadlineExceeded }

var (
	errBudgetExhausted      error = &budgetCause{msg: "request budget exhausted"}
	errShardBudgetExhausted error = &budgetCause{msg: "shard budget exhausted"}
)

// retrySecs rounds a budget up to whole seconds (minimum 1): a check that
// exhausted this budget needs at least a comparable budget again.
func retrySecs(budget time.Duration) int {
	secs := int((budget + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeError renders err with its mapped status; budget suggests the retry
// horizon on 504s that do not carry their own.
func writeError(w http.ResponseWriter, err error, budget time.Duration) {
	status := statusOf(err)
	body := errorResponse{Error: err.Error()}
	var he *httpError
	if errors.As(err, &he) && he.code != "" {
		// An error carrying its own machine-readable code (a cause-tagged
		// expiry, the coordinator's no_healthy_workers 503) renders it.
		body.Code = he.code
		body.RetryAfter = he.retryAfter
	}
	if status == http.StatusGatewayTimeout {
		if body.Code == "" {
			body.Code = "deadline_exceeded"
		}
		if body.RetryAfter == 0 {
			body.RetryAfter = retrySecs(budget)
		}
	}
	if body.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(body.RetryAfter))
	}
	writeJSON(w, status, body)
}

// httpError is an error with a dedicated HTTP status, and optionally a
// machine-readable code plus Retry-After horizon for structured bodies.
type httpError struct {
	status     int
	err        error
	code       string
	retryAfter int
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// parallelismFor resolves a check's effective walker count: the server's
// configured per-check parallelism, lowered (never raised) by the request.
func (s *Server) parallelismFor(o *CheckOptions) int {
	par := s.cfg.Parallelism
	if o != nil && o.Parallelism > 0 && o.Parallelism < par {
		par = o.Parallelism
	}
	return par
}

// checkerFor translates wire options into a Checker running at the given
// parallelism; extra options (e.g. a worker's shard restriction) are
// appended after the wire-derived ones.
func checkerFor(o *CheckOptions, parallelism int, extra ...accesscheck.Option) (*accesscheck.Checker, error) {
	opts := []accesscheck.Option{accesscheck.WithParallelism(parallelism)}
	if o != nil {
		engine, err := accesscheck.ParseEngine(o.Engine)
		if err != nil {
			return nil, err
		}
		opts = append(opts,
			accesscheck.WithEngine(engine),
			accesscheck.WithMaxDepth(o.MaxDepth),
			accesscheck.WithMaxPaths(o.MaxPaths),
			accesscheck.WithMaxResponseChoices(o.MaxResponseChoices),
		)
		if o.Grounded {
			opts = append(opts, accesscheck.WithGrounded())
		}
		if o.IdempotentOnly {
			opts = append(opts, accesscheck.WithIdempotentOnly())
		}
		if o.AllExact {
			opts = append(opts, accesscheck.WithAllExact())
		}
		if len(o.ExactMethods) > 0 {
			opts = append(opts, accesscheck.WithExactMethods(o.ExactMethods...))
		}
	}
	opts = append(opts, extra...)
	return accesscheck.NewChecker(opts...)
}

// parsedCheck is a check request as the facade takes it: the checker for
// its options, its schema and formula, and the checker's fingerprint of
// them.
type parsedCheck struct {
	chk *accesscheck.Checker
	sch *accesscheck.Schema
	f   accesscheck.Formula
	fp  string
}

// parseCheck is the prologue every role runs on a check: the required
// fields, the checker for the wire options at the given parallelism (extra
// options appended), the schema, the checker's validity for it
// (accesscheck.Checker.ValidateFor) and the formula — each failure a 400,
// before any cache tier is probed — and then the fingerprint.
func parseCheck(req CheckRequest, parallelism int, extra ...accesscheck.Option) (parsedCheck, error) {
	if req.Formula == "" {
		return parsedCheck{}, badRequest("missing formula")
	}
	if len(req.Relations) == 0 {
		return parsedCheck{}, badRequest("missing relations")
	}
	chk, err := checkerFor(req.Options, parallelism, extra...)
	if err != nil {
		return parsedCheck{}, badRequest("%v", err)
	}
	sch, err := accesscheck.ParseSchema(req.Relations, req.Methods)
	if err != nil {
		return parsedCheck{}, badRequest("%v", err)
	}
	if err := chk.ValidateFor(sch); err != nil {
		return parsedCheck{}, badRequest("%v", err)
	}
	f, err := accesscheck.ParseFormula(req.Formula)
	if err != nil {
		return parsedCheck{}, badRequest("%v", err)
	}
	return parsedCheck{chk: chk, sch: sch, f: f, fp: chk.Fingerprint(sch, f)}, nil
}

// check runs one check end to end: parse, cache probe (memory, then
// disk), anytime solve. ctx carries the request's budget.
func (s *Server) check(ctx context.Context, req CheckRequest) (*CheckResponse, error) {
	par := s.parallelismFor(req.Options)
	pc, err := parseCheck(req, par)
	if err != nil {
		return nil, err
	}
	if out, ok := s.settled(pc.fp); ok {
		s.taskCacheHits[accesscheck.TaskCheck].Add(1)
		return out, nil
	}
	s.taskCacheMisses[accesscheck.TaskCheck].Add(1)

	res, _, err := s.solveCheck(ctx, pc.chk, pc.sch, pc.f, pc.fp, par, s.resumeFrom(pc.fp))
	if err != nil {
		return nil, err
	}
	s.checks.Add(1)
	if res.Truncated {
		s.taskTruncations[accesscheck.TaskCheck].Add(1)
	}
	return wireResult(res, false), nil
}

// settled answers a check the cache tiers hold under key, marked cached:
// memory first, then the disk tier, where a previous process's exact
// verdicts survive restarts and are served verbatim without re-solving.
func (s *Server) settled(key string) (*CheckResponse, bool) {
	if tr, ok := s.cache.Get(key); ok && tr.Check != nil {
		return wireResult(tr.Check, true), true
	}
	if data, ok := s.cache.Persisted(key); ok {
		// The record's CRC already screens torn writes; a record that does
		// not decode (scheme drift the version stamp missed) is a miss.
		out := new(CheckResponse)
		if json.Unmarshal(data, out) == nil {
			out.Cached = true
			return out, true
		}
	}
	return nil, false
}

// resumeFrom returns the suspended frontier an identical request that blew
// its budget earlier left under fp, if any, and counts the resume.
func (s *Server) resumeFrom(fp string) *accesscheck.Checkpoint {
	cp, _ := s.ckpts.Get(fp)
	if cp != nil {
		s.anytimeResumes.Add(1)
	}
	return cp
}

// solveCheck is the one anytime solve behind /v1/check and /v1/shard. It
// runs on the caller's checkpoint prev: a frontier resumeFrom found under
// fp, which this run resumes instead of restarting from scratch, a
// checkpoint the caller planned through, or nil to start fresh. The
// frontier is kept under fp while the check is unsettled and dropped once
// it settles.
func (s *Server) solveCheck(ctx context.Context, chk *accesscheck.Checker, sch *accesscheck.Schema,
	f accesscheck.Formula, fp string, par int, prev *accesscheck.Checkpoint) (*accesscheck.Result, *accesscheck.Checkpoint, error) {
	var cp *accesscheck.Checkpoint
	tr, err := s.solve(ctx, fp, func() (*accesscheck.TaskResult, error) {
		// Per-request parallelism telemetry: sum/count expose the average
		// effective fan-out on /metrics without a histogram dependency.
		// Counted only once a solve actually starts — cache hits and
		// requests whose budget dies waiting for a worker slot run zero
		// walkers.
		s.parSum.Add(uint64(par))
		s.parCount.Add(1)
		res, next, err := chk.CheckAnytime(ctx, sch, f, prev)
		cp = next
		if err != nil {
			return nil, err
		}
		return checkTaskResult(res), nil
	})
	switch {
	case err != nil:
		if isContextErr(err) {
			// Expired with no completed shard: no honest coverage to answer
			// with, but the frontier's warm memo tables still accelerate a
			// retry. (No frontier when the budget died waiting for a slot.)
			s.ckpts.Add(fp, cp)
		}
		return nil, nil, err
	case tr.Check.Resumable:
		// Budget blown with progress made: a coverage-tagged partial whose
		// frontier the next identical request resumes. Resumable answers
		// are always Truncated, so solve kept them out of the cache.
		s.anytimePartials.Add(1)
		s.ckpts.Add(fp, cp)
	default:
		// Settled: the frontier is spent. Dropping it keeps a later
		// identical request from resuming stale cumulative statistics.
		s.ckpts.Remove(fp)
	}
	return tr.Check, cp, nil
}

// solve is the path every cache miss takes: wait for a worker slot without
// outliving the budget, run, release the slot, and admit the result. Exact
// results enter the cache under fp; a truncated one is relative to this
// request's caps, so it is counted and served but never cached.
func (s *Server) solve(ctx context.Context, fp string, run func() (*accesscheck.TaskResult, error)) (*accesscheck.TaskResult, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	s.inFlight.Add(1)
	tr, err := run()
	s.inFlight.Add(-1)
	<-s.sem
	if err != nil {
		if !isContextErr(err) {
			s.errs.Add(1)
			err = &httpError{status: http.StatusUnprocessableEntity, err: err}
		}
		return nil, err
	}
	if tr.Truncated {
		s.truncations.Add(1)
	} else {
		s.cache.Add(fp, *tr)
	}
	return tr, nil
}

// checkTaskResult wraps a check Result in the task envelope the cache
// stores.
func checkTaskResult(res *accesscheck.Result) *accesscheck.TaskResult {
	return &accesscheck.TaskResult{
		Kind:            accesscheck.TaskCheck,
		Verdict:         res.Satisfiable,
		Truncated:       res.Truncated,
		ShardsCompleted: res.ShardsCompleted,
		ShardsTotal:     res.ShardsTotal,
		Engine:          res.Engine.String(),
		Elapsed:         res.Elapsed,
		Check:           res,
	}
}

// wireResult is the one mapping of a facade Result onto the wire.
func wireResult(res *accesscheck.Result, cached bool) *CheckResponse {
	out := &CheckResponse{
		Verdict: fabric.Verdict{
			Satisfiable:     res.Satisfiable,
			Fragment:        res.Fragment.String(),
			InFragment:      res.InFragment,
			Decidable:       res.Decidable,
			Engine:          res.Engine.String(),
			Truncated:       res.Truncated,
			ResponsesCapped: res.ResponsesCapped,
			PathsExplored:   res.PathsExplored,
			Depth:           res.Depth,
			ElapsedMS:       float64(res.Elapsed) / float64(time.Millisecond),
			Cached:          cached,
			ShardsCompleted: res.ShardsCompleted,
			ShardsTotal:     res.ShardsTotal,
		},
		Coverage:  res.Coverage,
		Resumable: res.Resumable,
	}
	if res.Witness != nil {
		out.Witness = res.Witness.String()
	}
	return out
}

// statusClientClosedRequest is nginx's conventional status for a request
// abandoned by the client; there is no standard constant.
const statusClientClosedRequest = 499

func statusOf(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.status
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	if errors.Is(err, context.Canceled) {
		return statusClientClosedRequest
	}
	return http.StatusInternalServerError
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ratio renders h/(h+m) as a gauge value, 0 when nothing was probed.
func ratio(h, m uint64) float64 {
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// writeMetrics writes the worker's own /metrics lines; the spine adds the
// shared ones.
func (s *Server) writeMetrics(w io.Writer) {
	cs := s.cache.MemStats()
	fmt.Fprintf(w, "accserve_cache_rejected_total %d\n", cs.Rejected)
	fmt.Fprintf(w, "accserve_cache_size %d\n", cs.Size)
	fmt.Fprintf(w, "accserve_cache_capacity %d\n", cs.Capacity)
	fmt.Fprintf(w, "accserve_cache_shards %d\n", s.cache.Shards())
	fmt.Fprintf(w, "accserve_checks_total %d\n", s.checks.Load())
	fmt.Fprintf(w, "accserve_truncations_total %d\n", s.truncations.Load())
	fmt.Fprintf(w, "accserve_deadline_exceeded_total %d\n", s.deadlines.Load())
	fmt.Fprintf(w, "accserve_shard_budget_exhausted_total %d\n", s.shardExpiries.Load())
	fmt.Fprintf(w, "accserve_anytime_partials_total %d\n", s.anytimePartials.Load())
	fmt.Fprintf(w, "accserve_anytime_resumes_total %d\n", s.anytimeResumes.Load())
	ks := s.ckpts.Stats()
	fmt.Fprintf(w, "accserve_checkpoints_size %d\n", ks.Size)
	fmt.Fprintf(w, "accserve_checkpoints_capacity %d\n", ks.Capacity)
	fmt.Fprintf(w, "accserve_checkpoints_evictions_total %d\n", ks.Evictions)
	fmt.Fprintf(w, "accserve_check_errors_total %d\n", s.errs.Load())
	fmt.Fprintf(w, "accserve_shard_checks_total %d\n", s.shardChecks.Load())
	fmt.Fprintf(w, "accserve_shard_plan_mismatches_total %d\n", s.shardMismatch.Load())
	for _, k := range taskKinds {
		fmt.Fprintf(w, "accserve_task_truncations_total{task=%q} %d\n", k.String(), s.taskTruncations[k].Load())
		fmt.Fprintf(w, "accserve_task_cache_hits_total{task=%q} %d\n", k.String(), s.taskCacheHits[k].Load())
		fmt.Fprintf(w, "accserve_task_cache_misses_total{task=%q} %d\n", k.String(), s.taskCacheMisses[k].Load())
	}
	// Tiered-cache view: one unified tier-labeled family over every store,
	// plus hit-ratio gauges, so dashboards compare tiers without knowing
	// each store's own metric names.
	ts := s.cache.Stats()
	fmt.Fprintf(w, "accserve_cache_tier_hits_total{tier=\"memory\"} %d\n", cs.Hits)
	fmt.Fprintf(w, "accserve_cache_tier_misses_total{tier=\"memory\"} %d\n", cs.Misses)
	fmt.Fprintf(w, "accserve_cache_tier_evictions_total{tier=\"memory\"} %d\n", cs.Evictions)
	fmt.Fprintf(w, "accserve_cache_hit_ratio{tier=\"memory\"} %g\n", ratio(cs.Hits, cs.Misses))
	fmt.Fprintf(w, "accserve_cache_tier_hits_total{tier=\"disk\"} %d\n", ts.DiskHits)
	fmt.Fprintf(w, "accserve_cache_tier_misses_total{tier=\"disk\"} %d\n", ts.DiskMisses)
	fmt.Fprintf(w, "accserve_cache_hit_ratio{tier=\"disk\"} %g\n", ratio(ts.DiskHits, ts.DiskMisses))
	fmt.Fprintf(w, "accserve_cache_tier_hits_total{tier=\"checkpoint\"} %d\n", ks.Hits)
	fmt.Fprintf(w, "accserve_cache_tier_misses_total{tier=\"checkpoint\"} %d\n", ks.Misses)
	fmt.Fprintf(w, "accserve_cache_tier_evictions_total{tier=\"checkpoint\"} %d\n", ks.Evictions)
	fmt.Fprintf(w, "accserve_cache_hit_ratio{tier=\"checkpoint\"} %g\n", ratio(ks.Hits, ks.Misses))
	fmt.Fprintf(w, "accserve_cache_disk_flushed_total %d\n", ts.Flushed)
	if ds, ok := s.cache.DiskStats(); ok {
		fmt.Fprintf(w, "accserve_cache_disk_records %d\n", ds.Records)
		fmt.Fprintf(w, "accserve_cache_disk_bytes %d\n", ds.Bytes)
		fmt.Fprintf(w, "accserve_cache_disk_writes_total %d\n", ds.Writes)
		fmt.Fprintf(w, "accserve_cache_disk_deletes_total %d\n", ds.Deletes)
		fmt.Fprintf(w, "accserve_cache_disk_corrupt_tails_total %d\n", ds.CorruptTails)
		fmt.Fprintf(w, "accserve_cache_disk_scheme_discards_total %d\n", ds.SchemeDiscards)
	}
	fmt.Fprintf(w, "accserve_in_flight %d\n", s.inFlight.Load())
	fmt.Fprintf(w, "accserve_workers %d\n", s.cfg.Workers)
	fmt.Fprintf(w, "accserve_workers_busy %d\n", len(s.sem))
	fmt.Fprintf(w, "accserve_parallelism %d\n", s.cfg.Parallelism)
	fmt.Fprintf(w, "accserve_request_parallelism_sum %d\n", s.parSum.Load())
	fmt.Fprintf(w, "accserve_request_parallelism_count %d\n", s.parCount.Load())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
