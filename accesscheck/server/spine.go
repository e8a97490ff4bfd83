package server

// The request spine. A Server (the worker role) and a Coordinator each
// construct one in front of their backend. The spine owns everything the
// two roles do identically: the shared routes, size-capped strict JSON
// decoding, budget resolution and the deadline with its cause, the
// cause-split error mapping, /v1/batch with per-item budgets and NDJSON
// streaming, per-kind request counting, and the shared /metrics lines. A
// backend only answers one check, or one other task, under the deadline
// the spine armed.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"accltl/accesscheck"
)

// backend answers the tasks behind a spine: the worker solves them locally,
// the coordinator dispatches them over the fabric. Both run under the
// request's deadline. A context death comes back as a deadline or
// cancellation error, and the spine attributes it to its cause (ctxErr).
type backend interface {
	check(ctx context.Context, req CheckRequest) (*CheckResponse, error)
	// task answers a parsed non-check task with the kind's wire response;
	// payload is the wire request the task was parsed from.
	task(ctx context.Context, t *accesscheck.Task, payload any) (any, error)
}

// spine is one role's request contract. Construct with newSpine; the role
// then registers its own routes on mux.
type spine struct {
	cfg Config
	be  backend
	mux *http.ServeMux
	// prefix starts every shared metric name: "accserve_" on a worker,
	// "accserve_coordinator_" on a coordinator.
	prefix string
	// roleMetrics writes the role's own /metrics lines.
	roleMetrics func(io.Writer)

	// requests counts the tasks received per kind, on single routes and
	// as batch items alike.
	requests [numTaskKinds]atomic.Uint64
	// Context deaths by cause (see ctxErr): deadlines sums the three
	// deadline causes, the others split them out.
	deadlines      atomic.Uint64
	budgetExpiries atomic.Uint64
	shardExpiries  atomic.Uint64
	disconnects    atomic.Uint64
}

// newSpine registers the shared routes over be. cfg must already carry its
// defaults.
func newSpine(cfg Config, prefix string, be backend, roleMetrics func(io.Writer)) *spine {
	sp := &spine{cfg: cfg, be: be, mux: http.NewServeMux(), prefix: prefix, roleMetrics: roleMetrics}
	for kind, tw := range taskWire {
		sp.mux.HandleFunc("POST "+tw.path, sp.route(accesscheck.TaskKind(kind)))
	}
	sp.mux.HandleFunc("POST /v1/batch", sp.handleBatch)
	sp.mux.HandleFunc("GET /metrics", sp.handleMetrics)
	return sp
}

// ServeHTTP dispatches to the shared routes and the role's own.
func (sp *spine) ServeHTTP(w http.ResponseWriter, r *http.Request) { sp.mux.ServeHTTP(w, r) }

// decode reads a JSON body under the size cap. Unknown fields are
// rejected with 400: a typo'd option name must fail loudly instead of
// being silently ignored (a misspelled "grounded" would otherwise run the
// wrong check).
func (sp *spine) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(sp.body(w, r))
	dec.DisallowUnknownFields()
	return sp.decoded(w, dec.Decode(v))
}

// body is the request body under the size cap.
func (sp *spine) body(w http.ResponseWriter, r *http.Request) io.Reader {
	return http.MaxBytesReader(w, r.Body, sp.cfg.MaxBodyBytes)
}

// decoded answers a failed read or decode of body: 413 when the body
// outgrew the size cap, so it cannot exhaust memory, and 400 otherwise. It
// reports whether err is nil.
func (sp *spine) decoded(w http.ResponseWriter, err error) bool {
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
		return false
	}
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
	return false
}

// resolveBudget picks a request's deadline: its own budget field, then the
// ?budget= query parameter, then the configured default.
func (sp *spine) resolveBudget(item string, r *http.Request) (time.Duration, error) {
	for _, spec := range []string{item, r.URL.Query().Get("budget")} {
		if spec == "" {
			continue
		}
		d, err := time.ParseDuration(spec)
		if err != nil {
			return 0, badRequest("bad budget %q: %v", spec, err)
		}
		if d <= 0 {
			return 0, badRequest("bad budget %q: must be positive", spec)
		}
		return d, nil
	}
	return sp.cfg.DefaultBudget, nil
}

// ctxErr converts a context death into the error the route answers with,
// attributing it to its cause; any other error passes through. The
// deadlines total keeps its meaning ("budgets too tight"), while the
// cause-split counters and the returned code tell the request's own budget
// from a coordinator-imposed per-shard budget from a client disconnect:
// conflating them would let ordinary disconnects inflate the budget alarm,
// and budget expiry is the one retrying helps.
func (sp *spine) ctxErr(ctx context.Context, err error) error {
	if !isContextErr(err) {
		return err
	}
	cause := context.Cause(ctx)
	if cause == nil {
		cause = err
	}
	switch {
	case errors.Is(cause, errBudgetExhausted):
		sp.deadlines.Add(1)
		sp.budgetExpiries.Add(1)
		return &httpError{status: http.StatusGatewayTimeout, code: "budget_exhausted",
			err: fmt.Errorf("%w: %v", context.DeadlineExceeded, cause)}
	case errors.Is(cause, errShardBudgetExhausted):
		sp.deadlines.Add(1)
		sp.shardExpiries.Add(1)
		return &httpError{status: http.StatusGatewayTimeout, code: "shard_budget_exhausted",
			err: fmt.Errorf("%w: %v", context.DeadlineExceeded, cause)}
	case errors.Is(err, context.DeadlineExceeded):
		// An externally imposed deadline (a caller-supplied context): the
		// legacy code, no cause to blame.
		sp.deadlines.Add(1)
		return err
	default:
		sp.disconnects.Add(1)
		return &httpError{status: statusClientClosedRequest, code: "client_disconnected",
			err: fmt.Errorf("%w: client disconnected", context.Canceled)}
	}
}

// isContextErr reports whether err is a context death: a deadline (every
// budget cause counts as one) or a cancellation.
func isContextErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// serve answers one request under its own budget: resolve the budget, arm
// the deadline with cause, run, and render the answer or the mapped error.
func (sp *spine) serve(w http.ResponseWriter, r *http.Request, spec string, cause error, run func(context.Context) (any, error)) {
	budget, err := sp.resolveBudget(spec, r)
	if err != nil {
		writeError(w, err, sp.cfg.DefaultBudget)
		return
	}
	ctx, cancel := context.WithTimeoutCause(r.Context(), budget, cause)
	defer cancel()
	out, err := run(ctx)
	if err != nil {
		writeError(w, sp.ctxErr(ctx, err), budget)
		return
	}
	if res, ok := out.(*CheckResponse); ok {
		tagResumable(w, res, budget)
	}
	writeJSON(w, http.StatusOK, out)
}

// route is the handler of one single-task route: a one-item batch whose
// kind the path fixes, answered with the bare response.
func (sp *spine) route(kind accesscheck.TaskKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sp.requests[kind].Add(1)
		item := taskWire[kind].item()
		payload := item.payload(kind)
		if !sp.decode(w, r, payload) {
			return
		}
		sp.serve(w, r, item.budget(), errBudgetExhausted, func(ctx context.Context) (any, error) {
			return sp.answer(ctx, payload)
		})
	}
}

// answer runs one task payload through the backend: a check as it is, any
// other kind parsed into a validated facade task first.
func (sp *spine) answer(ctx context.Context, payload any) (any, error) {
	var t *accesscheck.Task
	var err error
	switch p := payload.(type) {
	case *CheckRequest:
		return sp.be.check(ctx, *p)
	case *ContainmentRequest:
		t, err = parseContainmentTask(p)
	case *RelevanceRequest:
		t, err = parseRelevanceTask(p)
	case *ChaseRequest:
		t, err = parseChaseTask(p)
	}
	if err != nil {
		return nil, err
	}
	return sp.be.task(ctx, t, payload)
}

// tagResumable stamps the retry horizon on a resumable 200: the identical
// request, re-issued after roughly the same budget, resumes the stored
// frontier. The header rides only on single-check responses; batch items
// carry the field alone.
func tagResumable(w http.ResponseWriter, res *CheckResponse, budget time.Duration) {
	if !res.Resumable {
		return
	}
	res.RetryAfter = retrySecs(budget)
	if w != nil {
		w.Header().Set("Retry-After", strconv.Itoa(res.RetryAfter))
	}
}

// handleBatch answers many independent tasks: the check-only "requests"
// form or the mixed-kind "items" form, under one size policy. The default
// buffers everything into one BatchResponse; with "Accept:
// application/x-ndjson" each item streams as its own line the moment it
// completes, so slow items do not delay fast ones reaching the client.
func (sp *spine) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !sp.decode(w, r, &req) {
		return
	}
	checksOnly := len(req.Requests) > 0
	n := len(req.Requests) + len(req.Items)
	switch {
	case checksOnly && len(req.Items) > 0:
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: `batch carries both "requests" and "items"; use one`})
		return
	case n == 0:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty batch"})
		return
	case n > sp.cfg.MaxBatch:
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("batch of %d exceeds the limit of %d", n, sp.cfg.MaxBatch)})
		return
	}
	items := req.Items
	if checksOnly {
		items = make([]TaskRequest, n)
		for i := range req.Requests {
			items[i].Check = &req.Requests[i]
		}
	}

	stream := strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
	results := make([]BatchItem, n)
	var done chan int
	if stream {
		done = make(chan int, n)
	}
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if stream {
				defer func() { done <- i }()
			}
			results[i] = sp.doItem(r, &items[i])
			if checksOnly {
				results[i].Task = "" // the original check-only wire shape
			}
		}(i)
	}
	if !stream {
		wg.Wait()
		writeJSON(w, http.StatusOK, BatchResponse{Results: results})
		return
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// Single writer: item goroutines publish completion via the channel
	// (which orders their writes to results[i] before our read), and only
	// this loop touches the ResponseWriter.
	for i := range done {
		_ = enc.Encode(BatchStreamItem{Index: i, BatchItem: results[i]})
		if fl != nil {
			fl.Flush()
		}
	}
}

// doItem answers one batch item under its own budget; every failure stays
// inside the item. Deadlines are per item, all anchored at arrival: the
// backend bounds actual parallelism, and an item whose budget expires
// while queued fails fast instead of hogging a slot.
func (sp *spine) doItem(r *http.Request, item *TaskRequest) BatchItem {
	budget, err := sp.resolveBudget(item.budget(), r)
	if err != nil {
		return BatchItem{Error: err.Error()}
	}
	ctx, cancel := context.WithTimeoutCause(r.Context(), budget, errBudgetExhausted)
	defer cancel()
	kind, err := accesscheck.ParseTaskKind(item.Task)
	if err != nil {
		return BatchItem{Task: item.Task, Error: err.Error()}
	}
	sp.requests[kind].Add(1)
	out := BatchItem{Task: kind.String()}
	payload := item.payload(kind)
	if payload == nil {
		out.Error = fmt.Sprintf("%s item without %q payload", kind, kind.String())
		return out
	}
	res, err := sp.answer(ctx, payload)
	if err != nil {
		out.Error = sp.ctxErr(ctx, err).Error()
		return out
	}
	switch res := res.(type) {
	case *CheckResponse:
		tagResumable(nil, res, budget)
		out.Result = res
	case *ContainmentResponse:
		out.Containment = res
	case *RelevanceResponse:
		out.Relevance = res
	case *ChaseResponse:
		out.Chase = res
	}
	return out
}

// handleMetrics renders the counters in Prometheus exposition style: plain
// text, one "name value" per line, scrape-friendly without pulling in a
// client library. The role's own lines come first, then the shared ones
// under the role's prefix.
func (sp *spine) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	sp.roleMetrics(w)
	fmt.Fprintf(w, "%sbudget_exhausted_total %d\n", sp.prefix, sp.budgetExpiries.Load())
	fmt.Fprintf(w, "%sclient_disconnected_total %d\n", sp.prefix, sp.disconnects.Load())
	for _, k := range taskKinds {
		fmt.Fprintf(w, "%stask_requests_total{task=%q} %d\n", sp.prefix, k.String(), sp.requests[k].Load())
	}
	// Both roles arm their failpoints from one spec, under one name.
	fmt.Fprintf(w, "accserve_failpoints_fired_total %d\n", sp.cfg.Failpoints.Fired())
}
