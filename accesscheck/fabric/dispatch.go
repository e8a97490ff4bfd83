package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"
)

// StatusError is a non-2xx answer from a worker, carrying the status and
// the (truncated) response body. Whether another attempt could help
// depends on the status (see BreakerFailure): 5xx other than 504 may be
// transient (worker overloaded, restarting behind the same address), 4xx
// means the request itself is wrong on every worker, and 504 means the
// shard's budget is already spent — retrying cannot finish any sooner.
type StatusError struct {
	Status int
	Worker string
	Body   string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("fabric: worker %s answered %d: %s", e.Worker, e.Status, e.Body)
}

// BreakerOpenError is a dispatch denied locally because the worker's
// circuit breaker is open: no request left the coordinator. It is a
// breaker failure, so DoHedged fails over to the next candidate
// immediately.
type BreakerOpenError struct{ Worker string }

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("fabric: breaker open for worker %s", e.Worker)
}

// BreakerFailure reports whether the error should count toward the
// worker's circuit breaker, which is also whether a fresh attempt (same or
// another worker) could plausibly succeed: transport-level failures, a
// locally denied breaker, and 5xx answers except budget-spent 504. A 4xx
// or 504 proves the worker is reachable and reasoning about the request,
// so it feeds the breaker as a success and would fail identically
// anywhere; context expiry is the caller's deadline, not the worker's
// fault, and feeds nothing. Exported so the coordinator's whole-request
// forwards apply the same rule as shard dispatch.
func BreakerFailure(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status >= 500 && se.Status != http.StatusGatewayTimeout
	}
	return true
}

// Post sends one JSON body to a worker route and returns the 200 response
// body, read up to 8 MiB. Any other status becomes a StatusError carrying
// the first 512 bytes of the body. Shard dispatch and the coordinator's
// whole-request forwards both go through it.
func Post(ctx context.Context, client *http.Client, worker, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := string(data)
		if len(msg) > 512 {
			msg = msg[:512]
		}
		return nil, &StatusError{Status: resp.StatusCode, Worker: worker, Body: msg}
	}
	return data, nil
}

// Dispatcher ships shards to workers over HTTP: POST {worker}/v1/shard
// with retries, exponential backoff and hedged requests. The zero value is
// usable; fields override the defaults.
type Dispatcher struct {
	// Client is the HTTP client (default: http.DefaultClient). Give it no
	// global timeout — per-shard budgets arrive via the context.
	Client *http.Client
	// Retries is the number of re-attempts per worker after the first try
	// (default 2). Only breaker failures (see BreakerFailure) are
	// re-attempted.
	Retries int
	// Backoff is the base retry delay (default 25ms). The actual sleep
	// before retry k is drawn uniformly from [0, min(MaxBackoff,
	// Backoff·2^(k-1))] — "full jitter", so a fleet of coordinators
	// retrying against a recovering worker spreads out instead of
	// hammering it in lockstep.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 2s).
	MaxBackoff time.Duration
	// HedgeAfter is how long DoHedged waits for the primary before firing
	// the same shard at the next candidate (default 400ms). The first
	// success wins and the loser's request is cancelled.
	HedgeAfter time.Duration
	// Registry, when set, supplies the per-worker circuit-breaker gate
	// (Allow) and receives every attempt's outcome (Record).
	Registry *Registry
	// Failpoints, when armed, is consulted before every outbound shard
	// request (site "dispatch.send").
	Failpoints *Failpoints
	// Jitter returns a uniform draw from [0,1) for backoff jitter
	// (default math/rand). Injectable for deterministic tests.
	Jitter func() float64
	// SleepFn waits the given duration or until ctx dies (default: a
	// timer). Injectable so retry tests need no wall-clock time.
	SleepFn func(ctx context.Context, d time.Duration) error

	dispatched atomic.Uint64
	retried    atomic.Uint64
	hedged     atomic.Uint64
	denied     atomic.Uint64
}

// DispatchStats is a snapshot of the dispatcher's lifetime counters:
// shards dispatched (first attempts), retry attempts (backoff re-sends and
// failover launches), and hedge launches (straggler duplicates fired by
// the hedge timer).
type DispatchStats struct {
	Dispatched uint64
	Retried    uint64
	Hedged     uint64
	// Denied counts dispatches refused locally by an open breaker.
	Denied uint64
}

// Stats snapshots the dispatch counters for /metrics exposition.
func (d *Dispatcher) Stats() DispatchStats {
	return DispatchStats{
		Dispatched: d.dispatched.Load(),
		Retried:    d.retried.Load(),
		Hedged:     d.hedged.Load(),
		Denied:     d.denied.Load(),
	}
}

func (d *Dispatcher) client() *http.Client {
	if d.Client != nil {
		return d.Client
	}
	return http.DefaultClient
}

func (d *Dispatcher) retries() int {
	if d.Retries > 0 {
		return d.Retries
	}
	if d.Retries == 0 {
		return 2
	}
	return 0
}

func (d *Dispatcher) backoff() time.Duration {
	if d.Backoff > 0 {
		return d.Backoff
	}
	return 25 * time.Millisecond
}

func (d *Dispatcher) maxBackoff() time.Duration {
	if d.MaxBackoff > 0 {
		return d.MaxBackoff
	}
	return 2 * time.Second
}

func (d *Dispatcher) jitter() float64 {
	if d.Jitter != nil {
		return d.Jitter()
	}
	return rand.Float64()
}

// sleepBackoff waits before retry attempt k (1-based) using capped full
// jitter: uniform in [0, min(MaxBackoff, Backoff·2^(k-1))].
func (d *Dispatcher) sleepBackoff(ctx context.Context, attempt int) error {
	ceil := d.maxBackoff()
	if exp := d.backoff() << (attempt - 1); exp > 0 && exp < ceil {
		ceil = exp
	}
	wait := time.Duration(d.jitter() * float64(ceil))
	if d.SleepFn != nil {
		return d.SleepFn(ctx, wait)
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (d *Dispatcher) hedgeAfter() time.Duration {
	if d.HedgeAfter > 0 {
		return d.HedgeAfter
	}
	return 400 * time.Millisecond
}

// Do executes the shard on one worker, retrying breaker failures with
// capped full-jitter backoff until the attempts or the context run out.
// Every attempt passes the worker's circuit breaker first: a denial fails
// locally with BreakerOpenError (no request sent, no feedback recorded)
// so callers can fail over without burning the worker's cooldown.
func (d *Dispatcher) Do(ctx context.Context, worker string, sh *Shard) (*ShardResult, error) {
	body, err := sh.Encode()
	if err != nil {
		return nil, err
	}
	attempts := d.retries() + 1
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			d.retried.Add(1)
			if err := d.sleepBackoff(ctx, i); err != nil {
				return nil, err
			}
		}
		if d.Registry != nil && !d.Registry.Allow(worker) {
			d.denied.Add(1)
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, &BreakerOpenError{Worker: worker}
		}
		if i == 0 {
			d.dispatched.Add(1)
		}
		res, err := d.once(ctx, worker, body)
		if d.Registry != nil {
			d.Registry.Record(worker, err)
		}
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !BreakerFailure(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

func (d *Dispatcher) once(ctx context.Context, worker string, body []byte) (*ShardResult, error) {
	if inj := d.Failpoints.Hit(FailDispatchSend); inj != nil {
		switch inj.Action {
		case ActDrop:
			return nil, &FailpointError{Name: FailDispatchSend}
		case ActErr500:
			return nil, &StatusError{Status: http.StatusInternalServerError, Worker: worker, Body: "failpoint " + FailDispatchSend}
		case ActBlackhole:
			<-ctx.Done()
			return nil, ctx.Err()
		case ActDelay:
			if err := inj.Sleep(ctx); err != nil {
				return nil, err
			}
		}
	}
	data, err := Post(ctx, d.client(), worker, "/v1/shard", body)
	if err != nil {
		return nil, err
	}
	var res ShardResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("fabric: worker %s: bad shard result: %w", worker, err)
	}
	if res.Version != WireVersion {
		return nil, fmt.Errorf("fabric: worker %s answered wire version %d, want %d", worker, res.Version, WireVersion)
	}
	return &res, nil
}

// DoHedged executes the shard against an ordered candidate list (the
// router's Sequence): the primary goes first; if it has not answered
// within HedgeAfter, or fails with a breaker failure, the next candidate
// is fired with the same shard. The first success wins — the losing
// in-flight request is cancelled — and the winning worker's URL is
// returned alongside the result. Any other failure (4xx, budget-spent 504,
// context expiry) aborts immediately: it would fail identically
// everywhere.
func (d *Dispatcher) DoHedged(ctx context.Context, workers []string, sh *Shard) (*ShardResult, string, error) {
	if len(workers) == 0 {
		return nil, "", fmt.Errorf("fabric: no workers to dispatch to")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		res    *ShardResult
		worker string
		err    error
	}
	ch := make(chan outcome, len(workers))
	launch := func(w string) {
		go func() {
			res, err := d.Do(ctx, w, sh)
			ch <- outcome{res: res, worker: w, err: err}
		}()
	}
	launched := 1
	launch(workers[0])
	hedge := time.NewTimer(d.hedgeAfter())
	defer hedge.Stop()
	var firstErr error
	pending := 1
	for pending > 0 {
		select {
		case <-ctx.Done():
			if firstErr == nil {
				firstErr = ctx.Err()
			}
			return nil, "", firstErr
		case <-hedge.C:
			if launched < len(workers) {
				d.hedged.Add(1)
				launch(workers[launched])
				launched++
				pending++
			}
		case o := <-ch:
			pending--
			if o.err == nil {
				return o.res, o.worker, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if !BreakerFailure(o.err) && ctx.Err() == nil {
				return nil, o.worker, o.err
			}
			// Failover: a breaker failure releases the slot to the next
			// candidate immediately rather than waiting for the hedge timer.
			if launched < len(workers) {
				d.retried.Add(1)
				launch(workers[launched])
				launched++
				pending++
			}
		}
	}
	return nil, "", firstErr
}
