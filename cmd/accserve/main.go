// accserve is the batch check server: an HTTP JSON API over the
// accesscheck facade with a bounded worker pool, per-request response-time
// budgets and an exact-results-only LRU cache.
//
//	accserve -addr :8080 -workers 8 -parallelism 2 -cache-size 4096 -default-budget 2s
//
// -workers bounds concurrent solves; -parallelism fans each solve's
// exploration out over that many walker goroutines (0 = auto, keeping
// workers × parallelism ≤ GOMAXPROCS).
//
// Caching tiers: the in-memory result cache is one LRU of -cache-size
// entries, so a full cache holds exactly the last -cache-size exact
// results; -cache-dir backs it with an append-only disk tier so exact
// check results survive restarts (evicted and shutdown-resident entries
// are written behind, and a restarted process with the same directory
// serves them without re-solving). Both are observable under /metrics
// (accserve_cache_tier_*, accserve_cache_hit_ratio{tier=...}).
//
// Endpoints (see accltl/accesscheck/server for the wire format):
//
//	POST /v1/check?budget=250ms   one check
//	POST /v1/batch                many checks, answered in order; with
//	                              `Accept: application/x-ndjson` items
//	                              stream as NDJSON lines on completion
//	POST /v1/shard                one fabric shard (partial check)
//	POST /v1/join                 coordinator: worker membership join/renew
//	GET  /v1/workers              coordinator: membership table admin view
//	GET  /healthz                 liveness
//	GET  /metrics                 counters: cache hits/misses, truncations,
//	                              in-flight solves, cause-split expiries
//	                              (budget / shard budget / disconnect),
//	                              anytime partials/resumes, checkpoints
//
// Anytime answers: a budget that expires mid-search with progress answers
// 200 with `coverage` < 1, `resumable: true` and a Retry-After header; the
// suspended frontier is checkpointed (bounded LRU, fingerprint-keyed) and
// an identical follow-up request resumes it, executing only unfinished
// shards. Repeat under a doubling budget to converge on the exact verdict.
// Zero-progress expiry 504s with code "budget_exhausted" (or
// "shard_budget_exhausted" for a coordinator-imposed per-shard deadline);
// a vanished client is 499 "client_disconnected".
//
// Distributed roles: `-worker` names the default standalone role (every
// server accepts /v1/shard); `-coordinator` runs the fan-out role instead,
// which solves nothing locally and dispatches shards to its membership
// table with cache-affinity routing, retries, hedging and per-worker
// circuit breakers. Members arrive two ways, combinable:
//
//   - `-fabric-workers=url,url` names permanent members;
//   - workers started with `-join=http://coordinator:8080` self-register
//     and renew a TTL lease (`-lease-ttl`) on a heartbeat, so the ring
//     grows and shrinks without a coordinator restart.
//
// Deterministic chaos: `-failpoints` (or ACCSERVE_FAILPOINTS) arms named
// fault injections, e.g. `-failpoints='worker.shard=err500:1'` to 500 the
// first shard request. See accltl/accesscheck/fabric.ParseFailpoints.
//
// Example:
//
//	curl -s localhost:8080/v1/check -d '{
//	  "relations": ["Mobile#:string,string,string,int"],
//	  "methods":   ["AcM1:Mobile#:0"],
//	  "formula":   "[exists n. bind AcM1(n)]",
//	  "budget":    "250ms"
//	}'
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"accltl/accesscheck/fabric"
	"accltl/accesscheck/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
	parallelism := flag.Int("parallelism", 0,
		"exploration walkers per solve; peak exploration concurrency is workers x parallelism (0 = auto: capped so the product stays <= GOMAXPROCS)")
	cacheSize := flag.Int("cache-size", 1024, "LRU result cache capacity (entries); a coordinator sizes its merged-result cache and its checkpoint store with it")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent result-cache tier; exact check results survive restarts (empty = memory-only)")
	defaultBudget := flag.Duration("default-budget", 5*time.Second, "per-request deadline when the request names none")
	worker := flag.Bool("worker", false, "run as a fabric worker (the default standalone role; the flag only names it)")
	coordinator := flag.Bool("coordinator", false, "run as a fabric coordinator: dispatch shards to the membership table instead of solving locally")
	fabricWorkers := flag.String("fabric-workers", "", "comma-separated permanent worker base URLs for -coordinator (e.g. http://h1:8080,http://h2:8080); may be empty when workers self-register via -join")
	hedgeAfter := flag.Duration("hedge-after", 400*time.Millisecond, "coordinator: duplicate a straggling shard onto a second worker after this long")
	retries := flag.Int("dispatch-retries", 2, "coordinator: re-attempts per worker on transient failure")
	maxBackoff := flag.Duration("max-backoff", 2*time.Second, "coordinator: cap on the jittered exponential retry backoff")
	breakerThreshold := flag.Int("breaker-threshold", 3, "coordinator: consecutive failures that open a worker's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "coordinator: how long an open breaker denies dispatches before one half-open trial")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "membership lease: coordinator default grant / worker requested TTL for -join")
	join := flag.String("join", "", "worker: coordinator base URL to self-register with and heartbeat against")
	advertise := flag.String("advertise", "", "worker: own base URL as the coordinator should dial it (default http://localhost<addr>)")
	failpointSpec := flag.String("failpoints", "", "deterministic fault injection spec, e.g. 'worker.shard=err500:1,dispatch.send=drop:2+' (overrides ACCSERVE_FAILPOINTS)")
	flag.Parse()

	if *worker && *coordinator {
		log.Fatal("accserve: -worker and -coordinator are mutually exclusive")
	}
	role := "worker"
	if *coordinator {
		role = "coordinator"
	}

	spec := *failpointSpec
	if spec == "" {
		spec = os.Getenv("ACCSERVE_FAILPOINTS")
	}
	failpoints, err := fabric.ParseFailpoints(spec)
	if err != nil {
		log.Fatalf("accserve: %v", err)
	}
	if failpoints != nil {
		log.Printf("accserve: FAILPOINTS ARMED: %s", spec)
	}

	var handler http.Handler
	var workerSrv *server.Server
	var workerList []string
	switch role {
	case "coordinator":
		if *join != "" {
			log.Fatal("accserve: -join is a worker flag; a coordinator accepts joins, it does not send them")
		}
		for _, u := range strings.Split(*fabricWorkers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				workerList = append(workerList, u)
			}
		}
		if len(workerList) == 0 {
			log.Print("accserve: no -fabric-workers; membership starts empty and grows via POST /v1/join")
		}
		coord, err := server.NewCoordinator(server.CoordinatorConfig{
			Workers: workerList,
			Server: server.Config{
				CacheSize:     *cacheSize,
				DefaultBudget: *defaultBudget,
				Failpoints:    failpoints,
			},
			Retries:    *retries,
			MaxBackoff: *maxBackoff,
			HedgeAfter: *hedgeAfter,
			Breaker: fabric.BreakerConfig{
				Threshold: *breakerThreshold,
				Cooldown:  *breakerCooldown,
			},
			DefaultLeaseTTL: *leaseTTL,
		})
		if err != nil {
			log.Fatalf("accserve: %v", err)
		}
		handler = coord
	default:
		workerSrv = server.New(server.Config{
			Workers:       *workers,
			Parallelism:   *parallelism,
			CacheSize:     *cacheSize,
			CacheDir:      *cacheDir,
			DefaultBudget: *defaultBudget,
			Failpoints:    failpoints,
		})
		handler = workerSrv
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Bounds header+body reads against slow-trickle clients; solve time
		// is governed by the per-request budget, not the read deadline.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
	}

	log.Printf("accserve %s starting: role=%s addr=%s", buildVersion(), role, *addr)
	if role == "coordinator" {
		log.Printf("accserve coordinator: workers=%s hedge-after=%s retries=%d cache=%d default-budget=%s breaker=%d/%s lease-ttl=%s",
			strings.Join(workerList, ","), *hedgeAfter, *retries, *cacheSize, *defaultBudget, *breakerThreshold, *breakerCooldown, *leaseTTL)
	} else {
		log.Printf("accserve worker: workers=%d parallelism=%d cache=%d default-budget=%s",
			*workers, *parallelism, *cacheSize, *defaultBudget)
	}

	// Worker self-registration: join the coordinator now and keep the TTL
	// lease renewed until shutdown. The loop dies with the process — no
	// leave message; the lease expiring is what evicts us, which is what
	// makes SIGKILL safe.
	hbCtx, hbCancel := context.WithCancel(context.Background())
	defer hbCancel()
	if *join != "" {
		adv := *advertise
		if adv == "" {
			adv = "http://localhost" + *addr
		}
		hb := &fabric.Heartbeat{
			Coordinator: strings.TrimRight(*join, "/"),
			Advertise:   adv,
			TTL:         *leaseTTL,
			OnError: func(err error) {
				log.Printf("accserve: membership renewal: %v", err)
			},
		}
		log.Printf("accserve worker: joining %s as %s (lease %s)", hb.Coordinator, adv, *leaseTTL)
		go hb.Run(hbCtx)
	}

	errc := make(chan error, 1)
	go func() {
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case sig := <-sigc:
		log.Printf("accserve: %s — draining", sig)
		hbCancel() // stop renewing; the lease lapses and the ring drops us
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("accserve: shutdown: %v", err)
		}
		// After the listener drains: flush the resident exact results
		// through to the disk tier so a restart with the same -cache-dir
		// answers them without re-solving.
		if workerSrv != nil {
			if err := workerSrv.Close(); err != nil {
				log.Printf("accserve: cache close: %v", err)
			}
		}
	}
}

// buildVersion summarises what binary is running: module version when
// installed, else the VCS revision the build embedded.
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "(no build info)"
	}
	ver := bi.Main.Version
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if ver == "" || ver == "(devel)" {
			return rev + dirty
		}
		return ver + " (" + rev + dirty + ")"
	}
	if ver == "" {
		return "(devel)"
	}
	return ver
}
