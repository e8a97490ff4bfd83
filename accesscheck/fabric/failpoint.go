package fabric

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Failpoints is a deterministic fault-injection facility: named points in
// the fabric (the dispatcher's send path, the worker's shard handler)
// consult the table on every pass, and an armed failpoint fires on the
// Nth hit with a chosen action. Specs are strings so they can be armed
// from a flag (`accserve -failpoints=…`) or the ACCSERVE_FAILPOINTS env
// var, and hit counting is per-table, so chaos scenarios are reproducible
// Go tests under -race instead of kill-a-process scripts.
//
// Spec grammar (comma-separated list):
//
//	name=action:count[+][:duration]
//
//	name      the failpoint site, e.g. dispatch.send or worker.shard
//	action    drop | delay | err500 | blackhole
//	count     fire on exactly the count-th hit (1-based); with a trailing
//	          `+`, fire on the count-th hit and every hit after it
//	duration  for delay: how long to stall (Go duration, default 50ms)
//
// Examples:
//
//	dispatch.send=drop:1          drop the first outbound shard request
//	worker.shard=err500:2+        500 every shard call from the 2nd on
//	dispatch.send=delay:3:200ms   stall the 3rd send for 200ms
//	worker.shard=blackhole:1      hold the 1st shard call until ctx death
type Failpoints struct {
	mu     sync.Mutex
	points map[string]*failpoint

	fired atomic.Uint64
}

// FailpointAction is what an armed failpoint does when it fires.
type FailpointAction int

const (
	// ActDrop fails the request locally as if the transport broke.
	ActDrop FailpointAction = iota
	// ActDelay stalls the request for the configured duration, then lets
	// it proceed.
	ActDelay
	// ActErr500 answers (or surfaces) an HTTP 500 without doing the work.
	ActErr500
	// ActBlackhole holds the request until its context is cancelled — the
	// worst failure mode: no answer, no error, just a hung connection.
	ActBlackhole
)

// String names the action as it appears in specs.
func (a FailpointAction) String() string {
	switch a {
	case ActDrop:
		return "drop"
	case ActDelay:
		return "delay"
	case ActErr500:
		return "err500"
	case ActBlackhole:
		return "blackhole"
	default:
		return "unknown"
	}
}

// Names of the failpoint sites the fabric consults.
const (
	// FailDispatchSend fires in Dispatcher.once, before the HTTP request
	// leaves the coordinator.
	FailDispatchSend = "dispatch.send"
	// FailWorkerShard fires at the top of the worker's /v1/shard handler.
	FailWorkerShard = "worker.shard"
)

type failpoint struct {
	action   FailpointAction
	count    int  // 1-based hit ordinal to fire on
	sticky   bool // fire on count and every later hit
	duration time.Duration
	hits     int
}

// Injection is a fired failpoint: the action the site must carry out.
type Injection struct {
	Action   FailpointAction
	Duration time.Duration // for ActDelay
}

// FailpointError is the transport-flavoured error produced by ActDrop; it
// is a breaker failure, worth another attempt, like any other transport
// failure.
type FailpointError struct{ Name string }

func (e *FailpointError) Error() string {
	return fmt.Sprintf("fabric: failpoint %s dropped request", e.Name)
}

// ParseFailpoints parses a comma-separated failpoint spec. An empty spec
// yields a nil table, which every site treats as "nothing armed".
func ParseFailpoints(spec string) (*Failpoints, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	fps := &Failpoints{points: make(map[string]*failpoint)}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("fabric: bad failpoint %q (want name=action:count)", entry)
		}
		parts := strings.Split(rest, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("fabric: bad failpoint %q (want name=action:count[+][:duration])", entry)
		}
		fp := &failpoint{duration: 50 * time.Millisecond}
		switch strings.TrimSpace(parts[0]) {
		case "drop":
			fp.action = ActDrop
		case "delay":
			fp.action = ActDelay
		case "err500":
			fp.action = ActErr500
		case "blackhole":
			fp.action = ActBlackhole
		default:
			return nil, fmt.Errorf("fabric: unknown failpoint action %q in %q", parts[0], entry)
		}
		countStr := strings.TrimSpace(parts[1])
		if strings.HasSuffix(countStr, "+") {
			fp.sticky = true
			countStr = strings.TrimSuffix(countStr, "+")
		}
		n, err := strconv.Atoi(countStr)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("fabric: bad failpoint count in %q (want positive integer)", entry)
		}
		fp.count = n
		if len(parts) == 3 {
			d, err := time.ParseDuration(strings.TrimSpace(parts[2]))
			if err != nil || d < 0 {
				return nil, fmt.Errorf("fabric: bad failpoint duration in %q: %v", entry, err)
			}
			fp.duration = d
		}
		if _, dup := fps.points[name]; dup {
			return nil, fmt.Errorf("fabric: duplicate failpoint %q", name)
		}
		fps.points[name] = fp
	}
	return fps, nil
}

// Hit records one pass through the named site and returns the injection
// to carry out, or nil to proceed normally. Safe on a nil table.
func (f *Failpoints) Hit(name string) *Injection {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	fp, ok := f.points[name]
	if !ok {
		f.mu.Unlock()
		return nil
	}
	fp.hits++
	fire := fp.hits == fp.count || (fp.sticky && fp.hits > fp.count)
	inj := Injection{Action: fp.action, Duration: fp.duration}
	f.mu.Unlock()
	if !fire {
		return nil
	}
	f.fired.Add(1)
	return &inj
}

// Fired reports how many injections the table has carried out — exposed
// on /metrics so an accidentally armed failpoint is visible.
func (f *Failpoints) Fired() uint64 {
	if f == nil {
		return 0
	}
	return f.fired.Load()
}

// Sleep honours an ActDelay injection, returning early (with the context
// error) if ctx dies first.
func (inj *Injection) Sleep(ctx context.Context) error {
	t := time.NewTimer(inj.Duration)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
