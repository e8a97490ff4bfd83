package fabric

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// WorkerStatus is one member's view in the registry: its base URL, its
// circuit-breaker state, its membership kind (permanent vs. leased), and
// the latest probe/dispatch evidence. It is the element of the
// coordinator's /healthz and /v1/workers bodies.
type WorkerStatus struct {
	URL string `json:"url"`
	// Healthy is the headline bit: the breaker is closed. Open and
	// half-open members are not Healthy even though an open breaker past
	// its cooldown would still admit a trial dispatch.
	Healthy bool `json:"healthy"`
	// State is the breaker position: "closed", "open" or "half-open".
	State string `json:"state"`
	// Failures is the consecutive-failure streak feeding the breaker.
	Failures int `json:"failures,omitempty"`
	// Permanent marks a statically configured member (never evicted);
	// leased members carry their lease horizon instead.
	Permanent    bool      `json:"permanent,omitempty"`
	LeaseExpires time.Time `json:"lease_expires,omitempty"`
	LastError    string    `json:"last_error,omitempty"`
	LastProbe    time.Time `json:"last_probe,omitempty"`
}

type member struct {
	permanent    bool
	leaseExpires time.Time
	br           *Breaker
	lastError    string
	lastProbe    time.Time
}

// RegistryConfig sizes a registry; zero values select the defaults.
type RegistryConfig struct {
	// Workers are the permanent members (scheme://host[:port]): the static
	// `-fabric-workers` list. May be empty — a coordinator can start with
	// no members and grow entirely through Join.
	Workers []string
	// Client probes /healthz (default: 5s-timeout client).
	Client *http.Client
	// Breaker tunes the per-member circuit breakers.
	Breaker BreakerConfig
	// DefaultTTL is the lease granted when a join names none (default 15s).
	DefaultTTL time.Duration
	// MaxTTL caps requested leases (default 5m) so a typo'd TTL cannot pin
	// a dead worker into the ring for hours.
	MaxTTL time.Duration
	// Clock is injectable for deterministic lease/breaker tests
	// (default time.Now).
	Clock func() time.Time
}

func (c RegistryConfig) withDefaults() RegistryConfig {
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if c.DefaultTTL <= 0 {
		c.DefaultTTL = 15 * time.Second
	}
	if c.MaxTTL <= 0 {
		c.MaxTTL = 5 * time.Minute
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Registry is the fabric's membership table: a set of worker base URLs,
// each with a circuit breaker driven by probe and dispatch feedback.
// Permanent members come from static configuration and are never evicted;
// dynamic members self-register via Join and must renew their TTL lease on
// a heartbeat, or they expire out of the table (and therefore out of the
// consistent-hash ring the coordinator builds over Workers()). Expiry is
// swept lazily on every access, so an evicted member disappears from
// routing on the next request without any background goroutine.
type Registry struct {
	cfg RegistryConfig

	mu      sync.RWMutex
	order   []string // membership order: permanents first, then join order
	members map[string]*member

	joins       atomic.Uint64
	expirations atomic.Uint64
	opens       atomic.Uint64
}

// RegistryStats snapshots the registry's lifetime counters for /metrics.
type RegistryStats struct {
	Members      int
	Permanent    int
	Joins        uint64
	Expirations  uint64
	BreakerOpens uint64
}

// NewRegistry builds a registry whose permanent members are the given
// worker base URLs, with default breaker and lease settings. An empty list
// is allowed: the table then grows only through Join.
func NewRegistry(urls []string, client *http.Client) (*Registry, error) {
	return NewRegistryWithConfig(RegistryConfig{Workers: urls, Client: client})
}

// NewRegistryWithConfig builds a registry from the full configuration.
func NewRegistryWithConfig(cfg RegistryConfig) (*Registry, error) {
	cfg = cfg.withDefaults()
	r := &Registry{cfg: cfg, members: make(map[string]*member)}
	for _, raw := range cfg.Workers {
		w, err := normalizeWorkerURL(raw)
		if err != nil {
			return nil, err
		}
		if _, dup := r.members[w]; dup {
			continue
		}
		r.order = append(r.order, w)
		r.members[w] = &member{permanent: true, br: r.newBreaker()}
	}
	return r, nil
}

func (r *Registry) newBreaker() *Breaker {
	return NewBreaker(r.cfg.Breaker, r.cfg.Clock, func() { r.opens.Add(1) })
}

// normalizeWorkerURL validates a worker base URL and returns its canonical
// form, the member's identity and so its place on the ring: an http or
// https scheme and an ASCII host[:port], lower-cased. Anything else is
// refused: userinfo, a path, a query or a fragment (dispatches append
// their route to the base URL, so a stray path answers 404 to every shard
// the member is given), and a host and port spelled otherwise than
// net.JoinHostPort writes them (an empty or zero-padded port, an
// unbracketed IPv6 address). Surrounding space and trailing slashes are
// trimmed; a canonical URL comes back byte-identical.
func normalizeWorkerURL(raw string) (string, error) {
	w := strings.TrimRight(strings.TrimSpace(raw), "/")
	if canon, ok := canonicalWorkerURL(w); ok {
		return canon, nil
	}
	return "", fmt.Errorf("fabric: bad worker URL %q (need http[s]://host[:port])", raw)
}

func canonicalWorkerURL(w string) (string, bool) {
	for i := 0; i < len(w); i++ {
		if w[i] >= utf8.RuneSelf {
			return "", false
		}
	}
	u, err := url.Parse(w)
	if err != nil || u.Scheme != "http" && u.Scheme != "https" || u.Hostname() == "" {
		return "", false
	}
	host := strings.ToLower(u.Hostname())
	if u.Port() != "" {
		port, err := strconv.ParseUint(u.Port(), 10, 16)
		if err != nil {
			return "", false
		}
		host = net.JoinHostPort(host, strconv.FormatUint(port, 10))
	} else if strings.Contains(host, ":") {
		host = "[" + host + "]"
	}
	canon := u.Scheme + "://" + host
	return canon, strings.EqualFold(w, canon)
}

// sweepLocked evicts leased members whose lease has expired; callers hold
// r.mu for writing.
func (r *Registry) sweepLocked() {
	now := r.cfg.Clock()
	kept := r.order[:0]
	for _, w := range r.order {
		m := r.members[w]
		if !m.permanent && m.leaseExpires.Before(now) {
			delete(r.members, w)
			r.expirations.Add(1)
			continue
		}
		kept = append(kept, w)
	}
	r.order = kept
}

// Join registers a worker or renews its lease: the membership side of
// POST /v1/join. ttl <= 0 selects the default; requests above MaxTTL are
// clamped. Re-joining an existing member renews the lease but keeps the
// member's breaker — a flapping worker cannot reset its breaker by
// rejoining. Joining a permanent member is a no-op acknowledgement. The
// granted TTL (zero for permanent members) is returned with the member's
// status.
func (r *Registry) Join(rawURL string, ttl time.Duration) (WorkerStatus, time.Duration, error) {
	w, err := normalizeWorkerURL(rawURL)
	if err != nil {
		return WorkerStatus{}, 0, err
	}
	if ttl <= 0 {
		ttl = r.cfg.DefaultTTL
	}
	if ttl > r.cfg.MaxTTL {
		ttl = r.cfg.MaxTTL
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked()
	r.joins.Add(1)
	m, ok := r.members[w]
	if !ok {
		m = &member{br: r.newBreaker()}
		r.members[w] = m
		r.order = append(r.order, w)
	}
	if m.permanent {
		return r.statusLocked(w, m), 0, nil
	}
	m.leaseExpires = r.cfg.Clock().Add(ttl)
	return r.statusLocked(w, m), ttl, nil
}

// Workers returns every current member URL, in membership order, after
// sweeping expired leases. This is the set the coordinator's hash ring is
// built over — open breakers stay in the ring (affinity is preserved
// through brief outages; the dispatcher's breaker gate skips them), while
// expired leases leave it.
func (r *Registry) Workers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Healthy returns the members whose breakers are closed, in membership
// order.
func (r *Registry) Healthy() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked()
	out := make([]string, 0, len(r.order))
	for _, w := range r.order {
		if st, _ := r.members[w].br.snapshot(); st == BreakerClosed {
			out = append(out, w)
		}
	}
	return out
}

// Available returns the members a dispatch could currently be admitted to
// — breaker closed, half-open with a free trial slot, or open past its
// cooldown — without consuming any half-open trial. When the answer is
// empty, the returned duration is the soonest horizon at which a breaker
// would admit again (the coordinator's Retry-After hint); it is zero when
// members are available and a default of one second when there are no
// members at all.
func (r *Registry) Available() ([]string, time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked()
	var out []string
	soonest := time.Duration(0)
	for _, w := range r.order {
		ok, rem := r.members[w].br.ready()
		if ok {
			out = append(out, w)
			continue
		}
		if soonest == 0 || rem < soonest {
			soonest = rem
		}
	}
	if len(out) > 0 {
		return out, 0
	}
	if soonest == 0 {
		soonest = time.Second
	}
	return nil, soonest
}

// Allow is the dispatch-side breaker gate: it consumes the admission for
// the named member (including the single half-open trial slot). Unknown
// URLs are allowed — dispatching to a worker outside the membership table
// is the caller's business.
func (r *Registry) Allow(worker string) bool {
	r.mu.Lock()
	m, ok := r.members[worker]
	if ok && !m.permanent && m.leaseExpires.Before(r.cfg.Clock()) {
		// Lease died mid-flight: the member is gone for routing purposes,
		// but an in-hand dispatch may proceed (and its feedback will be
		// dropped by record below).
		ok = false
	}
	r.mu.Unlock()
	if !ok {
		return true
	}
	return m.br.Allow()
}

// Snapshot reports every member's status, in membership order — the
// coordinator's /healthz and /v1/workers body.
func (r *Registry) Snapshot() []WorkerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked()
	out := make([]WorkerStatus, len(r.order))
	for i, w := range r.order {
		out[i] = r.statusLocked(w, r.members[w])
	}
	return out
}

func (r *Registry) statusLocked(w string, m *member) WorkerStatus {
	st, fails := m.br.snapshot()
	return WorkerStatus{
		URL:          w,
		Healthy:      st == BreakerClosed,
		State:        st.String(),
		Failures:     fails,
		Permanent:    m.permanent,
		LeaseExpires: m.leaseExpires,
		LastError:    m.lastError,
		LastProbe:    m.lastProbe,
	}
}

// Stats snapshots the registry counters for /metrics exposition.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	r.sweepLocked()
	members, permanent := len(r.order), 0
	for _, w := range r.order {
		if r.members[w].permanent {
			permanent++
		}
	}
	r.mu.Unlock()
	return RegistryStats{
		Members:      members,
		Permanent:    permanent,
		Joins:        r.joins.Load(),
		Expirations:  r.expirations.Load(),
		BreakerOpens: r.opens.Load(),
	}
}

// ProbeAll probes every member's /healthz concurrently and feeds the
// outcomes to the breakers: a failed probe counts toward the consecutive-
// failure threshold exactly like a failed dispatch; a successful probe
// clears a closed breaker's streak but does NOT close an open one — a
// flapping worker that answers probes while failing real work must pass a
// half-open dispatch trial before traffic returns. It returns the number
// of Healthy (closed-breaker) members after the sweep.
func (r *Registry) ProbeAll(ctx context.Context) int {
	workers := r.Workers()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w string) {
			defer wg.Done()
			err := r.probe(ctx, w)
			if err != nil {
				r.record(w, false, true, err.Error())
			} else {
				r.record(w, true, true, "")
			}
		}(w)
	}
	wg.Wait()
	return len(r.Healthy())
}

func (r *Registry) probe(ctx context.Context, worker string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz answered %d", resp.StatusCode)
	}
	return nil
}

// MarkDown records dispatch feedback: a breaker-relevant failure talking
// to the worker (transport failure or a 5xx answer). One MarkDown is one
// step toward the threshold, not an immediate demotion. Unknown URLs are
// ignored.
func (r *Registry) MarkDown(worker string, reason string) {
	r.record(worker, false, false, reason)
}

// MarkUp records dispatch feedback: a successful exchange. It closes the
// worker's breaker from any state (this is how a half-open trial
// succeeds). Unknown URLs are ignored.
func (r *Registry) MarkUp(worker string) { r.record(worker, true, false, "") }

// Record feeds one request's outcome to the worker's breaker by the
// BreakerFailure rule: a breaker failure marks it down, a success or any
// other answer from the worker (4xx, 504) marks it up.
func (r *Registry) Record(worker string, err error) {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The caller's deadline, not the worker's fault: no feedback.
	case err != nil && BreakerFailure(err):
		r.MarkDown(worker, err.Error())
	default:
		r.MarkUp(worker)
	}
}

func (r *Registry) record(worker string, success, probe bool, errText string) {
	r.mu.Lock()
	m, ok := r.members[worker]
	if ok {
		m.lastError = errText
		m.lastProbe = r.cfg.Clock()
	}
	r.mu.Unlock()
	if !ok {
		return // evicted or never known; late feedback is dropped
	}
	switch {
	case !success:
		m.br.OnFailure()
	case probe:
		m.br.onProbeSuccess()
	default:
		m.br.OnSuccess()
	}
}
