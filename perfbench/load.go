package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one exchange, kept compact: serve-hot records hundreds of
// thousands per run, and their memory shows in rss_peak_mb.
type sample struct {
	idx       int32
	cls       class
	fresh     bool
	cached    bool
	elapsedMS float32
	// Ticks since the loop started; prev is the client's previous
	// answer, when this request could have gone out.
	prev, sent, done int32
}

// tick is the sample clock's resolution; an int32 of ticks spans 214 s,
// past any loop.
const tick = 100 * time.Nanosecond

func ticks(d time.Duration) int32 { return int32(d / tick) }

func ticksSince(t0 time.Time) int32 { return ticks(time.Since(t0)) }

func ticksMS(t int32) float64 { return float64(time.Duration(t)*tick) / float64(time.Millisecond) }

func (s *sample) latencyMS() float64 { return ticksMS(s.done - s.sent) }

// lateMS is how long the load generator took to send the client's next
// request after the previous answer.
func (s *sample) lateMS() float64 { return ticksMS(s.sent - s.prev) }

// sampleLog collects one client's samples in fixed-size chunks, so memory
// grows with the sample count rather than in the doubling steps of append,
// which would make the peak RSS depend on where a run's count falls.
type sampleLog struct{ chunks [][]sample }

const chunkLen = 4096

func (l *sampleLog) add(s sample) {
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == chunkLen {
		l.chunks = append(l.chunks, make([]sample, 0, chunkLen))
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], s)
}

// samples is every client's log of one loop.
type samples []sampleLog

func (ss samples) each(fn func(*sample)) {
	for _, l := range ss {
		for _, c := range l.chunks {
			for i := range c {
				fn(&c[i])
			}
		}
	}
}

func (ss samples) len() int {
	n := 0
	for _, l := range ss {
		for _, c := range l.chunks {
			n += len(c)
		}
	}
	return n
}

// loader sends requests to the front over at most clients connections.
type loader struct {
	client *http.Client
	front  string
	// keep, when set, selects stream indexes whose response bodies are
	// retained for the trace replay.
	keep func(i int) bool
	mu   sync.Mutex
	kept map[int][]byte
	// started is when the last loop began; sample times are offsets from
	// it.
	started time.Time
}

func newLoader(front string, clients int, keep func(int) bool) *loader {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	return &loader{client: &http.Client{Transport: tr}, front: front, keep: keep, kept: map[int][]byte{}}
}

func (l *loader) close() { l.client.CloseIdleConnections() }

// send posts one request and classifies the answer.
func (l *loader) send(ctx context.Context, i int, r *request) (class, answer) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.front+r.Route, bytes.NewReader(r.Body))
	if err != nil {
		return classify(r, 0, nil, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(req)
	if err != nil {
		return classify(r, 0, nil, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return classify(r, 0, nil, err)
	}
	if l.keep != nil && l.keep(i) {
		l.mu.Lock()
		l.kept[i] = body
		l.mu.Unlock()
	}
	return classify(r, resp.StatusCode, body, nil)
}

func record(i int, r *request, cls class, a answer, prev, sent, done int32) sample {
	return sample{idx: int32(i), cls: cls, fresh: r.Fresh, cached: a.cached, elapsedMS: float32(a.elapsedMS),
		prev: prev, sent: sent, done: done}
}

// closedLoop runs clients that each send the next request of the stream
// as soon as their previous one is answered, until length has passed or
// gen reports the stream exhausted.
func (l *loader) closedLoop(ctx context.Context, clients int, length time.Duration, gen func(i int) (request, bool)) samples {
	var next atomic.Int64
	per := make(samples, clients)
	t0 := time.Now()
	l.started = t0
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := int32(-1)
			for ctx.Err() == nil && time.Since(t0) < length {
				i := int(next.Add(1) - 1)
				r, ok := gen(i)
				if !ok {
					return
				}
				sent := ticksSince(t0)
				if prev < 0 {
					prev = sent
				}
				cls, a := l.send(ctx, i, &r)
				done := ticksSince(t0)
				per[c].add(record(i, &r, cls, a, prev, sent, done))
				prev = done
			}
		}(c)
	}
	wg.Wait()
	return per
}

// runList asks a fixed list of requests closed-loop (set-up fills and
// re-asks).
func (l *loader) runList(ctx context.Context, clients int, reqs []request) samples {
	return l.closedLoop(ctx, clients, 24*time.Hour, func(i int) (request, bool) {
		if i >= len(reqs) {
			return request{}, false
		}
		return reqs[i], true
	})
}
