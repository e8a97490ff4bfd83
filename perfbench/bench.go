package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// setupRepeats is how many times a run sets its servers up; setup_s
	// is the median.
	setupRepeats = 9
	// warmup is load sent before the measured window opens, so connection
	// set-up and heap growth land outside it; fresh servers took about two
	// seconds of load to settle.
	warmup = 3 * time.Second
	// reaskCount / reaskWindow: solve-cold's closing re-ask of answered
	// requests, the source of its repeat_p50_ms. The window is the
	// server's default memory-tier size, so every re-ask is a memory hit.
	reaskCount  = 48000
	reaskWindow = 1024
)

// bench is one workload run's configuration.
type bench struct {
	workload string
	seed     uint64
	length   time.Duration // measured window
	clients  int
	work     string // scratch directory for cache directories
	gen      *generator
}

// session is a set-up rig plus what setting it up measured.
type session struct {
	rig    *rig
	setupS []float64
	// fillMS holds serve-hot's warm-fill latencies (first-time requests);
	// fillTally counts every set-up answer (fills and fabric-churn's
	// pre-phase).
	fillMS    []float64
	fillTally tally
	churn     *churnStream
	dirs      []string
}

// setUp builds the workload's servers setupRepeats times, keeping the last
// set. A collection before each keeps garbage of the previous one out of
// the timing.
func (b *bench) setUp(ctx context.Context) (*session, error) {
	s := &session{}
	var addrs []string
	if b.workload == wlFabricChurn {
		if err := b.prefill(ctx, s); err != nil {
			return nil, err
		}
		var err error
		if addrs, err = reserveAddrs(len(s.dirs)); err != nil {
			return nil, err
		}
	}
	for k := 0; k < setupRepeats; k++ {
		runtime.GC()
		start := time.Now()
		var r *rig
		var err error
		switch b.workload {
		case wlFabricChurn:
			r, err = newFabricRig(ctx, s.dirs, addrs)
		default:
			r, err = newSingleRig(ctx)
		}
		if err != nil {
			return nil, err
		}
		if b.workload == wlServeHot {
			if err := b.warmFill(ctx, r, s); err != nil {
				r.close()
				return nil, err
			}
		}
		s.setupS = append(s.setupS, time.Since(start).Seconds())
		if k < setupRepeats-1 {
			if err := r.close(); err != nil {
				return nil, err
			}
			continue
		}
		s.rig = r
	}
	runtime.GC()
	return s, nil
}

// warmFill asks serve-hot's whole working set once, in seeded order.
func (b *bench) warmFill(ctx context.Context, r *rig, s *session) error {
	order := b.gen.hotFillOrder()
	reqs := make([]request, len(order))
	for i, j := range order {
		reqs[i] = b.gen.hotSlot(j)
		reqs[i].Fresh = true
	}
	l := newLoader(r.front, b.clients, nil)
	defer l.close()
	out := l.runList(ctx, b.clients, reqs)
	out.each(func(smp *sample) {
		s.fillTally.add(smp.cls)
		s.fillMS = append(s.fillMS, smp.latencyMS())
	})
	if n := out.len(); n != len(reqs) {
		return fmt.Errorf("warm fill answered %d of %d requests", n, len(reqs))
	}
	return nil
}

// prefill runs fabric-churn's untimed pre-phase: a fabric over fresh cache
// directories answers churnPrefill distinct checks, and closing it writes
// every worker's memory tier through to disk.
func (b *bench) prefill(ctx context.Context, s *session) error {
	s.churn = b.gen.churnStream()
	for i := 0; i < 2; i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("worker%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		s.dirs = append(s.dirs, dir)
	}
	addrs, err := reserveAddrs(len(s.dirs))
	if err != nil {
		return err
	}
	r, err := newFabricRig(ctx, s.dirs, addrs)
	if err != nil {
		return err
	}
	l := newLoader(r.front, b.clients, nil)
	out := l.runList(ctx, b.clients, s.churn.prefill)
	l.close()
	out.each(func(smp *sample) { s.fillTally.add(smp.cls) })
	return r.close()
}

// loadResult is what one load phase measured.
type loadResult struct {
	// all holds every exchange, warm-up included; measured selects the
	// measured window.
	all      samples
	tally    tally
	winStart int32 // ticks since the loop started
	reask    samples
	reaskTal tally
}

// each visits the measured samples: those sent after the warm-up.
func (res *loadResult) each(fn func(*sample)) {
	res.all.each(func(s *sample) {
		if s.sent >= res.winStart {
			fn(s)
		}
	})
}

// load drives the workload against the session's rig for warmup+length.
func (b *bench) load(ctx context.Context, s *session, l *loader) loadResult {
	res := loadResult{winStart: ticks(warmup)}
	switch b.workload {
	case wlSolveCold:
		res.all = l.closedLoop(ctx, b.clients, warmup+b.length, func(i int) (request, bool) {
			return b.gen.coldRequest(i), true
		})
	case wlServeHot:
		res.all = l.closedLoop(ctx, b.clients, warmup+b.length, func(i int) (request, bool) {
			return b.gen.hotRequest(i), true
		})
	case wlFabricChurn:
		res.all = l.closedLoop(ctx, b.clients, warmup+b.length, func(i int) (request, bool) {
			return s.churn.at(i), true
		})
	}
	res.each(func(smp *sample) { res.tally.add(smp.cls) })
	return res
}

// reask is solve-cold's closing re-ask: requests drawn from the last ones
// the load answered, all memory-tier hits by now.
func (b *bench) reask(ctx context.Context, s *session, res *loadResult) {
	last := int32(-1)
	res.all.each(func(smp *sample) { last = max(last, smp.idx) })
	if b.workload != wlSolveCold || last < 0 {
		return
	}
	recent := map[int]request{}
	idx := b.gen.coldReask(int(last)+1, reaskWindow, reaskCount)
	for _, i := range idx {
		if _, ok := recent[i]; !ok {
			r := b.gen.coldRequest(i)
			r.Fresh = false
			recent[i] = r
		}
	}
	runtime.GC()
	l := newLoader(s.rig.front, b.clients, nil)
	res.reask = l.closedLoop(ctx, b.clients, 24*time.Hour, func(k int) (request, bool) {
		if k >= len(idx) {
			return request{}, false
		}
		return recent[idx[k]], true
	})
	l.close()
	res.reask.each(func(smp *sample) { res.reaskTal.add(smp.cls) })
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// p50 is the median latency of a load phase's measured window.
func (res *loadResult) p50() float64 {
	var lat []float64
	res.each(func(smp *sample) { lat = append(lat, smp.latencyMS()) })
	return median(lat)
}

// endToEnd derives the end-to-end metrics of a load phase; notes lists
// sample counts for the human-readable report.
func (b *bench) endToEnd(s *session, res loadResult) (map[string]metric, []string) {
	m := map[string]metric{}
	var notes []string
	n := res.tally.attempted()
	lat := make([]float64, 0, n)
	late := make([]float64, 0, n)
	var fresh, repeat []float64
	winEnd := res.winStart + ticks(b.length)
	answered := 0 // within the window
	res.each(func(smp *sample) {
		late = append(late, smp.lateMS())
		if smp.cls == classTransport {
			return
		}
		if smp.done <= winEnd {
			answered++
		}
		ms := smp.latencyMS()
		lat = append(lat, ms)
		if smp.fresh {
			fresh = append(fresh, ms)
		} else {
			repeat = append(repeat, ms)
		}
	})
	// Set-up fills are the first-time requests of serve-hot; solve-cold's
	// closing re-ask supplies its repeats.
	fresh = append(fresh, s.fillMS...)
	res.reask.each(func(smp *sample) { repeat = append(repeat, smp.latencyMS()) })
	m["throughput_rps"] = metric{float64(answered) / b.length.Seconds(), "req/s"}
	m["latency_p50_ms"] = metric{median(lat), "ms"}
	notes = append(notes, fmt.Sprintf("latency_p50_ms over %d samples", len(lat)))
	if v, beyond, ok := percentile(lat, 0.99); ok {
		m["latency_p99_ms"] = metric{v, "ms"}
		notes = append(notes, fmt.Sprintf("latency_p99_ms over %d samples, %d beyond it", len(lat), beyond))
	} else {
		notes = append(notes, fmt.Sprintf("latency_p99_ms withheld: %d samples, only %d beyond it", len(lat), beyond))
	}
	m["fresh_p50_ms"] = metric{median(fresh), "ms"}
	m["repeat_p50_ms"] = metric{median(repeat), "ms"}
	notes = append(notes, fmt.Sprintf("fresh_p50_ms over %d samples, repeat_p50_ms over %d", len(fresh), len(repeat)))
	m["exact_ratio"] = metric{res.tally.exactRatio(), "ratio"}
	m["error_ratio"] = metric{res.tally.errorRatio(), "ratio"}
	m["setup_s"] = metric{median(s.setupS), "s"}
	notes = append(notes, fmt.Sprintf("setup_s median of %d set-ups", len(s.setupS)))
	m["rss_peak_mb"] = metric{peakRSSMB(), "MB"}
	if v, _, ok := percentile(late, 0.99); ok {
		notes = append(notes, fmt.Sprintf("the load generator took up to %.3g ms from an answer to its client's next request (p99)", v))
	}
	return m, notes
}
