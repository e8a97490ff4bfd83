package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"accltl/accesscheck/server"
)

const (
	// churnWorkerCache and churnCoordCache size fabric-churn's worker
	// memory tiers and the coordinator's merged-result cache far below
	// the number of distinct checks the workload asks, so most repeats are
	// served from the workers' disk tiers.
	churnWorkerCache = 16
	churnCoordCache  = 16
)

// rig is a set of in-process servers behind loopback HTTP. The load
// generator talks to front only.
type rig struct {
	front   string
	single  *server.Server
	workers []*server.Server
	coord   *server.Coordinator
	hts     []*httptest.Server // front first
}

// newSingleRig starts one server with the defaults users get.
func newSingleRig(ctx context.Context) (*rig, error) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv)
	r := &rig{front: ts.URL, single: srv, hts: []*httptest.Server{ts}}
	if err := r.ready(ctx); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// newFabricRig starts a coordinator over one worker per cache directory,
// each worker listening on its fixed address: the coordinator's affinity
// ring hashes worker URLs, so a worker restarted on the same address owns
// the same shard groups and finds them in its reopened disk tier.
func newFabricRig(ctx context.Context, dirs, addrs []string) (*rig, error) {
	r := &rig{}
	var urls []string
	for i, dir := range dirs {
		l, err := net.Listen("tcp", addrs[i])
		if err != nil {
			r.close()
			return nil, fmt.Errorf("worker listener: %w", err)
		}
		srv := server.New(server.Config{CacheSize: churnWorkerCache, CacheDir: dir})
		ts := httptest.NewUnstartedServer(srv)
		ts.Listener.Close()
		ts.Listener = l
		ts.Start()
		r.workers = append(r.workers, srv)
		r.hts = append(r.hts, ts)
		urls = append(urls, ts.URL)
	}
	coord, err := server.NewCoordinator(server.CoordinatorConfig{
		Workers: urls,
		Server:  server.Config{CacheSize: churnCoordCache},
	})
	if err != nil {
		r.close()
		return nil, err
	}
	ts := httptest.NewServer(coord)
	r.coord, r.front = coord, ts.URL
	r.hts = append([]*httptest.Server{ts}, r.hts...)
	if err := r.ready(ctx); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// reserveAddrs picks n free loopback addresses for fabric workers.
func reserveAddrs(n int) ([]string, error) {
	var out []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		out = append(out, l.Addr().String())
		l.Close()
	}
	return out, nil
}

// ready waits for the front's /healthz to answer 200; a coordinator's
// probes every worker.
func (r *rig) ready(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.front+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("servers not ready: %v", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// close stops the listeners (front first), then closes the servers, which
// flushes the workers' memory tiers through to their disk tiers.
func (r *rig) close() error {
	for _, ts := range r.hts {
		ts.Close()
	}
	var first error
	for _, s := range append(r.workers, r.single) {
		if s == nil {
			continue
		}
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	// The coordinator talks to workers through the default transport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return first
}

// metricURLs lists every server's base URL, front first.
func (r *rig) metricURLs() []string {
	out := make([]string, len(r.hts))
	for i, ts := range r.hts {
		out[i] = ts.URL
	}
	return out
}

// counters is one /metrics scrape summed over servers: metric line name
// (labels included) → value.
type counters map[string]float64

func scrape(ctx context.Context, urls []string) (counters, error) {
	out := counters{}
	for _, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", u, err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			i := strings.LastIndexByte(line, ' ')
			if i <= 0 || strings.HasPrefix(line, "#") {
				continue
			}
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] += v
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", u, err)
		}
	}
	return out, nil
}

// delta is after − before for the named metric lines, summed.
func delta(before, after counters, names ...string) float64 {
	d := 0.0
	for _, n := range names {
		d += after[n] - before[n]
	}
	return d
}
