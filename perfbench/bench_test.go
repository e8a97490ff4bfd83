package main

import (
	"bytes"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

func TestStreamsAreSeeded(t *testing.T) {
	a, b, c := newGenerator(7), newGenerator(7), newGenerator(8)
	for i := 0; i < 64; i++ {
		if !reflect.DeepEqual(a.coldRequest(i), b.coldRequest(i)) {
			t.Fatalf("solve-cold request %d differs under one seed", i)
		}
		if !reflect.DeepEqual(a.hotRequest(i), b.hotRequest(i)) {
			t.Fatalf("serve-hot request %d differs under one seed", i)
		}
	}
	if !reflect.DeepEqual(a.hotFillOrder(), b.hotFillOrder()) {
		t.Fatal("warm-fill order differs under one seed")
	}
	ca, cb, cc := a.churnStream(), b.churnStream(), c.churnStream()
	if !reflect.DeepEqual(ca.prefill, cb.prefill) {
		t.Fatal("fabric-churn pre-phase differs under one seed")
	}
	same := true
	for i := 0; i < 200; i++ {
		if !reflect.DeepEqual(ca.at(i), cb.at(i)) {
			t.Fatalf("fabric-churn request %d differs under one seed", i)
		}
		same = same && reflect.DeepEqual(ca.at(i), cc.at(i))
	}
	if same || reflect.DeepEqual(a.coldRequest(0).Body, c.coldRequest(0).Body) {
		t.Fatal("different seeds gave the same streams")
	}
}

func TestSolveColdNeverRepeats(t *testing.T) {
	g := newGenerator(3)
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		r := g.coldRequest(i)
		if seen[string(r.Body)] {
			t.Fatalf("request %d repeats an earlier body", i)
		}
		seen[string(r.Body)] = true
	}
}

func TestServeHotStaysInWorkingSet(t *testing.T) {
	g := newGenerator(5)
	set := map[string]bool{}
	for j := 0; j < hotSetSize; j++ {
		set[g.hotSlot(j).Key] = true
	}
	if len(set) != hotSetSize {
		t.Fatalf("working set has %d distinct requests, want %d", len(set), hotSetSize)
	}
	routes := map[string]int{}
	for i := 0; i < 5000; i++ {
		r := g.hotRequest(i)
		if !set[r.Key] {
			t.Fatalf("request %d (%s) is outside the working set", i, r.Key)
		}
		routes[r.Route]++
	}
	for _, route := range []string{routeCheck, routeContainment, routeRelevance, routeChase} {
		if routes[route] == 0 {
			t.Errorf("no %s request in 5000", route)
		}
	}
}

func TestChurnMixesFreshAndRepeats(t *testing.T) {
	cs := newGenerator(9).churnStream()
	asked := map[string]bool{}
	for _, r := range cs.prefill {
		asked[r.Key] = true
	}
	const n = 3000
	fresh := 0
	for i := 0; i < n; i++ {
		r := cs.at(i)
		if r.Fresh == asked[r.Key] {
			t.Fatalf("request %d: fresh=%v but asked before=%v", i, r.Fresh, asked[r.Key])
		}
		if r.Fresh {
			fresh++
		}
		asked[r.Key] = true
	}
	if share := float64(fresh) / n; share < 0.27 || share > 0.33 {
		t.Fatalf("fresh share %.3f, want about %.2f", share, churnFreshShare)
	}
}

func TestPercentileWithheldBelowTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, beyond, ok := percentile(xs, 0.99)
	if !ok || beyond != 10 || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond (ok=%v), want 990 with 10", v, beyond, ok)
	}
	if _, beyond, ok := percentile(xs[:999], 0.99); ok || beyond != 9 {
		t.Fatalf("p99 of 999 samples reported with %d beyond", beyond)
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestClassifyPutsEveryAnswerInOneClass(t *testing.T) {
	unsat := &request{Route: routeCheck, Want: verdict{Value: false, Exact: true}}
	cases := []struct {
		status int
		body   string
		err    error
		want   class
	}{
		{200, `{"satisfiable":false,"truncated":false}`, nil, classExact},
		{200, `{"satisfiable":false,"truncated":true,"resumable":true,"coverage":0.5}`, nil, classPartial},
		{200, `{"satisfiable":false,"shards_completed":3,"shards_total":4}`, nil, classPartial},
		{200, `{"satisfiable":true}`, nil, classWrong},
		{200, `not json`, nil, classWrong},
		{400, `{"error":"bad"}`, nil, class4xx},
		{502, `{"error":"bad gateway"}`, nil, class5xx},
		{504, `{"code":"budget_exhausted"}`, nil, class504},
		{0, ``, http.ErrHandlerTimeout, classTransport},
	}
	var tl tally
	for _, c := range cases {
		got, _ := classify(unsat, c.status, []byte(c.body), c.err)
		if got != c.want {
			t.Errorf("status %d body %s: class %s, want %s", c.status, c.body, got, c.want)
		}
		tl.add(got)
	}
	if tl.attempted() != len(cases) || tl.failed() != 6 {
		t.Fatalf("tally %s: want %d attempted, 6 failed", tl, len(cases))
	}
	if r := tl.exactRatio(); r != 1.0/9 {
		t.Fatalf("exact_ratio = %v", r)
	}
	if r := tl.errorRatio(); r != 6.0/9 {
		t.Fatalf("error_ratio = %v", r)
	}
	contained := &request{Route: routeContainment, Want: verdict{Value: true, Exact: true}}
	if got, _ := classify(contained, 200, []byte(`{"contained":true,"exact":false}`), nil); got != classPartial {
		t.Fatalf("inexact containment classed %s", got)
	}
	chase := &request{Route: routeChase, Want: verdict{Value: true, Exact: true}}
	if got, _ := classify(chase, 200, []byte(`{"implied":true,"terminated":true}`), nil); got != classExact {
		t.Fatalf("terminated chase classed %s", got)
	}
}

func testCapture(e env, workload string, seed uint64, v float64) capture {
	return capture{Env: e, Workload: workload, Seed: seed, Metrics: map[string]metric{
		"latency_p50_ms": {v, "ms"}, "setup_s": {0.01 * v, "s"},
	}}
}

func TestCompareRefusesMixedEnvironments(t *testing.T) {
	spec := benchSpec{}
	spec.EndToEnd = append(spec.EndToEnd, struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"latency_p50_ms", "ms", "lower", 0.1})
	e := env{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "a"}
	a := []capture{testCapture(e, "w", 1, 10), testCapture(e, "w", 2, 10.1), testCapture(e, "w", 3, 9.9)}
	var out bytes.Buffer
	if ok, err := compare(&out, spec, a, a); err != nil || !ok {
		t.Fatalf("same captures: ok=%v err=%v\n%s", ok, err, out.String())
	}
	other := e
	other.GOMAXPROCS = 1
	b := []capture{testCapture(other, "w", 1, 10)}
	if _, err := compare(&out, spec, a, b); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("mixed GOMAXPROCS compared: %v", err)
	}
	mixed := append([]capture(nil), a...)
	mixed[1].Env.Commit = "b"
	if _, err := compare(&out, spec, mixed, a); err == nil {
		t.Fatal("a side mixing commits compared")
	}
	slower := []capture{testCapture(e, "w", 1, 12), testCapture(e, "w", 2, 12), testCapture(e, "w", 3, 12)}
	if ok, err := compare(&out, spec, a, slower); err != nil || ok {
		t.Fatalf("20%% slower passed a 10%% bound: ok=%v err=%v", ok, err)
	}
}
