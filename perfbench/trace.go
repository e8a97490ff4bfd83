package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"accltl/accesscheck"
	"accltl/accesscheck/cachetier"
	"accltl/accesscheck/fabric"
	"accltl/accesscheck/server"
	"accltl/internal/accltl"
	"accltl/internal/autom"
	"accltl/internal/fo"
	"accltl/internal/instance"
	"accltl/internal/lts"
	"accltl/internal/schema"
)

// span is one timed call of the traced run. Spans of one request share
// Req, its stream index.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent, req int, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.add(name, parent, req, start, end)
	return end.Sub(start), err
}

// selfTimes returns every span's self time — its duration minus its
// children's — grouped by span name.
func (t *tracer) selfTimes() map[string][]time.Duration {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
	}
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-children[s.ID]))
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

const (
	// maxReplays and replayBudget bound the per-layer replay.
	maxReplays   = 48
	replayBudget = 15 * time.Second
	// shardBudget is the wire budget of replayed shard dispatches.
	shardBudget = "4s"
	// explorePaths caps the raw exploration replay: without the solvers'
	// pruning a wide depth-4 space runs to millions of paths, and the
	// exploration rate is what the replay is after.
	explorePaths = 1 << 17
)

// replayStride keeps the response of every n-th request for replay.
var replayStride = map[string]int{wlSolveCold: 4, wlServeHot: 61, wlFabricChurn: 3}

// replayer re-runs the layers a request went through, each timed from
// outside through its public functions, on stores and servers of its own.
type replayer struct {
	ctx   context.Context
	tr    *tracer
	coord bool // the measured front is a coordinator
	// probe is a memory tier filled like the front's.
	probe *cachetier.Tiered[accesscheck.TaskResult]
	// disk is a disk tier fed this run's response bytes.
	disk    *cachetier.DiskTier
	diskDir string
	// private fabric for dispatch replays.
	workers []*httptest.Server
	urls    []string
	disp    *fabric.Dispatcher

	paths, shards         []float64
	explored, exploreTime float64
	residualUS            []float64
	wrong                 int
}

func newReplayer(ctx context.Context, tr *tracer, coord bool, cacheSize int, work string) (*replayer, error) {
	rp := &replayer{ctx: ctx, tr: tr, coord: coord, diskDir: filepath.Join(work, "replay-disk")}
	rp.probe = cachetier.NewTiered(cachetier.NewSharded(cacheSize, 8, func(accesscheck.TaskResult) bool { return true }), nil, nil)
	var err error
	if rp.disk, err = cachetier.OpenDiskTier(cachetier.DiskConfig{Dir: rp.diskDir, Scheme: accesscheck.FingerprintSchemeVersion}); err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(server.New(server.Config{}))
		rp.workers = append(rp.workers, ts)
		rp.urls = append(rp.urls, ts.URL)
	}
	rp.disp = &fabric.Dispatcher{Client: &http.Client{Transport: &http.Transport{}}}
	return rp, nil
}

func (rp *replayer) close() error {
	for _, ts := range rp.workers {
		ts.Close()
	}
	rp.disp.Client.CloseIdleConnections()
	if rp.disk == nil {
		return nil
	}
	err := rp.disk.Close()
	rp.disk = nil
	return err
}

// fill admits the fingerprints of the measured stream into the probe
// store, in stream order, the way the front admitted their answers.
func (rp *replayer) fill(reqs []request) error {
	fps := map[string]string{}
	for _, r := range reqs {
		fp, ok := fps[r.Key]
		if !ok {
			p, err := parseRequest(r.Route, r.Body)
			if err != nil {
				return err
			}
			if fp, err = p.fingerprint(); err != nil {
				return err
			}
			fps[r.Key] = fp
		}
		rp.probe.Add(fp, accesscheck.TaskResult{})
	}
	return nil
}

// replay re-runs one measured request's layers under a "replay" root span
// and records the request's residual: its HTTP time minus the replayed
// stages the front actually ran for it (no solve when the answer came
// from a cache).
func (rp *replayer) replay(idx int, r request, smp sample, body []byte) error {
	start := time.Now()
	root := rp.tr.add("replay", 0, idx, start, start) // end patched below
	var stages time.Duration
	stage := func(name string, ran bool, fn func() error) error {
		d, err := rp.tr.timed(name, root, idx, fn)
		if ran {
			stages += d
		}
		if err != nil {
			return fmt.Errorf("replay %s of %s: %w", name, r.Fixture, err)
		}
		return nil
	}
	solved := !smp.cached && !rp.coord
	fanned := !smp.cached && rp.coord

	var wire any
	var p *parsed
	var fp string
	var err error
	if err := stage("server.decode", true, func() error { wire, err = decodeWire(r.Route, r.Body); return err }); err != nil {
		return err
	}
	if err := stage("accesscheck.parse", true, func() error { p, err = parseWire(wire); return err }); err != nil {
		return err
	}
	if err := stage("accesscheck.fingerprint", true, func() error { fp, err = p.fingerprint(); return err }); err != nil {
		return err
	}
	if err := stage("cachetier.probe", true, func() error { rp.probe.Get(fp); return nil }); err != nil {
		return err
	}
	if p.task != nil {
		err = stage("accesscheck.solve", solved, func() error {
			res, err := p.chk.Do(rp.ctx, p.task)
			if err == nil && res.Verdict != r.Want.Value {
				rp.wrong++
			}
			return err
		})
	} else {
		err = rp.replayCheck(idx, root, r, p, fp, solved, fanned, stage)
	}
	if err != nil {
		return err
	}
	if err := stage("cachetier.disk_put", false, func() error { rp.disk.Put(fp, body); return nil }); err != nil {
		return err
	}
	if err := stage("cachetier.disk_get", false, func() error { rp.disk.Get(fp); return nil }); err != nil {
		return err
	}
	a, err := decodeAnswer(r.Route, body)
	if err != nil {
		return fmt.Errorf("replay of %s: %w", r.Fixture, err)
	}
	if err := stage("server.encode", true, func() error { _, err := json.Marshal(a.decoded); return err }); err != nil {
		return err
	}
	rp.tr.spans[root-1].End = time.Since(rp.tr.t0).Nanoseconds()
	rp.residualUS = append(rp.residualUS, float64(time.Duration(smp.done-smp.sent)*tick-stages)/float64(time.Microsecond))
	return nil
}

// replayCheck replays a check's solver-side layers: plan, the anytime
// solve, the witness universe, the dispatched engine alone, raw LTS
// exploration, automaton compilation and emptiness, and the shard fabric.
func (rp *replayer) replayCheck(idx, root int, r request, p *parsed, fp string, solved, fanned bool,
	stage func(string, bool, func() error) error) error {
	var plan []accesscheck.ShardID
	var res *accesscheck.Result
	var err error
	if err := stage("accesscheck.plan", fanned, func() error { plan, _, err = p.chk.ShardPlan(rp.ctx, p.sch, p.f); return err }); err != nil {
		return err
	}
	if err := stage("accesscheck.solve", solved, func() error {
		res, _, err = p.chk.CheckAnytime(rp.ctx, p.sch, p.f, nil)
		return err
	}); err != nil {
		return err
	}
	if res.Satisfiable != r.Want.Value {
		rp.wrong++
	}
	rp.paths = append(rp.paths, float64(res.PathsExplored))
	rp.shards = append(rp.shards, float64(len(plan)))

	o := p.checkReq.Options
	if o == nil {
		o = &server.CheckOptions{}
	}
	var universe *instance.Instance
	if err := stage("accltl.universe", false, func() error { universe, err = accltl.WitnessUniverse(p.sch, p.f); return err }); err != nil {
		return err
	}
	if res.Engine != accesscheck.EngineAutomaton {
		if err := stage("accltl.search", false, func() error { return rp.search(p, o, res.Engine) }); err != nil {
			return err
		}
	}
	var st lts.Stats
	d, err := rp.tr.timed("lts.explore", root, idx, func() error {
		st, err = lts.Collect(p.sch, exploreOptions(rp.ctx, p, o, universe, res.Depth))
		return err
	})
	if err != nil {
		return fmt.Errorf("replay lts.explore of %s: %w", r.Fixture, err)
	}
	rp.explored += float64(st.TotalPaths)
	rp.exploreTime += float64(d) / float64(time.Millisecond)
	if info := accltl.Classify(p.f); info.BindingPositive && !info.HasPast {
		var a *autom.Automaton
		if err := stage("autom.compile", false, func() error { a, err = autom.CompileAccLTLPlus(p.sch, p.f); return err }); err != nil {
			return err
		}
		if err := stage("autom.emptiness", false, func() error {
			_, err := a.IsEmpty(autom.EmptinessOptions{
				Context: rp.ctx, Grounded: o.Grounded, IdempotentOnly: o.IdempotentOnly,
				ExactMethods: exactSet(o.ExactMethods), AllExact: o.AllExact, MaxDepth: o.MaxDepth,
				MaxResponseChoices: o.MaxResponseChoices, MaxPaths: o.MaxPaths,
			})
			return err
		}); err != nil {
			return err
		}
	}
	if len(plan) < 2 {
		return nil
	}
	return rp.replayFabric(r, p, fp, plan, fanned, stage)
}

// replayFabric groups the plan by ring owner over the private workers the
// way the coordinator does, and times the wire round trip of the groups,
// their dispatch and the merge of the parts.
func (rp *replayer) replayFabric(r request, p *parsed, fp string, plan []accesscheck.ShardID, fanned bool,
	stage func(string, bool, func() error) error) error {
	router := fabric.NewRouter(rp.urls)
	byOwner := map[string]int{}
	var shards []*fabric.Shard
	var seqs [][]string
	for _, sh := range plan {
		seq := router.Sequence(fabric.RouteKey(fp, sh.Key), len(rp.urls))
		g, ok := byOwner[seq[0]]
		if !ok {
			g = len(shards)
			byOwner[seq[0]] = g
			req := p.checkReq
			shards = append(shards, &fabric.Shard{
				Version: fabric.WireVersion, Relations: req.Relations, Methods: req.Methods, Formula: req.Formula,
				Options: fabricOptions(req.Options), Budget: shardBudget, PlanSize: len(plan),
			})
			seqs = append(seqs, seq)
		}
		shards[g].Shards = append(shards[g].Shards, fabric.ShardRef{Index: sh.Index, Key: sh.Key, WholeAccess: sh.WholeAccess})
	}
	if err := stage("fabric.encode", fanned, func() error {
		for _, sh := range shards {
			data, err := sh.Encode()
			if err != nil {
				return err
			}
			if _, err := fabric.DecodeShard(data); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	parts := make([]fabric.ShardResult, len(shards))
	if err := stage("fabric.dispatch", fanned, func() error {
		errs := make([]error, len(shards))
		var wg sync.WaitGroup
		for g := range shards {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				res, _, err := rp.disp.DoHedged(rp.ctx, seqs[g], shards[g])
				if err == nil {
					parts[g] = *res
				}
				errs[g] = err
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return stage("fabric.merge", fanned, func() error {
		merged, err := fabric.MergeCover(parts, len(plan))
		if err == nil && merged.Satisfiable != r.Want.Value {
			rp.wrong++
		}
		return err
	})
}

// search runs the engine the facade dispatched, directly, with the same
// options: the solve minus the anytime and shard machinery around it.
func (rp *replayer) search(p *parsed, o *server.CheckOptions, engine accesscheck.Engine) error {
	opts := accltl.SolveOptions{
		Context: rp.ctx, Schema: p.sch, Grounded: o.Grounded, IdempotentOnly: o.IdempotentOnly,
		ExactMethods: exactSet(o.ExactMethods), AllExact: o.AllExact, MaxDepth: o.MaxDepth,
		MaxResponseChoices: o.MaxResponseChoices, MaxPaths: o.MaxPaths,
	}
	var err error
	switch engine {
	case accesscheck.EngineX:
		_, err = accltl.SolveX(p.f, opts)
	case accesscheck.EngineZeroAcc:
		_, err = accltl.SolveZeroAcc(p.f, opts)
	case accesscheck.EnginePlus:
		_, err = accltl.SolvePlusDirect(p.f, opts)
	default:
		_, err = accltl.SolveBounded(p.f, opts)
	}
	return err
}

// exploreOptions mirrors the bounded search's exploration settings: the
// witness universe, the depth the solve used, and a binding pool of the
// formula's constants plus one fresh value per input type.
func exploreOptions(ctx context.Context, p *parsed, o *server.CheckOptions, universe *instance.Instance, depth int) lts.Options {
	extra := fo.Constants(fo.Conj(accltl.Sentences(p.f)...))
	need := map[schema.Type]bool{}
	for _, m := range p.sch.Methods() {
		for _, ty := range m.InputTypes() {
			need[ty] = true
		}
	}
	if need[schema.TypeInt] {
		extra = append(extra, instance.Int(987654321))
	}
	if need[schema.TypeString] {
		extra = append(extra, instance.Str("_freshbind"))
	}
	if need[schema.TypeBool] {
		extra = append(extra, instance.Bool(true), instance.Bool(false))
	}
	return lts.Options{
		Context: ctx, Universe: universe, MaxDepth: depth, GroundedOnly: o.Grounded,
		IdempotentOnly: o.IdempotentOnly, ExactMethods: exactSet(o.ExactMethods), AllExact: o.AllExact,
		MaxResponseChoices: o.MaxResponseChoices, MaxPaths: explorePaths, ExtraBindingValues: extra,
	}
}

func exactSet(names []string) map[string]bool {
	if len(names) == 0 {
		return nil
	}
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func fabricOptions(o *server.CheckOptions) *fabric.CheckOptions {
	if o == nil {
		return nil
	}
	return &fabric.CheckOptions{
		Engine: o.Engine, Grounded: o.Grounded, IdempotentOnly: o.IdempotentOnly, AllExact: o.AllExact,
		ExactMethods: o.ExactMethods, MaxDepth: o.MaxDepth, MaxPaths: o.MaxPaths, MaxResponseChoices: o.MaxResponseChoices,
	}
}

// recovery times OpenDiskTier over fresh copies of a cache directory.
func (rp *replayer) recovery(dir, work string) error {
	for k := 0; k < 3; k++ {
		cp := filepath.Join(work, fmt.Sprintf("recovery%d", k))
		if err := copyDir(dir, cp); err != nil {
			return err
		}
		var dt *cachetier.DiskTier
		_, err := rp.tr.timed("cachetier.recovery", 0, -1, func() error {
			var err error
			dt, err = cachetier.OpenDiskTier(cachetier.DiskConfig{Dir: cp, Scheme: accesscheck.FingerprintSchemeVersion})
			return err
		})
		if err != nil {
			return err
		}
		if err := dt.Close(); err != nil {
			return err
		}
	}
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// traced is the per-layer run: an untraced phase and a traced phase of
// half the run each, over fresh servers and the same seeded stream, then
// the layer replays of a sample of the traced phase's requests.
func (b *bench) traced(ctx context.Context, stdout io.Writer, traceDir string) (result, tally, error) {
	half := *b
	half.length = max(b.length/2, time.Second)

	su, err := half.setUp(ctx)
	if err != nil {
		return result{}, tally{}, err
	}
	lu := newLoader(su.rig.front, b.clients, nil)
	ru := half.load(ctx, su, lu)
	lu.close()
	if err := su.rig.close(); err != nil {
		return result{}, tally{}, err
	}

	st, err := half.setUp(ctx)
	if err != nil {
		return result{}, tally{}, err
	}
	urls := st.rig.metricURLs()
	before, err := scrape(ctx, urls)
	if err != nil {
		return result{}, tally{}, err
	}
	stride := replayStride[b.workload]
	lt := newLoader(st.rig.front, b.clients, func(i int) bool { return i%stride == 0 })
	tr := &tracer{t0: time.Now()}
	rt := half.load(ctx, st, lt)
	lt.close()
	after, err := scrape(ctx, urls)
	if err != nil {
		return result{}, tally{}, err
	}
	var picked []sample // exact answers whose bodies were kept, for replay
	rt.each(func(smp *sample) {
		at := func(t int32) time.Time { return lt.started.Add(time.Duration(t) * tick) }
		tr.add("http", 0, int(smp.idx), at(smp.sent), at(smp.done))
		if _, ok := lt.kept[int(smp.idx)]; ok && smp.cls == classExact {
			picked = append(picked, *smp)
		}
	})
	sort.Slice(picked, func(i, j int) bool { return picked[i].idx < picked[j].idx })

	coord := b.workload == wlFabricChurn
	cacheSize := 1024
	if coord {
		cacheSize = churnCoordCache
	}
	rp, err := newReplayer(ctx, tr, coord, cacheSize, b.work)
	if err != nil {
		return result{}, tally{}, err
	}
	defer rp.close()
	reqOf := func(i int) request {
		switch b.workload {
		case wlSolveCold:
			return b.gen.coldRequest(i)
		case wlServeHot:
			return b.gen.hotRequest(i)
		}
		return st.churn.at(i)
	}
	var order []int
	rt.each(func(smp *sample) { order = append(order, int(smp.idx)) })
	sort.Ints(order)
	measured := make([]request, len(order))
	for k, i := range order {
		measured[k] = reqOf(i)
	}
	if err := rp.fill(measured); err != nil {
		return result{}, tally{}, err
	}
	replayStart := time.Now()
	replayed := 0
	for _, smp := range picked {
		if replayed >= maxReplays || time.Since(replayStart) > replayBudget {
			break
		}
		i := int(smp.idx)
		if err := rp.replay(i, reqOf(i), smp, lt.kept[i]); err != nil {
			return result{}, tally{}, err
		}
		replayed++
	}
	// Recovery: the workers' own log for fabric-churn (closing the fabric
	// writes their memory tiers behind first), the replay's log otherwise.
	if err := st.rig.close(); err != nil {
		return result{}, tally{}, err
	}
	recDir := rp.diskDir
	if coord {
		recDir = st.dirs[0]
	} else if err := rp.disk.Close(); err != nil {
		return result{}, tally{}, err
	} else {
		rp.disk = nil
	}
	if err := rp.recovery(recDir, b.work); err != nil {
		return result{}, tally{}, err
	}

	m := b.layerMetrics(tr, rp, ru, rt, before, after)
	spanPath := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.spans.jsonl", b.workload, b.seed))
	if err := tr.write(spanPath); err != nil {
		return result{}, tally{}, err
	}
	fmt.Fprintf(stdout, "untraced answers: %s\ntraced answers: %s\nreplayed %d requests; spans: %s\n",
		ru.tally, rt.tally, replayed, spanPath)
	printMetrics(stdout, m, nil)
	wrong := ru.tally[classWrong] + rt.tally[classWrong] + su.fillTally[classWrong] + st.fillTally[classWrong] + rp.wrong
	out := result{Correct: wrong == 0, Attempted: rt.tally.attempted(), Failed: rt.tally.failed(), Metrics: m}
	if out.Attempted == 0 || replayed == 0 {
		return out, rt.tally, fmt.Errorf("traced run measured %d requests and replayed %d", out.Attempted, replayed)
	}
	return out, rt.tally, nil
}

// layerMetrics assembles the per-layer table from span self times,
// replay counts and /metrics deltas.
func (b *bench) layerMetrics(tr *tracer, rp *replayer, ru, rt loadResult, before, after counters) map[string]metric {
	self := tr.selfTimes()
	med := func(name string, unit time.Duration) float64 {
		var v []float64
		for _, d := range self[name] {
			v = append(v, float64(d)/float64(unit))
		}
		return median(v)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := map[string]metric{}
	us, ms := time.Microsecond, time.Millisecond
	for _, l := range []struct {
		metric, span string
		unit         time.Duration
	}{
		{"server.decode_us", "server.decode", us}, {"server.encode_us", "server.encode", us},
		{"accesscheck.parse_us", "accesscheck.parse", us}, {"accesscheck.fingerprint_us", "accesscheck.fingerprint", us},
		{"accesscheck.plan_us", "accesscheck.plan", us}, {"accesscheck.solve_ms", "accesscheck.solve", ms},
		{"accltl.universe_us", "accltl.universe", us}, {"accltl.search_ms", "accltl.search", ms},
		{"lts.explore_ms", "lts.explore", ms}, {"autom.compile_us", "autom.compile", us},
		{"autom.emptiness_ms", "autom.emptiness", ms}, {"cachetier.probe_us", "cachetier.probe", us},
		{"cachetier.disk_get_us", "cachetier.disk_get", us}, {"cachetier.disk_put_us", "cachetier.disk_put", us},
		{"cachetier.recovery_ms", "cachetier.recovery", ms}, {"fabric.encode_us", "fabric.encode", us},
		{"fabric.dispatch_ms", "fabric.dispatch", ms}, {"fabric.merge_us", "fabric.merge", us},
	} {
		unit := "us"
		if l.unit == ms {
			unit = "ms"
		}
		m[l.metric] = metric{med(l.span, l.unit), unit}
	}
	m["server.residual_us"] = metric{median(rp.residualUS), "us"}

	var elapsed, latency float64
	rt.each(func(smp *sample) {
		latency += smp.latencyMS()
		if !smp.cached {
			elapsed += float64(smp.elapsedMS)
		}
	})
	m["server.solve_share"] = metric{ratio(elapsed, latency), "ratio"}
	solves := delta(before, after, "accserve_checks_total", "accserve_shard_checks_total",
		`accserve_task_cache_misses_total{task="containment"}`, `accserve_task_cache_misses_total{task="relevance"}`,
		`accserve_task_cache_misses_total{task="chase"}`)
	// The scrapes bracket the whole phase, warm-up included.
	sent := float64(rt.all.len())
	m["server.solves_per_request"] = metric{ratio(solves, sent), "ratio"}
	m["server.partials"] = metric{delta(before, after, "accserve_anytime_partials_total", "accserve_coordinator_partial_answers_total"), "count"}
	m["server.expiries"] = metric{delta(before, after, "accserve_budget_exhausted_total", "accserve_shard_budget_exhausted_total",
		"accserve_coordinator_budget_exhausted_total"), "count"}
	m["accesscheck.paths_per_check"] = metric{mean(rp.paths), "count"}
	m["accesscheck.shards_per_check"] = metric{mean(rp.shards), "count"}
	m["lts.paths_per_ms"] = metric{ratio(rp.explored, rp.exploreTime), "paths/ms"}

	memHits := delta(before, after, `accserve_cache_tier_hits_total{tier="memory"}`)
	memMisses := delta(before, after, `accserve_cache_tier_misses_total{tier="memory"}`)
	m["cachetier.memory_hit_ratio"] = metric{ratio(memHits, memHits+memMisses), "ratio"}
	m["cachetier.evictions"] = metric{delta(before, after, `accserve_cache_tier_evictions_total{tier="memory"}`), "count"}
	diskHits := delta(before, after, `accserve_cache_tier_hits_total{tier="disk"}`)
	diskMisses := delta(before, after, `accserve_cache_tier_misses_total{tier="disk"}`)
	m["cachetier.disk_hit_ratio"] = metric{ratio(diskHits, diskHits+diskMisses), "ratio"}
	m["cachetier.disk_writes"] = metric{delta(before, after, "accserve_cache_disk_writes_total"), "count"}

	dispatched := delta(before, after, "accserve_fabric_shards_dispatched_total")
	m["fabric.groups_per_check"] = metric{ratio(dispatched, delta(before, after, "accserve_coordinator_fanouts_total")), "ratio"}
	m["fabric.retries"] = metric{ratio(delta(before, after, "accserve_fabric_retries_total"), dispatched), "ratio"}
	m["fabric.hedges"] = metric{ratio(delta(before, after, "accserve_fabric_hedges_total"), dispatched), "ratio"}
	mergedHits := delta(before, after, "accserve_coordinator_cache_hits_total")
	mergedMisses := delta(before, after, "accserve_coordinator_cache_misses_total")
	m["coordinator.merged_hit_ratio"] = metric{ratio(mergedHits, mergedHits+mergedMisses), "ratio"}

	var late []float64
	rt.each(func(smp *sample) { late = append(late, smp.lateMS()) })
	v, _, _ := percentile(late, 0.99)
	m["loadgen.late_ms_p99"] = metric{v, "ms"}
	m["trace.overhead_pct"] = metric{100 * ratio(rt.p50()-ru.p50(), ru.p50()), "%"}
	return m
}
