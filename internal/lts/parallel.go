package lts

// Parallel sharded exploration: the scale-out of the zero-clone
// mutate-and-undo engine. The full search space is partitioned at the root
// branching — every path of length ≥ 1 starts with exactly one (first
// access, first response) pair, so those pairs are a true partition of the
// space below the root — and up to Parallelism walkers claim shards from a
// shared queue, each running the ordinary serial depth-first walk over its
// shard with its own borrowed path/pre/post state, undo buffers and binding
// caches. Nothing in the hot loop is shared except three atomics on the
// coordinator:
//
//   - paths, the global path budget: claimed once per visit, so MaxPaths
//     keeps its exact serial semantics (Report.Paths and PathsCapped are
//     identical for every Parallelism);
//   - stop, the early-cancel broadcast: set on the first ErrStop (the
//     witness signal) or budget exhaustion anywhere, checked by every
//     walker once per node. Real errors deliberately do NOT broadcast:
//     they stop dispatch of later shards and let already-running walkers
//     finish, so a witness in a canonically earlier shard still outranks
//     the error (context expiry reaches every walker through its own
//     bounded poll instead);
//   - capped, whether the budget actually cut the search.
//
// Shards are sorted by access fingerprint (access key, then response
// fingerprint) before assignment, so the shard order — and with it the
// witness preference of solvers built on shard indexes — is deterministic
// across runs. Which shard a given walker executes still depends on
// scheduling, and so does the exact moment the early-cancel broadcast lands,
// which is why early-stopped runs (witness found, context expired) report
// timing-dependent path counts; exhaustive runs do not.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"accltl/internal/access"
	"accltl/internal/instance"
	"accltl/internal/schema"
)

// shardCoord is the coordinator state shared by all walkers of one sharded
// exploration.
type shardCoord struct {
	// paths is the shared path budget and global visit counter: each walker
	// claims one unit immediately before each visit.
	paths atomic.Int64
	// capped records that the MaxPaths budget actually denied a visit.
	capped atomic.Bool
	// stop is the early-cancel broadcast: once set, every walker winds down
	// at its next node (and the dispatch loop hands out no more shards).
	// Set on ErrStop and budget exhaustion only — see the package comment
	// for why real errors don't broadcast.
	stop atomic.Bool
}

// rootShard is one unit of parallel work: the subtree of all paths opening
// with this (first access, first response) pair — or, when wholeAccess is
// set, with this first access under *any* of its responses. resp and keys
// are owned by the shard (materialized once at enumeration), so any walker
// can borrow them for the duration of its walk; wholeAccess shards carry no
// response and enumerate theirs lazily inside the walker, which keeps the
// up-front materialization bounded when a subset fan-out is huge (a raised
// MaxResponseChoices can make one access fan out into 2^k responses — the
// serial engine streams those, and so must sharding).
type rootShard struct {
	ba          boundAccess
	resp        []instance.Tuple
	keys        []string
	wholeAccess bool
	sortKey     string
}

// maxShardMasksPerAccess bounds how many subset responses of one access are
// materialized as individual shards; beyond it the access becomes a single
// wholeAccess shard. 256 (mask count for 8 matching tuples) is far beyond
// the default MaxResponseChoices of 3 — per-response sharding stays the
// normal case — while capping the up-front cost at the root for raised
// caps. More shards than a few× the walker count buy no extra balance.
const maxShardMasksPerAccess = 256

// ExploreSharded is the parallel counterpart of Explore for visitors that
// carry per-DFS state (solver obligation stacks, automaton state sets). The
// root prefix is visited exactly once, by root, on the calling goroutine
// before any walker starts. Every other prefix is visited by the visitor
// factory(shard) of the shard its first access/response belongs to; factory
// is called once per shard, possibly concurrently from different walkers,
// and each returned visitor observes a strict depth-first visit order over
// its shard starting at depth 1 (the borrowed-argument contract of Visitor
// is unchanged). A shard is normally one (first access, first response)
// pair; a first access whose subset fan-out exceeds an internal bound
// becomes a single shard covering all its responses, enumerated lazily (see
// maxShardMasksPerAccess), so its visitor sees several first responses of
// the same access. Shard indexes follow the deterministic sorted shard
// order, so callers can use them as a stable tie-break between concurrent
// results.
//
// Reports are merged across walkers: Paths counts every visit globally,
// MaxPaths is one shared budget with exact PathsCapped semantics, and
// ResponsesCapped is the OR over the root enumeration and every walker.
// Note one deliberate divergence from the serial engine: the whole root
// fan-out is enumerated up front, so a run cut short by MaxPaths may report
// ResponsesCapped for root responses the serial engine would never have
// reached. Exhaustive runs agree exactly.
//
// Parallelism ≤ 1 still uses the sharded machinery with a single walker
// (deterministic sorted shard order); callers wanting the serial engine
// bit-for-bit use Explore with Parallelism ≤ 1.
//
// Options.Shards restricts execution to a subset of the partition while
// keeping the canonical indexes: factory still receives each shard's global
// index, so subset runs on different machines can be merged with the same
// lowest-shard witness preference as one full in-process run (see Shards
// and ShardID for the enumeration the indexes refer to).
//
// ExploreSharded enumerates the partition after visiting the root; a
// caller executing one partition more than once enumerates it once with
// NewPlan and runs Plan.Explore instead.
func ExploreSharded(sch *schema.Schema, opts Options, root Visitor, factory func(shard int) Visitor) (Report, error) {
	o := opts.withDefaults()
	if o.Universe == nil {
		return Report{}, fmt.Errorf("lts: ExploreSharded requires a Universe instance")
	}
	if o.Context != nil {
		if err := o.Context.Err(); err != nil {
			return Report{}, err
		}
	}
	return exploreSharded(sch, o, nil, root, factory)
}

// exploreSharded runs the sharded exploration; o has defaults applied and a
// live context. The root is visited first; the partition is then plan's,
// or enumerated here when plan is nil.
func exploreSharded(sch *schema.Schema, o Options, plan *Plan, root Visitor, factory func(shard int) Visitor) (Report, error) {
	init := initialOf(sch, o)
	coord := &shardCoord{}
	coord.paths.Add(1) // the root prefix
	rootPre := init.Clone()
	rootPost := init.Clone()
	expand, err := root(access.NewPath(sch), rootPre, rootPost)
	rep := Report{Paths: 1}
	if err == ErrStop {
		return rep, nil
	}
	if err != nil {
		return rep, err
	}
	if !expand || o.MaxDepth < 1 {
		return rep, nil
	}

	if plan == nil {
		if plan, err = newPlan(sch, o, init); err != nil {
			return rep, err
		}
	}
	shards, rootRespCapped := plan.shards, plan.respCapped
	rep.ResponsesCapped = rootRespCapped
	// Options.Shards restricts execution to a subset of the canonical
	// partition: the full enumeration above still fixes the indexes (and the
	// root-level ResponsesCapped), only dispatch is filtered. order holds
	// the canonical indexes to execute, ascending, so the deterministic
	// shard-order semantics survive subsetting.
	order := make([]int, len(shards))
	for i := range order {
		order[i] = i
	}
	if o.Shards != nil {
		order, err = shardSubset(o.Shards, len(shards))
		if err != nil {
			return rep, err
		}
	}
	if len(order) == 0 {
		rep.TotalShards = len(shards)
		return rep, nil
	}

	w := o.Parallelism
	if w < 1 {
		w = 1
	}
	if w > len(order) {
		w = len(order)
	}

	var (
		next         atomic.Int64
		dispatchStop atomic.Bool
		mu           sync.Mutex
		errShard     = -1
		firstErr     error
		respCap      = rootRespCapped
		completed    []int
		wg           sync.WaitGroup
	)
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := newExplorer(sch, o)
			e.shared = coord
			e.uTuples = plan.uTuples
			e.uDomain = plan.uDomain
			e.path = access.NewPath(sch)
			e.post = init.Clone()
			e.pre = init.Clone()
			for _, v := range init.ActiveDomain() {
				e.known[v] = true
			}
			for {
				if coord.stop.Load() || dispatchStop.Load() {
					break
				}
				oi := int(next.Add(1)) - 1
				if oi >= len(order) {
					break
				}
				si := order[oi]
				sh := &shards[si]
				e.visit = factory(si)
				var err error
				if sh.wholeAccess {
					err = e.stepWholeAccess(&sh.ba)
				} else {
					err = e.step(0, e.frame(0), &sh.ba, sh.resp, sh.keys)
				}
				if err == nil {
					// The shard's whole subtree was walked: a stop broadcast, a
					// budget denial or a context kill all surface as a non-nil
					// error from step, so nil really means "explored to the
					// bound". Checkpoint/resume skips exactly these shards.
					mu.Lock()
					completed = append(completed, si)
					mu.Unlock()
					continue
				}
				if err == ErrStop {
					// Visitor abort (the witness signal): broadcast the early
					// cancel to every walker, exactly like serial ErrStop
					// aborts the whole exploration.
					coord.stop.Store(true)
					break
				}
				if err != nil {
					// Real error (including context expiry): record it with
					// the lowest shard index winning, and stop handing out
					// further shards — dispatch is monotonic over the sorted
					// order, so every shard below the errored one is already
					// running and is deliberately left to finish. A witness
					// one of them offers outranks the error at the solvers'
					// join (the deterministic resolution: an error only wins
					// against shards the canonical order places after it).
					mu.Lock()
					if errShard == -1 || si < errShard {
						errShard, firstErr = si, err
					}
					mu.Unlock()
					dispatchStop.Store(true)
					break
				}
			}
			// Flush the walker-local visit count (uncapped searches count
			// locally; capped ones claimed from the shared budget directly,
			// leaving e.paths at zero).
			coord.paths.Add(int64(e.paths))
			mu.Lock()
			respCap = respCap || e.respCapped
			mu.Unlock()
		}()
	}
	wg.Wait()

	// Every claim that did not become a visit (budget denial, context kill)
	// was refunded, so the joined counter is the exact global visit count.
	sort.Ints(completed)
	rep = Report{
		Paths:           int(coord.paths.Load()),
		PathsCapped:     coord.capped.Load(),
		ResponsesCapped: respCap,
		CompletedShards: completed,
		TotalShards:     len(shards),
	}
	return rep, firstErr
}

// stepWholeAccess explores every response edge of one first access from the
// root — the lazy walker side of a wholeAccess shard, using the same
// streaming respIter the serial engine's expandChildren uses.
func (e *explorer) stepWholeAccess(ba *boundAccess) error {
	fr := e.frame(0)
	it := e.responses(fr, ba.acc, e.exact(ba.acc.Method))
	for {
		resp, keys, ok := it.next(fr)
		if !ok {
			return nil
		}
		if err := e.step(0, fr, ba, resp, keys); err != nil {
			return err
		}
	}
}

// enumerateRootShards materializes the root branching — every (first
// access, first response) pair reachable from the initial configuration —
// in the canonical order: sorted by access key, then response fingerprint.
// The sort makes shard indexes (and so the shard→walker assignment and any
// index-based witness preference) deterministic across runs, independent of
// schema method insertion order. The bool result reports whether the root
// subset-response fan-out was truncated to MaxResponseChoices.
func enumerateRootShards(sch *schema.Schema, o Options, init *instance.Instance, uTuples map[string]*relCache, uDomain []instance.Value) ([]rootShard, bool, error) {
	e := newExplorer(sch, o)
	// Reuse the precomputed read-only universe caches the walkers share:
	// recomputing them here would key and sort every universe tuple twice
	// per exploration.
	e.uTuples = uTuples
	e.uDomain = uDomain
	for _, v := range init.ActiveDomain() {
		e.known[v] = true
	}
	fr := &frame{}
	var shards []rootShard
	var sk strings.Builder
	polled := 0
	for _, m := range sch.Methods() {
		bas, err := e.bindings(m)
		if err != nil {
			return nil, e.respCapped, err
		}
		exact := e.exact(m)
		for i := range bas {
			// Poll the context every few bindings, like Successors does for
			// the same method × binding × response product: the whole root
			// fan-out is materialized before any walker starts polling, so
			// an expired budget must be honoured here too.
			polled++
			if o.Context != nil && polled&0x3f == 0 {
				if err := o.Context.Err(); err != nil {
					return nil, e.respCapped, err
				}
			}
			ba := bas[i]
			if !exact {
				// A subset fan-out beyond the per-access limit becomes one
				// lazy whole-access shard instead of 2^k materialized ones.
				matching, _ := e.matching(fr, ba.acc)
				n := len(matching)
				if n > e.opts.MaxResponseChoices {
					n = e.opts.MaxResponseChoices
					e.respCapped = true
				}
				if n > 8 || 1<<n > maxShardMasksPerAccess {
					shards = append(shards, rootShard{ba: ba, wholeAccess: true, sortKey: ba.key})
					continue
				}
			}
			it := e.responses(fr, ba.acc, exact)
			for {
				resp, keys, ok := it.next(fr)
				if !ok {
					break
				}
				r := make([]instance.Tuple, len(resp))
				copy(r, resp)
				k := make([]string, len(keys))
				copy(k, keys)
				sk.Reset()
				sk.WriteString(ba.key)
				sk.WriteByte(0x1e)
				sk.WriteString(e.respFingerprintKeyed(fr, k))
				shards = append(shards, rootShard{ba: ba, resp: r, keys: k, sortKey: sk.String()})
			}
		}
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].sortKey < shards[j].sortKey })
	return shards, e.respCapped, nil
}

// universeCaches precomputes the per-relation universe contents (with
// canonical keys) and the active domain once, for read-only sharing across
// all walkers: the caches cover every relation of the schema, so no walker
// ever takes the lazy-fill path in matching concurrently.
func universeCaches(sch *schema.Schema, u *instance.Instance) (map[string]*relCache, []instance.Value) {
	uTuples := make(map[string]*relCache, sch.NumRelations())
	for _, r := range sch.Relations() {
		ts := u.Tuples(r.Name())
		rc := &relCache{tuples: ts, keys: make([]string, len(ts))}
		for i, t := range ts {
			rc.keys[i] = t.Key()
		}
		uTuples[r.Name()] = rc
	}
	dom := u.ActiveDomain()
	if dom == nil {
		dom = []instance.Value{}
	}
	return uTuples, dom
}

// collectShardStats is one shard's private tally: per-depth visit counts
// and per-depth distinct-configuration sets keyed by the instances'
// incremental Hash. Nothing is shared in the hot loop — the global counts
// come from summing the tallies and unioning the sets on join ("per-walker
// tables merged on join"), which is exact because per-depth path counts are
// additive over the shard partition and distinct-config counts are set
// cardinalities.
type collectShardStats struct {
	paths []int
	seen  []map[instance.Hash]bool
}

func newCollectShardStats(depths int) *collectShardStats {
	return &collectShardStats{paths: make([]int, depths), seen: make([]map[instance.Hash]bool, depths)}
}

func (ss *collectShardStats) visit(p *access.Path, conf *instance.Instance) {
	d := p.Len()
	ss.paths[d]++
	m := ss.seen[d]
	if m == nil {
		m = make(map[instance.Hash]bool)
		ss.seen[d] = m
	}
	m[conf.Hash()] = true
}

// collectParallel is Collect over the sharded engine. The resulting Stats
// are identical to the serial engine's for every Parallelism on exhaustive
// runs (counts are order-insensitive); under a MaxPaths cap only the budget
// semantics — TotalPaths and PathsCapped — are schedule-independent.
func collectParallel(sch *schema.Schema, opts Options) (Stats, error) {
	o := opts.withDefaults()
	if o.Universe == nil {
		return Stats{}, fmt.Errorf("lts: Collect requires a Universe instance")
	}
	if o.Context != nil {
		if err := o.Context.Err(); err != nil {
			return Stats{}, err
		}
	}
	depths := o.MaxDepth + 1
	var mu sync.Mutex
	var all []*collectShardStats
	newStats := func() *collectShardStats {
		ss := newCollectShardStats(depths)
		mu.Lock()
		all = append(all, ss)
		mu.Unlock()
		return ss
	}
	rootStats := newStats()
	rep, err := exploreSharded(sch, o, nil,
		func(p *access.Path, _, conf *instance.Instance) (bool, error) {
			rootStats.visit(p, conf)
			return true, nil
		},
		func(int) Visitor {
			ss := newStats()
			return func(p *access.Path, _, conf *instance.Instance) (bool, error) {
				ss.visit(p, conf)
				return true, nil
			}
		})
	// Merge: sum the per-shard visit counts, union the per-shard config
	// sets, and match the serial engine's slice shape (grown only as deep
	// as paths were actually visited).
	paths := make([]int, depths)
	union := make([]map[instance.Hash]bool, depths)
	for d := range union {
		union[d] = make(map[instance.Hash]bool)
	}
	for _, ss := range all {
		for d := 0; d < depths; d++ {
			paths[d] += ss.paths[d]
			for h := range ss.seen[d] {
				union[d][h] = true
			}
		}
	}
	var st Stats
	maxD := 0
	for d := 0; d < depths; d++ {
		if paths[d] > 0 {
			maxD = d
		}
	}
	for d := 0; d <= maxD; d++ {
		st.PathsPerDepth = append(st.PathsPerDepth, paths[d])
		st.ConfigsPerDepth = append(st.ConfigsPerDepth, len(union[d]))
		st.TotalPaths += paths[d]
	}
	st.PathsCapped = rep.PathsCapped
	st.ResponsesCapped = rep.ResponsesCapped
	return st, err
}
