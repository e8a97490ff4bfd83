package lts

// The plan walk, which every exploration runs. The full search space is
// partitioned at the root branching — every path of length ≥ 1 starts with
// exactly one (first access, first response) pair, so those pairs are a
// true partition of the space below the root — and up to Parallelism
// walkers claim shards from a shared queue, each running a depth-first
// mutate-and-undo walk over its shard with its own borrowed path/pre/post
// state, undo buffers and binding caches. Nothing in the hot loop is shared
// except three atomics on the coordinator:
//
//   - paths, the global path budget: claimed once per visit, so MaxPaths
//     has exact semantics (Report.Paths and PathsCapped are identical for
//     every Parallelism);
//   - stop, the early-cancel broadcast: set on the first ErrStop (the
//     witness signal) or budget exhaustion anywhere, checked by every
//     walker once per node. Real errors deliberately do NOT broadcast:
//     they stop dispatch of later shards and let already-running walkers
//     finish, so a witness in a canonically earlier shard still outranks
//     the error (context expiry reaches every walker through its own
//     bounded poll instead);
//   - capped, whether the budget actually cut the search.
//
// Shards are enumerated in the schema's order — method, then binding, then
// response mask, the order a node's children are walked in — and dispatched
// in that order, so one walker visits every prefix in the schema's
// depth-first order, and the shard order, and with it the witness
// preference of searches built on shard indexes, is deterministic across
// runs. Which shard a given walker executes at W > 1 depends on scheduling,
// and so does the exact moment the early-cancel broadcast lands, which is
// why early-stopped runs (witness found, context expired) report
// timing-dependent path counts at W > 1; exhaustive runs do not.

import (
	"sort"
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
// set, with this first access under *any* of its responses. ba points into
// the plan's root binding cache, which walkers share read-only. The
// response is not stored: a walker rebuilds it from the access's matching
// tuples, all of them for an exact method and the subset mask selects
// otherwise (see stepShard). wholeAccess shards enumerate their responses
// lazily inside the walker, which keeps the root bounded when a subset
// fan-out is huge (a raised MaxResponseChoices can make one access fan out
// into 2^k responses — Explore streams those, and so must sharding).
type rootShard struct {
	ba          *boundAccess
	mask        int
	wholeAccess bool
	// key is the canonical key ShardID.Key carries: the access key, joined
	// for a per-response shard to the response fingerprint by 0x1e.
	key string
}

// maxShardMasksPerAccess bounds how many subset responses of one access are
// materialized as individual shards; beyond it the access becomes a single
// wholeAccess shard. 256 (mask count for 8 matching tuples) is far beyond
// the default MaxResponseChoices of 3 — per-response sharding stays the
// normal case — while capping the up-front cost at the root for raised
// caps. More shards than a few× the walker count buy no extra balance.
const maxShardMasksPerAccess = 256

// ShardVisitor is the visitor of one walker of a plan walk. It receives,
// with the canonical index of the shard each belongs to, every prefix of
// every shard its walker runs. The walker runs its shards one after
// another, each in strict depth-first order from depth 1, so a shard's
// visits end before the next shard's begin, and state that mirrors the DFS
// can live per walker. A shard is normally one (first access, first
// response) pair; a first access whose subset fan-out exceeds an internal
// bound is a single shard covering all its responses, enumerated lazily
// (see maxShardMasksPerAccess), so its visits see several first responses
// of the same access. The borrowed-argument contract of Visitor applies.
type ShardVisitor func(shard int, p *access.Path, pre, conf *instance.Instance) (expand bool, err error)

// exploreSharded runs the plan walk; o has defaults applied and a live
// context. The root prefix is visited exactly once, by root, on the
// calling goroutine before any walker starts; the partition is then
// plan's, or enumerated here when plan is nil. Every other prefix is
// visited by the ShardVisitor of the walker that runs its shard: walker is
// called once per walker, possibly concurrently, before that walker claims
// its first shard. shards, when non-nil, restricts the walk to the shards
// with those canonical indexes (see Plan.Explore).
//
// Reports are merged across walkers: Paths counts every visit globally,
// MaxPaths is one shared budget with exact PathsCapped semantics, and
// ResponsesCapped is the OR over every walker, on error returns too.
func exploreSharded(sch *schema.Schema, o Options, plan *Plan, shards []int, root Visitor, walker func() ShardVisitor) (Report, error) {
	init := initialOf(sch, o)
	rootPath, rootPre, rootPost := access.NewPath(sch), init.Clone(), init.Clone()
	expand, err := root(rootPath, rootPre, rootPost)
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
	// A shard subset keeps the canonical indexes of the full enumeration;
	// order holds the indexes to execute, ascending, so the deterministic
	// shard-order semantics survive subsetting.
	var order []int
	if shards != nil {
		if order, err = shardSubset(shards, len(plan.shards)); err != nil {
			return rep, err
		}
	} else {
		order = make([]int, len(plan.shards))
		for i := range order {
			order[i] = i
		}
	}
	rep.TotalShards = len(plan.shards)
	if len(order) == 0 {
		return rep, nil
	}

	w := min(max(o.Parallelism, 1), len(order))
	r := &shardRun{o: o, plan: plan, init: init, order: order, walker: walker, errShard: -1, completed: make([]int, 0, len(order))}
	r.paths.Add(1) // the root prefix
	// The calling goroutine runs the last walker itself, on the root
	// visit's state (the root visitor has returned, so nothing borrows it
	// any more): a one-walker exploration spawns nothing and clones
	// nothing further.
	var wg sync.WaitGroup
	for i := 1; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.walk(access.NewPath(sch), init.Clone(), init.Clone())
		}()
	}
	r.walk(rootPath, rootPre, rootPost)
	wg.Wait()

	// Every claim that did not become a visit (budget denial, context kill)
	// was refunded, so the joined counter is the exact global visit count.
	sort.Ints(r.completed)
	rep = Report{
		Paths:           int(r.paths.Load()),
		PathsCapped:     r.capped.Load(),
		ResponsesCapped: r.respCap,
		CompletedShards: r.completed,
		TotalShards:     len(plan.shards),
	}
	return rep, r.firstErr
}

// shardRun is the state the walkers of one sharded exploration share: the
// coordinator atomics every walker's hot loop reads, the dispatch cursor
// over order, and the results the walkers merge under mu.
type shardRun struct {
	shardCoord
	o      Options
	plan   *Plan
	init   *instance.Instance
	order  []int
	walker func() ShardVisitor

	// next is the dispatch cursor into order; dispatchStop ends dispatch
	// after a real error (see walk).
	next         atomic.Int64
	dispatchStop atomic.Bool

	mu        sync.Mutex
	errShard  int
	firstErr  error
	respCap   bool
	completed []int
}

// walk runs one walker over the mutate-and-undo state it is handed — a root
// path and two copies of the initial configuration — claiming shards from
// the dispatch cursor until none remain or the exploration stops.
func (r *shardRun) walk(path *access.Path, pre, post *instance.Instance) {
	e := r.plan.rootExplorer(r.o, r.init)
	e.shared = &r.shardCoord
	e.path, e.pre, e.post = path, pre, post
	si := -1
	visit := r.walker()
	e.visit = func(p *access.Path, pre, conf *instance.Instance) (bool, error) { return visit(si, p, pre, conf) }
	for !r.stop.Load() && !r.dispatchStop.Load() {
		oi := int(r.next.Add(1)) - 1
		if oi >= len(r.order) {
			break
		}
		si = r.order[oi]
		err := e.stepShard(&r.plan.shards[si])
		if err == nil {
			// The shard's whole subtree was walked: a stop broadcast, a
			// budget denial or a context kill all surface as a non-nil
			// error from step, so nil really means "explored to the
			// bound". Checkpoint/resume skips exactly these shards.
			r.mu.Lock()
			r.completed = append(r.completed, si)
			r.mu.Unlock()
			continue
		}
		if err == ErrStop {
			// Visitor abort (the witness signal): broadcast the early
			// cancel to every walker, so the whole exploration stops.
			r.stop.Store(true)
			break
		}
		// Real error (including context expiry): record it with the lowest
		// shard index winning, and stop handing out further shards —
		// dispatch is monotonic over the canonical order, so every shard below
		// the errored one is already running and is deliberately left to
		// finish. A witness one of them offers outranks the error at the
		// solvers' join (the deterministic resolution: an error only wins
		// against shards the canonical order places after it).
		r.mu.Lock()
		if r.errShard == -1 || si < r.errShard {
			r.errShard, r.firstErr = si, err
		}
		r.mu.Unlock()
		r.dispatchStop.Store(true)
		break
	}
	// Flush the walker-local visit count (capped searches claimed every
	// visit from the shared budget already).
	if r.o.MaxPaths == 0 {
		r.paths.Add(int64(e.paths))
	}
	r.mu.Lock()
	r.respCap = r.respCap || e.respCapped
	r.mu.Unlock()
}

// stepShard explores a shard's subtree from the root: the edge of its one
// first response, or for a wholeAccess shard every response edge of its
// first access, streamed by the same respIter expandChildren uses. A
// per-response shard's response is rebuilt from its mask, exactly as the
// enumeration drew it; rebuilding it through responses also records the
// root fan-out's response cap on the walker that reaches it.
func (e *explorer) stepShard(sh *rootShard) error {
	fr := e.frame(0)
	it := e.responses(fr, sh.ba, e.exact(sh.ba.acc.Method))
	if !sh.wholeAccess {
		it.mask = sh.mask
		resp, keys, _ := it.next(fr)
		return e.step(0, fr, sh.ba, resp, keys)
	}
	for {
		resp, keys, ok := it.next(fr)
		if !ok {
			return nil
		}
		if err := e.step(0, fr, sh.ba, resp, keys); err != nil {
			return err
		}
	}
}

// enumerateRootShards materializes the root branching — every (first
// access, first response) pair reachable from the initial configuration —
// in the canonical order, the schema's: method, then binding, then
// response mask, exactly the order expandChildren walks a node's children
// in. So shard indexes (and with them any index-based witness preference)
// are deterministic across runs, and one walker dispatching the shards in
// index order visits in the schema's depth-first order. e stands at the
// root (see Plan.rootExplorer); its respCapped reports afterwards whether
// the root subset-response fan-out was truncated to MaxResponseChoices, and
// its binding cache holds every method's root bindings.
func enumerateRootShards(e *explorer) ([]rootShard, error) {
	fr := &frame{}
	methods := e.sch.Methods()
	// Every binding opens at least one shard, and exact ones exactly one.
	n := 0
	for _, m := range methods {
		n += len(e.bindings(m))
	}
	shards := make([]rootShard, 0, n)
	// Shard keys are written into one buffer and cut out of one string
	// afterwards; ends holds each shard's key end.
	var keyBuf []byte
	ends := make([]int, 0, n)
	polled := 0
	for _, m := range methods {
		bas := e.bindings(m)
		exact := e.exact(m)
		for i := range bas {
			// Poll the context every few bindings, like Successors does for
			// the same method × binding × response product: the whole root
			// fan-out is materialized before any walker starts polling, so
			// an expired budget must be honoured here too.
			polled++
			if e.opts.Context != nil && polled&0x3f == 0 {
				if err := e.opts.Context.Err(); err != nil {
					return nil, err
				}
			}
			ba := &bas[i]
			it := e.responses(fr, ba, exact)
			if n := len(it.matching); !exact && (n > 8 || 1<<n > maxShardMasksPerAccess) {
				// A subset fan-out beyond the per-access limit becomes one
				// lazy whole-access shard instead of 2^n materialized ones.
				keyBuf = append(keyBuf, ba.key...)
				shards = append(shards, rootShard{ba: ba, wholeAccess: true})
				ends = append(ends, len(keyBuf))
				continue
			}
			for {
				mask := it.mask
				_, keys, ok := it.next(fr)
				if !ok {
					break
				}
				keyBuf = append(append(keyBuf, ba.key...), 0x1e)
				keyBuf = appendRespFingerprint(fr, keys, keyBuf)
				shards = append(shards, rootShard{ba: ba, mask: mask})
				ends = append(ends, len(keyBuf))
			}
		}
	}
	all, start := string(keyBuf), 0
	for i, end := range ends {
		shards[i].key, start = all[start:end], end
	}
	return shards, nil
}

// universeCaches precomputes the per-relation universe contents (with
// canonical keys) and the active domain once, for read-only sharing across
// all walkers.
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
