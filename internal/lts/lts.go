// Package lts materializes the labelled transition system a schema induces
// (Section 2, Figure 1): nodes are revealed instances, edges are accesses,
// and a transition (I, AC, I') exists when some well-formed response r to AC
// satisfies Conf((AC,r), I) = I'.
//
// The full LTS is infinite; this package provides *bounded* exploration
// against a finite hidden-instance universe. Exploration doubles as the
// ground-truth oracle for every decision procedure in the repository: a
// fragment solver's "satisfiable" verdict must come with a witness path the
// direct semantics accepts, and "unsatisfiable" verdicts are cross-checked
// by exhaustive enumeration up to the bound.
//
// Every exploration is one walk, the plan walk (parallel.go): the root
// branching is partitioned into shards in the schema's order — method, then
// binding, then response — and walkers run the shards depth-first. One
// walker visits every prefix in the schema's depth-first order, the order
// Explore, EnumeratePaths, BuildTree and the product search's witness
// preference share.
//
// The walk is mutate-and-undo: one reusable path and one pair of
// configurations (post, and pre lagging one step behind) per walker are
// threaded through its whole depth-first walk, with each step recording
// exactly what it added — tuples via Instance.Add's newness report,
// binding-pool values — and removing it again on backtrack. Response
// fan-out is enumerated lazily (subset masks over the matching tuples,
// never a materialized 2^n slice of slices), bindings are cached per
// (method, binding-pool version), and configuration identity uses the
// instances' O(1) incremental Hash. Nothing is cloned per visited node; see
// Visitor for the borrowing contract this imposes on callers.
package lts

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"accltl/internal/access"
	"accltl/internal/instance"
	"accltl/internal/schema"
)

// Options configures bounded exploration.
type Options struct {
	// Context, when non-nil, is polled during exploration: cancellation or
	// deadline expiry aborts the search with the context's error. The full
	// LTS is infinite, so a caller-imposed budget is the only way to stop a
	// search that outgrows its bound.
	Context context.Context
	// Universe is the hidden instance: every response draws its tuples from
	// the matching tuples of Universe. Exploration is complete relative to
	// this choice of possible world. It must not be mutated while an
	// exploration runs: the explorer caches its sorted relation contents and
	// active domain, and responses alias its tuples.
	Universe *instance.Instance
	// Initial is the initially known instance I0 (nil = empty).
	Initial *instance.Instance
	// MaxDepth bounds the number of accesses per path.
	MaxDepth int
	// GroundedOnly restricts to grounded paths: binding values must occur
	// in I0 or an earlier response.
	GroundedOnly bool
	// IdempotentOnly restricts to idempotent paths.
	IdempotentOnly bool
	// ExactMethods lists methods that must respond exactly (all matching
	// Universe tuples). Methods not listed respond with any subset.
	ExactMethods map[string]bool
	// AllExact makes every method exact.
	AllExact bool
	// MaxResponseChoices caps the number of matching tuples considered for
	// subset responses (the fan-out per access is 2^n). Default 3.
	MaxResponseChoices int
	// ExtraBindingValues extends the binding pool beyond the universe's
	// active domain (used for non-grounded exploration with constants from
	// a formula).
	ExtraBindingValues []instance.Value
	// MaxPaths aborts exploration after visiting this many path prefixes
	// (0 = unlimited). The empty root prefix counts as the first, so
	// MaxPaths=n visits the root plus at most n-1 proper paths; when the
	// cap actually cuts the search short, Report.PathsCapped is set. The
	// cap is one budget shared by all walkers: they claim prefixes from one
	// atomic counter, so the global count and the exact PathsCapped
	// semantics hold for every Parallelism.
	MaxPaths int
	// Parallelism is the number of walkers Explore and Collect run over
	// the root partition (see Plan). 0 and 1 run one walker on the calling
	// goroutine, in the schema's depth-first order; W > 1 runs up to W
	// walkers concurrently, and Explore then calls the visitor concurrently
	// — it must be safe for concurrent use. Successors, EnumeratePaths and
	// BuildTree are order-sensitive, one-shot enumerations and ignore the
	// knob.
	Parallelism int
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.MaxResponseChoices == 0 {
		opts.MaxResponseChoices = 3
	}
	return opts
}

// prepare is withDefaults for an exploration entry point: it refuses
// options without a universe, and a context that is already dead.
func (o *Options) prepare(caller string) (Options, error) {
	opts := o.withDefaults()
	if opts.Universe == nil {
		return Options{}, fmt.Errorf("lts: %s requires a Universe instance", caller)
	}
	if opts.Context != nil {
		if err := opts.Context.Err(); err != nil {
			return Options{}, err
		}
	}
	return opts, nil
}

// Visitor receives each explored path prefix together with the
// configurations around its last step: conf is the configuration after the
// whole path, pre the configuration before the path's final access (the
// last transition of the prefix is (pre, last access, conf); for the empty
// path pre holds the same contents as conf). Returning expand=false prunes
// extensions of this path; returning a non-nil error aborts the whole
// exploration.
//
// Borrowing contract: all three arguments are borrowed until the visitor
// returns. The explorer mutates the path and both configurations in place
// as it advances and backtracks, so a visitor that wants to retain any of
// them must Clone (solvers clone their witness path; tree builders clone
// the configuration). Reading is free; holding is not.
type Visitor func(p *access.Path, pre, conf *instance.Instance) (expand bool, err error)

// ErrStop can be returned by a Visitor to abort exploration without error.
var ErrStop = fmt.Errorf("lts: stop requested")

// Report summarizes how an exploration ended. Decision procedures built on
// Explore need it to tell a definitive "no path found" from a search that
// was cut short: a verdict obtained under either cap is relative to the
// cap, not to the full bounded space.
type Report struct {
	// Paths counts the path prefixes visited, including the empty root.
	Paths int
	// PathsCapped reports that MaxPaths cut the search before the space up
	// to MaxDepth was exhausted. It is exact: completing the exploration
	// with exactly MaxPaths prefixes visited does not set it.
	PathsCapped bool
	// ResponsesCapped reports that at least one subset-response fan-out a
	// walker reached was truncated to MaxResponseChoices, so some
	// well-formed responses were never considered. It is meaningful on an
	// error return too: a cap met before the error stays reported.
	ResponsesCapped bool
	// CompletedShards lists, in ascending canonical order, the root shards
	// whose subtree walk ran to completion. A shard aborted by the
	// early-cancel broadcast, a budget denial or a context kill is not
	// listed, so on an error return the listed shards are exactly the ones a
	// resumed run may skip.
	CompletedShards []int
	// TotalShards is the size of the canonical root partition the indexes in
	// CompletedShards refer to (zero when the exploration never reached the
	// root fan-out, e.g. the root visitor declined to expand).
	TotalShards int
}

// Explore enumerates access paths of the schema against opts.Universe,
// calling visit on every path (including the empty one). The Report is
// meaningful even when an error is returned.
//
// The exploration is the plan walk over the root partition (see Plan). At
// Parallelism ≤ 1 one walker visits every prefix in the schema's
// depth-first order. At W > 1 visit is called concurrently from up to W
// walkers and must be safe for concurrent use; each walker still performs
// a strict depth-first mutate-and-undo walk over its shards, so the
// borrowed-argument contract of Visitor is unchanged.
func Explore(sch *schema.Schema, opts Options, visit Visitor) (Report, error) {
	o, err := opts.prepare("Explore")
	if err != nil {
		return Report{}, err
	}
	walker := func(_ int, p *access.Path, pre, conf *instance.Instance) (bool, error) { return visit(p, pre, conf) }
	return exploreSharded(sch, o, nil, nil, visit, func() ShardVisitor { return walker })
}

// boundAccess is a cache-owned access with its canonical key precomputed
// (the key is needed on every idempotence check) and its method's input
// positions, which matching reads at every node.
type boundAccess struct {
	acc    access.Access
	key    string
	inputs []int
}

// bindKey keys the binding cache: one entry per access method per
// binding-pool version. Versions only ever advance while the pool that
// produced them is live (see step), so an entry can never serve a stale
// pool.
type bindKey struct {
	m       *schema.AccessMethod
	version uint64
}

// frame is the per-depth scratch space: reusable buffers whose lifetime is
// one node's child enumeration. A child's whole subtree runs on deeper
// frames, so the buffers are stable for exactly as long as anything borrows
// them (the path borrows resp, the undo in step needs added/vals). The
// *Keys slices run parallel to their tuple slices, carrying the canonical
// tuple keys precomputed once per universe so the instances' keyed
// add/remove fast paths never rebuild a key string per node.
type frame struct {
	matching  []instance.Tuple // matching universe tuples of the current access
	matchKeys []string
	resp      []instance.Tuple // response under construction (borrowed by the path)
	respKeys  []string
	added     []instance.Tuple // tuples the step into the child revealed
	addedKeys []string
	vals      []instance.Value // values the step into the child made known
	fpKeys    []string         // respFingerprint sort scratch (idempotent mode)
}

type explorer struct {
	sch   *schema.Schema
	opts  Options
	visit Visitor

	// paths counts this walker's visits; respCapped records that a
	// response fan-out it reached was cut to MaxResponseChoices.
	paths      int
	respCapped bool

	// shared is the walk this explorer is one walker of: the path budget
	// and the early-cancel broadcast live there.
	shared *shardCoord

	// Mutate-and-undo state: the single reusable path, the configuration
	// after it (post), the configuration before its last step (pre), and
	// the known-value set of the binding pool.
	path   *access.Path
	pre    *instance.Instance
	post   *instance.Instance
	known  map[instance.Value]bool
	idem   map[string]string
	frames []*frame

	// poolVersion identifies the current binding pool for the cache. It
	// moves only in grounded mode: non-grounded pools are constant for a
	// whole exploration (every revealed value already lives in the
	// universe's active domain, see bindingPool). versionSeq hands out
	// fresh, never-reused version numbers. bindLog records cache insertions
	// in creation order (grounded mode only) so backtracking past a version
	// bump can evict exactly the entries whose pool died with the subtree.
	poolVersion uint64
	versionSeq  uint64
	bindCache   map[bindKey][]boundAccess
	bindLog     []bindKey
	// bindShared marks bindCache as a plan's root bindings, which the
	// walkers of a sharded exploration share read-only: the first entry
	// this explorer adds copies the map (see cacheBindings).
	bindShared bool
	// splits caches the binding pool of each version split by datatype, so
	// the pool is built once per version, not once per method. Every split
	// version is also the version of a bindLog entry, so eviction drops the
	// splits with the bindings. keyBuf and keyEnds are bindings' scratch
	// for the access keys of one method.
	splits  map[uint64]*poolSplit
	keyBuf  []byte
	keyEnds []int

	// Universe caches: relation contents in canonical order with their
	// canonical keys, and the active domain, each computed once per
	// exploration instead of re-sorted (or re-keyed) at every node.
	uTuples map[string]*relCache
	uDomain []instance.Value
}

// relCache is one relation's universe contents with precomputed keys.
type relCache struct {
	tuples []instance.Tuple
	keys   []string
}

func newExplorer(sch *schema.Schema, o Options) *explorer {
	e := &explorer{
		sch:   sch,
		opts:  o,
		known: make(map[instance.Value]bool),
	}
	if o.IdempotentOnly {
		e.idem = make(map[string]string)
	}
	return e
}

func (e *explorer) frame(depth int) *frame {
	for len(e.frames) <= depth {
		e.frames = append(e.frames, &frame{})
	}
	return e.frames[depth]
}

func (e *explorer) exact(m *schema.AccessMethod) bool {
	return e.opts.AllExact || (e.opts.ExactMethods != nil && e.opts.ExactMethods[m.Name()])
}

// rec visits the node the explorer state currently describes (path of
// length depth, pre/post configurations, known values) and expands its
// children in place. delta is the set of tuples the step *into* this node
// revealed, over relation deltaRel (deltaKeys carries their canonical keys)
// — exactly what post holds beyond pre during this node's visit. After the
// visit, rec pushes delta onto pre once (making pre this node's own
// configuration, the "before" side of every child transition) and pops it
// once before returning — per node, not per child.
func (e *explorer) rec(depth int, delta []instance.Tuple, deltaKeys []string, deltaRel string) error {
	c := e.shared
	// The stop flag is the early-cancel broadcast: checked once per node (a
	// read-only atomic load, which scales), it bounds how long any walker
	// keeps going after a witness, an error or the cap elsewhere.
	if c.stop.Load() {
		return ErrStop
	}
	capped := e.opts.MaxPaths > 0
	if capped {
		// Capped search: the budget is one atomic counter shared by all
		// walkers, claimed immediately before each visit, so MaxPaths is a
		// global cap that fires only when an (n+1)-th prefix is actually
		// reached: PathsCapped exactly means "there was more space to
		// search". The shared claim costs a contended atomic per node, paid
		// only when a cap is set. Denied claims are refunded like
		// context-killed ones below, so the counter always joins at the
		// exact global visit count. Uncapped walkers count locally and flush
		// when they retire: no shared cache line in the hot loop.
		if c.paths.Add(1) > int64(e.opts.MaxPaths) {
			c.paths.Add(-1)
			c.capped.Store(true)
			c.stop.Store(true)
			return ErrStop
		}
	}
	e.paths++
	// Poll the context on a bounded per-walker cadence: every walker checks
	// its own deadline once per 64 of its own nodes. A visit the context
	// kills is handed back, so Report.Paths stays the exact visit count.
	if e.opts.Context != nil && e.paths&0x3f == 0 {
		if err := e.opts.Context.Err(); err != nil {
			e.paths--
			if capped {
				c.paths.Add(-1)
			}
			return err
		}
	}
	expand, err := e.visit(e.path, e.pre, e.post)
	if err != nil {
		return err
	}
	if !expand || depth >= e.opts.MaxDepth {
		return nil
	}
	for i, t := range delta {
		e.pre.AddKeyed(deltaRel, t, deltaKeys[i])
	}
	err = e.expandChildren(depth)
	for _, k := range deltaKeys {
		e.pre.RemoveKeyed(deltaRel, k)
	}
	return err
}

// expandChildren enumerates every access/response edge out of the current
// node and steps across each.
func (e *explorer) expandChildren(depth int) error {
	fr := e.frame(depth)
	for _, m := range e.sch.Methods() {
		bas := e.bindings(m)
		exact := e.exact(m)
		for i := range bas {
			ba := &bas[i]
			it := e.responses(fr, ba, exact)
			for {
				resp, keys, ok := it.next(fr)
				if !ok {
					break
				}
				if err := e.step(depth, fr, ba, resp, keys); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// responses returns the lazy response iterator for an access: the single
// source of truth — shared by the walk, its root enumeration and
// Successors — for exact responses, the MaxResponseChoices cap with its
// ResponsesCapped flag, and the subset-mask fan-out order (mask 0, the
// empty response, first). The
// iterator is a plain value and builds each response into the frame's
// reusable buffers: no closure, no materialized 2^n slice of slices.
func (e *explorer) responses(fr *frame, ba *boundAccess, exact bool) respIter {
	matching, keys := e.matching(fr, ba)
	if exact {
		return respIter{matching: matching, keys: keys, exact: true}
	}
	if len(matching) > e.opts.MaxResponseChoices {
		matching = matching[:e.opts.MaxResponseChoices]
		keys = keys[:e.opts.MaxResponseChoices]
		e.respCapped = true
	}
	return respIter{matching: matching, keys: keys}
}

// respIter enumerates the well-formed responses of one access lazily.
type respIter struct {
	matching []instance.Tuple
	keys     []string
	exact    bool
	mask     int
	done     bool
}

// next yields the next response (aliasing either the matching buffer or the
// frame's response buffer — borrowed like everything else in the hot loop),
// or ok=false when exhausted.
func (it *respIter) next(fr *frame) (resp []instance.Tuple, keys []string, ok bool) {
	if it.done {
		return nil, nil, false
	}
	if it.exact {
		it.done = true
		return it.matching, it.keys, true
	}
	n := len(it.matching)
	if it.mask >= 1<<n {
		it.done = true
		return nil, nil, false
	}
	fr.resp = fr.resp[:0]
	fr.respKeys = fr.respKeys[:0]
	for j := 0; j < n; j++ {
		if it.mask&(1<<j) != 0 {
			fr.resp = append(fr.resp, it.matching[j])
			fr.respKeys = append(fr.respKeys, it.keys[j])
		}
	}
	it.mask++
	return fr.resp, fr.respKeys, true
}

// step advances the explorer state across one access/response edge, recurses,
// and undoes everything it did — the zero-clone replacement for the old
// clone-per-child descent. respKeys carries the canonical keys of resp
// (universe-precomputed), so no key string is built here.
func (e *explorer) step(depth int, fr *frame, ba *boundAccess, resp []instance.Tuple, respKeys []string) error {
	var idemKey string
	idemSet := false
	if e.opts.IdempotentOnly {
		fp := e.respFingerprintKeyed(fr, respKeys)
		if prev, seen := e.idem[ba.key]; seen {
			if prev != fp {
				return nil // contradicts the earlier response: skip
			}
		} else {
			idemKey = ba.key
			e.idem[idemKey] = fp
			idemSet = true
		}
	}
	e.path.AppendBorrowed(ba.acc, resp)
	rel := ba.acc.Method.Relation().Name()
	// Apply the response to post, recording exactly the new tuples: the
	// keyed Add reports newness, the keyed Remove undoes it tuple for
	// tuple (resp tuples are universe-owned and immutable, so ownership
	// transfer is safe).
	fr.added = fr.added[:0]
	fr.addedKeys = fr.addedKeys[:0]
	for i, t := range resp {
		if e.post.AddKeyed(rel, t, respKeys[i]) {
			fr.added = append(fr.added, t)
			fr.addedKeys = append(fr.addedKeys, respKeys[i])
		}
	}
	// Newly known values extend the binding pool. Grounded pools get a
	// fresh, never-reused version so the binding cache cannot serve a stale
	// pool; non-grounded pools are constant (see bindingPool) and keep
	// their version.
	fr.vals = fr.vals[:0]
	for _, t := range resp {
		for _, v := range t {
			if !e.known[v] {
				e.known[v] = true
				fr.vals = append(fr.vals, v)
			}
		}
	}
	savedVersion := e.poolVersion
	bumped := e.opts.GroundedOnly && len(fr.vals) > 0
	logMark := 0
	if bumped {
		e.versionSeq++
		e.poolVersion = e.versionSeq
		logMark = len(e.bindLog)
	}
	err := e.rec(depth+1, fr.added, fr.addedKeys, rel)
	// Undo in reverse order. The deeper recursion has already undone its
	// own writes, so fr's buffers still describe exactly this step.
	if bumped {
		// Every binding-cache entry created inside the subtree carries a
		// version newer than savedVersion (versions only move forward and
		// are restored on exit), so its pool is dead now: evict it and its
		// version's split, keeping the caches bounded by the live branch
		// instead of the whole exploration history.
		for _, k := range e.bindLog[logMark:] {
			delete(e.bindCache, k)
			delete(e.splits, k.version)
		}
		e.bindLog = e.bindLog[:logMark]
	}
	e.poolVersion = savedVersion
	for _, v := range fr.vals {
		delete(e.known, v)
	}
	for _, k := range fr.addedKeys {
		e.post.RemoveKeyed(rel, k)
	}
	if idemSet {
		delete(e.idem, idemKey)
	}
	e.path.Truncate(depth)
	return err
}

// respFingerprintKeyed is access.ResponseFingerprint over precomputed keys,
// sorting in the frame's scratch buffer.
func (e *explorer) respFingerprintKeyed(fr *frame, keys []string) string {
	fr.fpKeys = append(fr.fpKeys[:0], keys...)
	sort.Strings(fr.fpKeys)
	return strings.Join(fr.fpKeys, "\x1f")
}

// appendRespFingerprint appends respFingerprintKeyed's bytes to b: the
// sorted keys joined by 0x1f.
func appendRespFingerprint(fr *frame, keys []string, b []byte) []byte {
	fr.fpKeys = append(fr.fpKeys[:0], keys...)
	sort.Strings(fr.fpKeys)
	for i, k := range fr.fpKeys {
		if i > 0 {
			b = append(b, 0x1f)
		}
		b = append(b, k...)
	}
	return b
}

// bindings returns the candidate accesses of a method over the current
// binding pool, cached per (method, pool version): the typed cartesian
// product is built — and each access keyed — once per pool, not once per
// node. Candidates come in the order of nested loops over the input
// positions, the last one innermost, each over the pool's values of that
// position's type in pool order. Position i only ever draws values of
// InputTypes()[i], so every candidate is a well-typed access by
// construction.
func (e *explorer) bindings(m *schema.AccessMethod) []boundAccess {
	key := bindKey{m: m, version: e.poolVersion}
	if bas, ok := e.bindCache[key]; ok {
		return bas
	}
	if e.opts.GroundedOnly {
		e.bindLog = append(e.bindLog, key)
	}
	split := e.typedPool()
	types := m.InputTypes()
	n := 1
	for _, ty := range types {
		n *= len(split[ty])
	}
	// One backing array holds every binding, and one string every key; the
	// candidates slice both. The product is read off in mixed radix, the
	// last position's digit varying fastest.
	k := len(types)
	vals := make(instance.Tuple, n*k)
	bas := make([]boundAccess, n)
	inputs := m.Inputs()
	e.keyBuf, e.keyEnds = e.keyBuf[:0], e.keyEnds[:0]
	for i := range bas {
		b := vals[i*k : (i+1)*k : (i+1)*k]
		r := i
		for j := k - 1; j >= 0; j-- {
			vs := split[types[j]]
			b[j] = vs[r%len(vs)]
			r /= len(vs)
		}
		bas[i] = boundAccess{acc: access.Access{Method: m, Binding: b}, inputs: inputs}
		e.keyBuf = bas[i].acc.AppendKey(e.keyBuf)
		e.keyEnds = append(e.keyEnds, len(e.keyBuf))
	}
	keys, start := string(e.keyBuf), 0
	for i, end := range e.keyEnds {
		bas[i].key, start = keys[start:end], end
	}
	e.cacheBindings(key, bas)
	return bas
}

// poolSplit is a binding pool split by datatype, each list in pool order.
type poolSplit [schema.TypeBool + 1][]instance.Value

// typedPool returns the current binding pool split by datatype, building
// it on the version's first use.
func (e *explorer) typedPool() *poolSplit {
	if sp, ok := e.splits[e.poolVersion]; ok {
		return sp
	}
	pool := e.bindingPool()
	sp := new(poolSplit)
	var counts [len(poolSplit{})]int
	for _, v := range pool {
		counts[v.Kind()]++
	}
	backing, off := make([]instance.Value, len(pool)), 0
	for ty, c := range counts {
		sp[ty] = backing[off : off : off+c]
		off += c
	}
	for _, v := range pool {
		sp[v.Kind()] = append(sp[v.Kind()], v)
	}
	if e.splits == nil {
		e.splits = make(map[uint64]*poolSplit)
	}
	e.splits[e.poolVersion] = sp
	return sp
}

// cacheBindings records a binding list in the cache, first copying a
// shared cache (see bindShared) or making the map on first use.
func (e *explorer) cacheBindings(key bindKey, bas []boundAccess) {
	if e.bindCache == nil || e.bindShared {
		m := make(map[bindKey][]boundAccess, len(e.bindCache)+1)
		for k, v := range e.bindCache {
			m[k] = v
		}
		e.bindCache, e.bindShared = m, false
	}
	e.bindCache[key] = bas
}

func (e *explorer) bindingPool() []instance.Value {
	if e.opts.GroundedOnly {
		// Deterministic order: sort the known values.
		vs := make([]instance.Value, 0, len(e.known))
		for v := range e.known {
			vs = append(vs, v)
		}
		sortValues(vs)
		return vs
	}
	// Non-grounded pools are constant over an exploration: revealed values
	// always come from universe tuples, so the trailing known-value pass
	// only dedups away — except for initial-instance values, which are
	// known from the root onward.
	seen := make(map[instance.Value]bool)
	var pool []instance.Value
	add := func(v instance.Value) {
		if !seen[v] {
			seen[v] = true
			pool = append(pool, v)
		}
	}
	for _, v := range e.universeDomain() {
		add(v)
	}
	for _, v := range e.opts.ExtraBindingValues {
		add(v)
	}
	vs := make([]instance.Value, 0, len(e.known))
	for v := range e.known {
		vs = append(vs, v)
	}
	sortValues(vs)
	for _, v := range vs {
		add(v)
	}
	return pool
}

func (e *explorer) universeDomain() []instance.Value {
	if e.uDomain == nil {
		e.uDomain = e.opts.Universe.ActiveDomain()
		if e.uDomain == nil {
			e.uDomain = []instance.Value{}
		}
	}
	return e.uDomain
}

// matching fills the frame's buffers with the universe tuples the access
// matches (the exact well-formed response) and their canonical keys.
// Relation contents come from the per-exploration cache in canonical order,
// so no per-node sort or key build happens.
func (e *explorer) matching(fr *frame, ba *boundAccess) ([]instance.Tuple, []string) {
	acc := ba.acc
	rel := acc.Method.Relation().Name()
	rc, ok := e.uTuples[rel]
	if !ok {
		ts := e.opts.Universe.Tuples(rel)
		rc = &relCache{tuples: ts, keys: make([]string, len(ts))}
		for i, t := range ts {
			rc.keys[i] = t.Key()
		}
		if e.uTuples == nil {
			e.uTuples = make(map[string]*relCache)
		}
		e.uTuples[rel] = rc
	}
	fr.matching = fr.matching[:0]
	fr.matchKeys = fr.matchKeys[:0]
	for i, t := range rc.tuples {
		match := true
		for bi, p := range ba.inputs {
			if t[p] != acc.Binding[bi] {
				match = false
				break
			}
		}
		if match {
			fr.matching = append(fr.matching, t)
			fr.matchKeys = append(fr.matchKeys, rc.keys[i])
		}
	}
	return fr.matching, fr.matchKeys
}

func sortValues(vs []instance.Value) {
	slices.SortFunc(vs, func(a, b instance.Value) int {
		switch {
		case a.Less(b):
			return -1
		case b.Less(a):
			return 1
		}
		return 0
	})
}

// EnumeratePaths collects every path up to the options' depth bound. Each
// path is a retained clone (the explorer's own path is borrowed, see
// Visitor). Intended for small universes (tests, oracles, Figure 1); the
// output order is one walker's, the schema's depth-first order, so
// Parallelism is ignored.
func EnumeratePaths(sch *schema.Schema, opts Options) ([]*access.Path, error) {
	opts.Parallelism = 0
	var out []*access.Path
	_, err := Explore(sch, opts, func(p *access.Path, _, _ *instance.Instance) (bool, error) {
		out = append(out, p.Clone())
		return true, nil
	})
	return out, err
}

// Stats summarizes an exploration: how many paths and distinct
// configurations were reached per depth, plus whether any cap cut the
// enumeration short (see Report).
type Stats struct {
	PathsPerDepth   []int
	ConfigsPerDepth []int
	TotalPaths      int
	PathsCapped     bool
	ResponsesCapped bool
}

// Collect runs an exploration and gathers statistics. Per-depth
// configuration dedup keys on the instances' incremental Hash, so no
// canonical strings are built per node. Each walker keeps a private tally
// (counts summed and config sets unioned on join, nothing shared in the hot
// loop), so the Stats are identical for every Parallelism whenever the
// search is not cut by MaxPaths (per-depth counts are set cardinalities,
// insensitive to visit order); under a cap only TotalPaths and PathsCapped
// are schedule-independent.
func Collect(sch *schema.Schema, opts Options) (Stats, error) {
	o, err := opts.prepare("Collect")
	if err != nil {
		return Stats{}, err
	}
	depths := o.MaxDepth + 1
	var mu sync.Mutex
	var all []*collectStats
	newStats := func() *collectStats {
		ss := &collectStats{paths: make([]int, depths), seen: make([]map[instance.Hash]bool, depths)}
		mu.Lock()
		all = append(all, ss)
		mu.Unlock()
		return ss
	}
	rootStats := newStats()
	rep, err := exploreSharded(sch, o, nil, nil,
		func(p *access.Path, _, conf *instance.Instance) (bool, error) {
			rootStats.visit(p, conf)
			return true, nil
		},
		func() ShardVisitor {
			ss := newStats()
			return func(_ int, p *access.Path, _, conf *instance.Instance) (bool, error) {
				ss.visit(p, conf)
				return true, nil
			}
		})
	// Merge: sum the per-walker visit counts, union the per-walker config
	// sets (into the first non-empty one: the walkers have joined), and
	// grow the slices only as deep as paths were actually visited.
	st := Stats{PathsCapped: rep.PathsCapped, ResponsesCapped: rep.ResponsesCapped}
	for d := 0; d < depths; d++ {
		paths := 0
		var union map[instance.Hash]bool
		for _, ss := range all {
			paths += ss.paths[d]
			if union == nil {
				union = ss.seen[d]
				continue
			}
			for h := range ss.seen[d] {
				union[h] = true
			}
		}
		if paths == 0 {
			break
		}
		st.PathsPerDepth = append(st.PathsPerDepth, paths)
		st.ConfigsPerDepth = append(st.ConfigsPerDepth, len(union))
		st.TotalPaths += paths
	}
	return st, err
}

// collectStats is one walker's private Collect tally: per-depth visit
// counts and per-depth distinct-configuration sets.
type collectStats struct {
	paths []int
	seen  []map[instance.Hash]bool
}

func (ss *collectStats) visit(p *access.Path, conf *instance.Instance) {
	d := p.Len()
	ss.paths[d]++
	m := ss.seen[d]
	if m == nil {
		m = make(map[instance.Hash]bool)
		ss.seen[d] = m
	}
	m[conf.Hash()] = true
}
