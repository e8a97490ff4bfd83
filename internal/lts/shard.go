package lts

// Plans and shard descriptors: the root partition as a value. A Plan is the
// partition enumerated once, in its canonical order; it describes itself as
// serializable descriptors (ShardID) and executes any subset of itself
// (Plan.Explore), so a distributed coordinator can enumerate the partition
// once, ship each piece to a remote worker as data, and have the worker
// re-derive the identical partition and run exactly the assigned slice.
// Everything identifying a shard is derived deterministically from
// (schema, options, initial, universe): identical inputs enumerate
// identical descriptors on every machine.

import (
	"context"
	"fmt"
	"sort"

	"accltl/internal/instance"
	"accltl/internal/schema"
)

// ShardID identifies one root shard of a plan: its position in the
// canonical order (the schema's: method, then binding, then response mask)
// and its canonical key. The key is the access key (method name plus
// binding) for whole-access shards, or the access key joined to the
// response fingerprint (0x1e-separated) for per-response shards; keys are
// distinct within a plan, and Index and Key always agree between two
// enumerations over the same inputs. WholeAccess marks a lazy-range shard:
// one covering every response of its access, enumerated lazily by the
// walker that executes it (see maxShardMasksPerAccess).
type ShardID struct {
	Index       int
	Key         string
	WholeAccess bool
}

// Plan is the enumerated root partition of an exploration, kept so that
// one enumeration serves any number of executions (Explore and Collect
// enumerate a throwaway one per call). A check that plans its partition and
// then searches it, or resumes it subset by subset, pays for the root
// fan-out (every first access × response, over the whole binding pool)
// once. A Plan holds the exploration options it was enumerated under —
// Context and Parallelism excepted, which are per execution — and the
// read-only universe caches its walkers share. It is immutable and safe
// for concurrent use.
type Plan struct {
	sch        *schema.Schema
	opts       Options
	uTuples    map[string]*relCache
	uDomain    []instance.Value
	shards     []rootShard
	respCapped bool
	// rootBindings is the binding cache the root enumeration built: every
	// method's candidate accesses over the root binding pool (version 0).
	// Walkers start from it instead of rebuilding it.
	rootBindings map[bindKey][]boundAccess
}

// NewPlan enumerates the root partition of an exploration of sch under
// opts, polling opts.Context while it does; opts.Parallelism is ignored.
//
// Determinism contract: the partition is a pure function of the schema,
// the universe, the initial instance and the path-restriction options, so
// two processes given the same inputs agree on every Index and Key of
// Plan.IDs — the property the distributed check fabric's wire shards rely
// on.
func NewPlan(sch *schema.Schema, opts Options) (*Plan, error) {
	o, err := opts.prepare("NewPlan")
	if err != nil {
		return nil, err
	}
	return newPlan(sch, o, initialOf(sch, o))
}

// newPlan runs the one root enumeration; o has defaults applied.
func newPlan(sch *schema.Schema, o Options, init *instance.Instance) (*Plan, error) {
	p := &Plan{sch: sch}
	p.uTuples, p.uDomain = universeCaches(sch, o.Universe)
	e := p.rootExplorer(o, init)
	shards, err := enumerateRootShards(e)
	if err != nil {
		return nil, err
	}
	o.Context, o.Parallelism = nil, 0
	p.opts, p.shards, p.respCapped, p.rootBindings = o, shards, e.respCapped, e.bindCache
	return p, nil
}

// rootExplorer returns an explorer standing at the root of the plan's
// partition: the binding pool holds the initial instance's values, and
// the read-only universe caches and root bindings are the plan's. The
// caches cover every relation of the schema, so no walker ever takes the
// lazy-fill path in matching concurrently. The root bindings are shared
// too, copied by the first walker that adds bindings of its own (a
// grounded walk whose pool grew); a non-grounded pool never changes, so
// those walkers only ever read them.
func (p *Plan) rootExplorer(o Options, init *instance.Instance) *explorer {
	e := newExplorer(p.sch, o)
	e.uTuples, e.uDomain = p.uTuples, p.uDomain
	for _, v := range init.ActiveDomain() {
		e.known[v] = true
	}
	e.bindCache, e.bindShared = p.rootBindings, true
	return e
}

// initialOf is the initial instance of an exploration: opts.Initial, or
// the empty instance.
func initialOf(sch *schema.Schema, o Options) *instance.Instance {
	if o.Initial != nil {
		return o.Initial
	}
	return instance.NewInstance(sch)
}

// IDs returns the plan's shard descriptors in canonical order.
func (p *Plan) IDs() []ShardID {
	ids := make([]ShardID, len(p.shards))
	for i, sh := range p.shards {
		ids[i] = ShardID{Index: i, Key: sh.key, WholeAccess: sh.wholeAccess}
	}
	return ids
}

// Len returns the number of shards in the plan.
func (p *Plan) Len() int { return len(p.shards) }

// ResponsesCapped reports whether some root subset-response fan-out was
// truncated to MaxResponseChoices during enumeration. An exploration of the
// plan reports such a cap only if one of its walkers reaches that fan-out's
// shards.
func (p *Plan) ResponsesCapped() bool { return p.respCapped }

// Explore runs the plan walk over the plan, with ctx and parallelism in the
// roles of Options.Context and Parallelism. The root prefix is visited
// exactly once, by root, on the calling goroutine before any walker starts;
// every other prefix is visited by the ShardVisitor of the walker that runs
// its shard, and walker is called once per walker, possibly concurrently,
// before that walker claims its first shard. At parallelism ≤ 1 one walker
// runs the shards in index order on the calling goroutine, so the visits
// are Explore's, in Explore's order.
//
// shards, when non-nil, restricts the walk to the shards with these
// canonical indexes, which the visitors still receive, so subset runs on
// different machines merge with the same lowest-shard witness preference as
// one full run. The root prefix is still visited exactly once;
// Report.Paths then counts the root plus the visits inside the selected
// shards, and ResponsesCapped reports the caps the selected shards' walks
// met, so an OR over a cover of the partition is a full run's. Indexes out
// of range are an error; duplicates are collapsed. An empty non-nil slice
// visits only the root.
func (p *Plan) Explore(ctx context.Context, parallelism int, shards []int, root Visitor, walker func() ShardVisitor) (Report, error) {
	o := p.opts
	o.Context, o.Parallelism = ctx, parallelism
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Report{}, err
		}
	}
	return exploreSharded(p.sch, o, p, shards, root, walker)
}

// shardSubset validates and canonicalizes a shard subset against an
// enumeration of n shards: sorted ascending, deduplicated, every index in
// [0, n). The dispatch order over the subset is the canonical ascending
// order, preserving the deterministic shard-order semantics (witness
// preference, error priority) of the full partition.
func shardSubset(sel []int, n int) ([]int, error) {
	out := make([]int, len(sel))
	copy(out, sel)
	sort.Ints(out)
	w := 0
	for i, idx := range out {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("lts: shard index %d out of range [0,%d)", idx, n)
		}
		if i > 0 && idx == out[w-1] {
			continue
		}
		out[w] = idx
		w++
	}
	return out[:w], nil
}
