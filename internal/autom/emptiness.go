package autom

import (
	"context"
	"fmt"
	"sort"

	"accltl/accesscheck/cachetier"
	"accltl/internal/access"
	"accltl/internal/accltl"
	"accltl/internal/fo"
	"accltl/internal/instance"
	"accltl/internal/lts"
	"accltl/internal/schema"
)

// EmptinessOptions configures the emptiness engines.
type EmptinessOptions struct {
	// Context, when non-nil, bounds the search by cancellation or deadline:
	// checked before the product search starts and polled by the LTS
	// exploration underneath it.
	Context context.Context
	// Initial is the initially known instance I0 (nil = empty).
	Initial *instance.Instance
	// Grounded / IdempotentOnly / ExactMethods / AllExact restrict the
	// paths considered, per the sanity conditions of Section 2 ("The same
	// holds if accesses are restricted to be exact or idempotent",
	// Theorem 4.6).
	Grounded       bool
	IdempotentOnly bool
	ExactMethods   map[string]bool
	AllExact       bool
	// MaxDepth bounds witness length for the direct engine (0 derives one
	// from the automaton: states + distinct guards + 2).
	MaxDepth int
	// MaxResponseChoices caps response subset fan-out (0 = lts default).
	MaxResponseChoices int
	// MaxPaths caps exploration (0 = 2^22).
	MaxPaths int
	// Universe overrides the guard-derived witness universe.
	Universe *instance.Instance
	// Parallelism is the number of concurrent exploration walkers (0 or 1 =
	// the serial engine, unchanged). W > 1 shards the product search over
	// the root branching (lts.ExploreSharded) with the (configuration,
	// state-set) memo shared across walkers behind striped locks keyed by
	// the configuration Hash. Verdicts of searches that run to exhaustion
	// are identical for every W; witness choice and PathsExplored on
	// early-stopped or capped searches are schedule-dependent (see the
	// solver's twin note on accltl.SolveOptions.Parallelism).
	Parallelism int
	// Shards, when non-nil, restricts the product search to the listed root
	// shards of the canonical partition PlanShards enumerates (see
	// accltl.SolveOptions.Shards for the subset-search contract: "non-empty"
	// verdicts stay exact, "empty" verdicts cover only the selected shards
	// and must be merged across a full cover). Setting Shards routes through
	// the sharded engine even at Parallelism ≤ 1.
	Shards []int
	// Memo, when non-nil, carries the product search's dominance memo
	// across calls so a resumed search starts warm (progressive deepening),
	// together with the search setup (exploration options, witness
	// universe, depth bound, root partition) that every later search or
	// PlanShards through the memo reuses. Only the sharded engine consults
	// the dominance memo, the memo is only valid for repeat
	// searches of the same automaton under the same options, and searches
	// that end early scrub their unfinished walks' commitments before
	// returning; see NewEmptinessMemo.
	Memo *EmptinessMemo
	// Negative, when non-nil, fronts the sharded engine's dominance memo
	// with a shared Bloom negative cache — the accltl.SolveOptions.Negative
	// contract: verdict-neutral, safe to share across automata and
	// requests, ignored when Memo is set (a persistent memo carries its
	// own arming; see NewEmptinessMemoNeg) and by the serial engine.
	Negative *cachetier.NegativeCache
}

// EmptinessResult reports an emptiness verdict.
type EmptinessResult struct {
	// Empty is the verdict: no accepted path found (within the bound for
	// the direct engine).
	Empty bool
	// Witness is an accepted path when non-empty.
	Witness *access.Path
	// PathsExplored counts visited prefixes.
	PathsExplored int
	// Depth is the bound used.
	Depth int
	// Truncated reports that the search hit its path cap before exhausting
	// the space up to Depth: an "empty" verdict is then relative to the
	// cap, not just the depth bound. It is exact — completing the search
	// with exactly MaxPaths prefixes visited does not set it.
	Truncated bool
	// ResponsesCapped reports that some subset-response fan-out was cut to
	// MaxResponseChoices, so an "empty" verdict may have missed worlds.
	ResponsesCapped bool
	// CompletedShards lists, ascending, the canonical root shards whose
	// walk ran to completion; TotalShards is the partition size the indexes
	// refer to. Populated only by the sharded engine, and meaningful even
	// when an error is returned alongside the result (checkpoint/resume
	// reads them off a deadline-expired search).
	CompletedShards []int
	TotalShards     int
}

// IsEmpty decides language emptiness with the direct bounded product
// search: the LTS of the schema is explored over a universe assembled from
// the guards' positive obligations while simulating the automaton's state
// set; a path reaching an accepting state is a witness. "Non-empty"
// verdicts are unconditional (the witness is checked); "empty" verdicts are
// relative to the depth bound, which suffices for automata whose guards'
// obligations each need at most one revealing access — in particular for
// every automaton compiled from AccLTL+ by this repository.
func (a *Automaton) IsEmpty(opts EmptinessOptions) (EmptinessResult, error) {
	if err := a.Validate(); err != nil {
		return EmptinessResult{}, err
	}
	if opts.Context != nil {
		if err := opts.Context.Err(); err != nil {
			return EmptinessResult{}, err
		}
	}
	setup, ltsOpts, depth, err := a.searchSetup(opts)
	if err != nil {
		return EmptinessResult{}, err
	}

	res := EmptinessResult{Empty: true, Depth: depth}
	if a.AcceptEmpty && a.Accepting[a.Init] {
		res.Empty = false
		res.Witness = access.NewPath(a.Schema)
		return res, nil
	}
	if opts.Parallelism > 1 || opts.Shards != nil {
		plan, err := setup.Plan(opts.Context, a.Schema)
		if err != nil {
			return res, err
		}
		return a.isEmptyParallel(opts, plan, depth)
	}
	guards := a.prepareGuards()
	type frame struct {
		states map[int]bool
		length int
	}
	stack := []frame{{states: map[int]bool{a.Init: true}, length: 0}}
	// Memoization: emptiness from a node depends only on the revealed
	// configuration and the automaton state set; prune dominated revisits.
	// The configuration is identified by its O(1) incremental Hash.
	type memoKey struct {
		conf   instance.Hash
		states string
	}
	seen := make(map[memoKey]int)
	rep, err := lts.Explore(a.Schema, ltsOpts, func(p *access.Path, pre, conf *instance.Instance) (bool, error) {
		res.PathsExplored++
		if p.Len() == 0 {
			return true, nil
		}
		for len(stack) > 0 && stack[len(stack)-1].length >= p.Len() {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			return false, fmt.Errorf("autom: state stack underflow")
		}
		cur := stack[len(stack)-1].states
		// The automaton steps on the last transition only, assembled from
		// the pre/post configurations the explorer maintains incrementally
		// — no per-node rebuild of the whole path's transitions.
		last := access.Transition{Before: pre, Access: p.Step(p.Len() - 1).Access, After: conf}
		next, err := a.step(cur, access.StructureOf(last), guards)
		if err != nil {
			return false, err
		}
		if len(next) == 0 {
			return false, nil // dead: prune
		}
		for s := range next {
			if a.Accepting[s] {
				res.Empty = false
				res.Witness = p.Clone()
				return false, lts.ErrStop
			}
		}
		// Under idempotence the future also depends on the responses seen
		// so far; skip memoization there (see the solver's twin note).
		if !opts.IdempotentOnly {
			remaining := depth - p.Len()
			key := memoKey{conf: conf.Hash(), states: stateSetKey(next)}
			if prev, ok := seen[key]; ok && prev >= remaining {
				return false, nil
			}
			seen[key] = remaining
		}
		stack = append(stack, frame{states: next, length: p.Len()})
		return true, nil
	})
	if err != nil {
		return res, err
	}
	if res.Empty {
		res.Truncated = rep.PathsCapped
		res.ResponsesCapped = rep.ResponsesCapped
	}
	if !res.Empty && res.Witness.Len() > 0 {
		ok, err := a.Accepts(res.Witness)
		if err != nil {
			return res, err
		}
		if !ok {
			return res, fmt.Errorf("autom: internal error: witness rejected by run semantics")
		}
	}
	return res, nil
}

// emptinessLTSOptions assembles the exploration options the product search
// uses: depth bound (states + guards + 2 unless overridden), guard-derived
// witness universe unioned with the initial instance, path cap and fresh
// binding pool. The single prep path shared by IsEmpty and PlanShards, so a
// plan always describes the partition the search executes.
func (a *Automaton) emptinessLTSOptions(opts EmptinessOptions) (lts.Options, int, error) {
	depth := opts.MaxDepth
	if depth == 0 {
		depth = a.NumStates + len(a.Guards()) + 2
	}
	universe := opts.Universe
	if universe == nil {
		var err error
		universe, err = accltl.UniverseForSentences(a.Schema, a.Guards())
		if err != nil {
			return lts.Options{}, 0, err
		}
	}
	if opts.Initial != nil {
		u := universe.Clone()
		if err := u.UnionWith(opts.Initial); err != nil {
			return lts.Options{}, 0, err
		}
		universe = u
	}
	maxPaths := opts.MaxPaths
	if maxPaths == 0 {
		maxPaths = 1 << 22
	}
	extraVals := guardConstants(a)
	extraVals = append(extraVals, freshBindingValues(a.Schema)...)
	return lts.Options{
		Context:            opts.Context,
		Universe:           universe,
		Initial:            opts.Initial,
		MaxDepth:           depth,
		GroundedOnly:       opts.Grounded,
		IdempotentOnly:     opts.IdempotentOnly,
		ExactMethods:       opts.ExactMethods,
		AllExact:           opts.AllExact,
		MaxResponseChoices: opts.MaxResponseChoices,
		MaxPaths:           maxPaths,
		ExtraBindingValues: extraVals,
	}, depth, nil
}

// searchSetup returns the search's setup — opts.Memo's, or a fresh one for
// a memo-less search — with its exploration options (carrying opts.Context)
// and depth bound derived.
func (a *Automaton) searchSetup(opts EmptinessOptions) (*lts.Setup, lts.Options, int, error) {
	setup := &lts.Setup{}
	if opts.Memo != nil {
		setup = &opts.Memo.setup
	}
	o, depth, err := setup.Options(opts.Context, func() (lts.Options, int, error) { return a.emptinessLTSOptions(opts) })
	return setup, o, depth, err
}

// PlanShards enumerates the root shards an emptiness search of a under opts
// would partition into, in the canonical sorted order
// EmptinessOptions.Shards indexes. Pure in (automaton, options) —
// Parallelism and Shards themselves do not affect it — so independent
// processes derive identical plans. The bool result reports whether root
// response fan-out was truncated during enumeration.
//
// With opts.Memo set, the plan is the memo's: enumerated by the first plan
// or sharded search through the memo and reused by every later one.
func (a *Automaton) PlanShards(opts EmptinessOptions) ([]lts.ShardID, bool, error) {
	if err := a.Validate(); err != nil {
		return nil, false, err
	}
	setup, _, _, err := a.searchSetup(opts)
	if err != nil {
		return nil, false, err
	}
	plan, err := setup.Plan(opts.Context, a.Schema)
	if err != nil {
		return nil, false, err
	}
	return plan.IDs(), plan.ResponsesCapped(), nil
}

// stateSetKey renders a state set canonically.
func stateSetKey(states map[int]bool) string {
	ids := make([]int, 0, len(states))
	for s := range states {
		ids = append(ids, s)
	}
	sort.Ints(ids)
	out := make([]byte, 0, len(ids)*3)
	for _, s := range ids {
		out = append(out, byte(s), byte(s>>8), ',')
	}
	return string(out)
}

// guardConstants collects constants from all guards.
func guardConstants(a *Automaton) []instance.Value {
	var out []instance.Value
	seen := make(map[instance.Value]bool)
	for _, g := range a.Guards() {
		for _, v := range fo.Constants(g) {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// freshBindingValues supplies one fresh value per datatype used as a method
// input, so methods can fire even over an empty universe.
func freshBindingValues(sch *schema.Schema) []instance.Value {
	need := make(map[schema.Type]bool)
	for _, m := range sch.Methods() {
		for _, ty := range m.InputTypes() {
			need[ty] = true
		}
	}
	var out []instance.Value
	if need[schema.TypeInt] {
		out = append(out, instance.Int(987654321))
	}
	if need[schema.TypeString] {
		out = append(out, instance.Str("_freshbind"))
	}
	if need[schema.TypeBool] {
		out = append(out, instance.Bool(true), instance.Bool(false))
	}
	return out
}
