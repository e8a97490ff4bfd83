package autom

import (
	"context"
	"sort"

	"accltl/internal/access"
	"accltl/internal/accltl"
	"accltl/internal/fo"
	"accltl/internal/instance"
	"accltl/internal/lts"
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
	// one walker, on the calling goroutine). The product search is sharded
	// over the root branching (lts.Plan.Explore) in the schema's shard
	// order, with the (configuration, state-set) memo shared across
	// walkers behind striped locks keyed by the configuration Hash. Verdicts
	// of searches that run to exhaustion are identical for every W; witness
	// choice and PathsExplored follow the solver's rules (see
	// accltl.SolveOptions.Parallelism).
	Parallelism int
	// Shards, when non-nil, restricts the product search to the listed root
	// shards of the canonical partition Prepared.Plan holds (see
	// accltl.SolveOptions.Shards for the subset-search contract: "non-empty"
	// verdicts stay exact, "empty" verdicts cover only the selected shards
	// and must be merged across a full cover).
	Shards []int
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
	// MaxResponseChoices, so an "empty" verdict may have missed worlds. It
	// is set on every return without a witness, error returns included.
	ResponsesCapped bool
	// CompletedShards lists, ascending, the canonical root shards whose
	// walk ran to completion; TotalShards is the partition size the indexes
	// refer to. Both are meaningful even when an error is returned
	// alongside the result (checkpoint/resume reads them off a
	// deadline-expired search).
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
//
// It prepares the search (Prepare) and runs it once, on opts.Shards with
// opts.Parallelism walkers: an lts.Product search whose control is the
// automaton's state set (see search.go).
func (a *Automaton) IsEmpty(opts EmptinessOptions) (EmptinessResult, error) {
	p, err := a.Prepare(opts)
	if err != nil {
		return EmptinessResult{}, err
	}
	return p.Search(opts.Context, opts.Parallelism, opts.Shards)
}

// emptinessLTSOptions assembles the exploration options the product search
// uses: the depth bound (states + guards + 2 unless overridden), the
// guard-derived witness universe and the guards' constants in the binding
// pool, completed by lts.ProductOptions. Prepare plans with it, so a plan
// always describes the partition the search executes.
func (a *Automaton) emptinessLTSOptions(opts EmptinessOptions) (lts.Options, int, error) {
	depth := opts.MaxDepth
	if depth == 0 {
		depth = a.NumStates + len(a.Guards()) + 2
	}
	universe := opts.Universe
	if universe == nil {
		var err error
		if universe, err = accltl.UniverseForSentences(a.Schema, a.Guards()); err != nil {
			return lts.Options{}, 0, err
		}
	}
	o, err := lts.ProductOptions(a.Schema, lts.Options{
		Universe:           universe,
		Initial:            opts.Initial,
		MaxDepth:           depth,
		GroundedOnly:       opts.Grounded,
		IdempotentOnly:     opts.IdempotentOnly,
		ExactMethods:       opts.ExactMethods,
		AllExact:           opts.AllExact,
		MaxResponseChoices: opts.MaxResponseChoices,
		MaxPaths:           opts.MaxPaths,
		ExtraBindingValues: guardConstants(a),
	})
	return o, depth, err
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
