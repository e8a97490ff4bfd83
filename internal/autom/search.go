package autom

// The prepared emptiness search: its control and memo. The search is an
// lts.Product search whose control is the automaton's state set, stepped
// over the guards each transition satisfies; the walk itself (walkers,
// control stacks, the shared (configuration, state-set) dominance memo,
// scrub of unfinished walks, witness) is lts's.

import (
	"context"

	"accltl/internal/access"
	"accltl/internal/accltl"
	"accltl/internal/lts"
)

// Prepared is a prepared emptiness search of its automaton: the prepared
// guards, the depth bound and the plan (exploration options over the
// guard-derived witness universe, root partition) derived once, and the
// product search's dominance memo, which every Search on it warms. As with
// accltl.Prepared, a search that ends early scrubs the commitments of its
// unfinished shard walks (lts.Product), so the rounds of a budget-sliced
// check run on one Prepared, one after another; searches of one Prepared
// must not overlap. It holds its own automaton, so its memo only ever
// holds that automaton's state sets.
type Prepared struct {
	a      *Automaton
	guards *guardTable
	depth  int
	plan   *lts.Plan
	memo   *lts.DominanceMemo[lts.ProductKey[string]]
	// keyed turns the memo on. Emptiness below a node depends only on the
	// revealed configuration and the state set — except under idempotence,
	// where the responses seen so far constrain the future, so the memo
	// stays off there.
	keyed bool
}

// Prepare validates a and derives its emptiness search under opts,
// enumerating the root partition under opts.Context; an expired context
// returns its error before any derivation. Parallelism and Shards are the
// searches'.
func (a *Automaton) Prepare(opts accltl.SolveOptions) (*Prepared, error) {
	plan, depth, err := a.plan(opts)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		a:      a,
		guards: a.prepareGuards(),
		depth:  depth,
		plan:   plan,
		memo:   lts.NewProductMemo[string](),
		keyed:  !opts.IdempotentOnly,
	}, nil
}

// Plan derives the root partition Prepare(opts) searches, and nothing else:
// a caller that only plans prepares no guards or memo.
func (a *Automaton) Plan(opts accltl.SolveOptions) (*lts.Plan, error) {
	p, _, err := a.plan(opts)
	return p, err
}

// plan validates a and enumerates its search's root partition under
// opts.Context, with the depth bound, which it returns too.
func (a *Automaton) plan(opts accltl.SolveOptions) (*lts.Plan, int, error) {
	if err := a.Validate(); err != nil {
		return nil, 0, err
	}
	if opts.Context != nil {
		if err := opts.Context.Err(); err != nil {
			return nil, 0, err
		}
	}
	o, depth, err := a.emptinessLTSOptions(opts)
	if err != nil {
		return nil, 0, err
	}
	p, err := lts.NewPlan(a.Schema, o)
	return p, depth, err
}

// Plan returns the search's root partition.
func (p *Prepared) Plan() *lts.Plan { return p.plan }

// Search runs the search over the shards subset of its plan with
// parallelism walkers (lts.Plan.Explore's arguments: nil shards is the
// whole partition). A context that has already expired returns its error
// first; an automaton accepting the empty path then answers non-empty
// before any search; otherwise the walk polls the context, as
// accltl.Prepared.Search's does.
func (p *Prepared) Search(ctx context.Context, parallelism int, shards []int) (accltl.SolveResult, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return accltl.SolveResult{}, err
		}
	}
	a := p.a
	if a.AcceptEmpty && a.Accepting[a.Init] {
		return accltl.SolveResult{Satisfiable: true, Witness: access.NewPath(a.Schema), Depth: p.depth}, nil
	}
	pr := &lts.Product[map[int]bool, string]{
		Init:  map[int]bool{a.Init: true},
		Step:  p.step,
		Memo:  p.memo,
		Depth: p.depth,
	}
	if p.keyed {
		pr.Key = stateSetKey
	}
	rep, witness, err := pr.Search(ctx, p.plan, parallelism, shards)
	return accltl.Settle(rep, p.depth, witness, err, a.Accepts, "autom: internal error: witness rejected by run semantics")
}

// step is the search's lts.Product step: it steps the state set over the
// structure of the last transition, prunes an empty set and accepts a set
// holding an accepting state.
func (p *Prepared) step(cur map[int]bool, _ *access.Path, last *access.TransitionStructure) (map[int]bool, lts.Move, error) {
	next, err := p.a.step(cur, last, p.guards)
	if err != nil || len(next) == 0 {
		return nil, lts.Prune, err
	}
	for st := range next {
		if p.a.Accepting[st] {
			return next, lts.Accept, nil
		}
	}
	return next, lts.Expand, nil
}
