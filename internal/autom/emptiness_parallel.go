package autom

// Parallel emptiness: the sharded counterpart of the direct bounded product
// search in IsEmpty. Each root shard carries its own state-set stack (the
// simulation mirrors the DFS prefix chain), while the (configuration,
// state-set) dominance memo is shared across walkers behind striped locks
// keyed by the configuration Hash — the same sharing-soundness argument as
// the solver's (see internal/accltl/solver_parallel.go): an entry commits a
// search with at least that much budget, and verdicts only come from
// searches that ran to completion.

import (
	"fmt"
	"sync"

	"accltl/accesscheck/cachetier"
	"accltl/internal/access"
	"accltl/internal/instance"
	"accltl/internal/lts"
)

// emptinessMemoKey keys the shared (configuration, state-set) dominance
// memo (lts.DominanceMemo, striped on the configuration hash).
type emptinessMemoKey struct {
	conf   instance.Hash
	states string
}

// EmptinessMemo carries the product search's dominance memo across calls so
// a budget-sliced emptiness check resumes warm. The cross-round soundness
// argument is the solver's (see accltl.SolverMemo): commitments of walks
// that were cut short are scrubbed before every search returns, so a
// surviving entry means some round finished that subtree without reaching
// an accepting state. Like the solver's, it also carries the search setup
// (exploration options, witness universe, depth bound, root partition). A
// memo is tied to one (automaton, options) pair.
type EmptinessMemo struct {
	memo  *lts.DominanceMemo[emptinessMemoKey]
	setup lts.Setup
}

// NewEmptinessMemo builds an empty reusable memo.
func NewEmptinessMemo() *EmptinessMemo {
	return &EmptinessMemo{
		memo: lts.NewDominanceMemo[emptinessMemoKey](func(k emptinessMemoKey) uint64 { return k.conf.A }),
	}
}

// NewEmptinessMemoNeg is NewEmptinessMemo with the dominance memo fronted
// by a shared Bloom negative cache (nil = plain memo); the sharing
// contract is the solver twin's (accltl.NewSolverMemoNeg).
func NewEmptinessMemoNeg(neg *cachetier.NegativeCache) *EmptinessMemo {
	m := NewEmptinessMemo()
	if neg != nil {
		m.memo.WithNegativeCache(neg, emptinessNegHash)
	}
	return m
}

// emptinessNegHash derives the negative cache's two probe lanes from a
// memo key: the configuration's incremental instance hash, each lane
// mixed with a hash of the canonical state-set string.
func emptinessNegHash(k emptinessMemoKey) (uint64, uint64) {
	sh := cachetier.Hash64(k.states)
	return k.conf.A ^ sh, k.conf.B ^ (sh<<32 | sh>>32)
}

// emptinessSpine is one shard walk's live simulation stack, registered so
// the post-search sweep can scrub unfinished walks from a persistent memo.
type emptinessSpine struct {
	shard int
	stack []emptinessFrame
}

type emptinessFrame struct {
	states   map[int]bool
	length   int
	key      emptinessMemoKey
	recorded bool
}

// isEmptyParallel runs the sharded product search over plan with
// opts.Parallelism walkers over the opts.Shards subset; the automaton is
// already validated with the empty-path acceptance handled by the caller.
func (a *Automaton) isEmptyParallel(opts EmptinessOptions, plan *lts.Plan, depth int) (EmptinessResult, error) {
	res := EmptinessResult{Empty: true, Depth: depth}
	tables := opts.Memo
	persist := tables != nil
	if tables == nil {
		tables = NewEmptinessMemoNeg(opts.Negative)
	}
	memo := tables.memo
	guards := a.prepareGuards()
	wit := &lts.WitnessBox[*access.Path]{}

	var (
		spineMu sync.Mutex
		spines  []*emptinessSpine
	)
	factory := func(shard int) lts.Visitor {
		// Per-shard simulation stack, seeded with the initial state at the
		// root (the shard's DFS starts at depth 1).
		//
		// LOCKSTEP: this is the serial IsEmpty visitor with the memo swapped
		// for its striped twin; the serial body deliberately stays separate
		// (bit-for-bit engine, no table indirection), so changes to the
		// step / accept / prune / memo sequence must be mirrored between the
		// two — the W-grid equivalence tests are the tripwire.
		sp := &emptinessSpine{shard: shard, stack: []emptinessFrame{{states: map[int]bool{a.Init: true}, length: 0}}}
		if persist {
			spineMu.Lock()
			spines = append(spines, sp)
			spineMu.Unlock()
		}
		return func(p *access.Path, pre, conf *instance.Instance) (bool, error) {
			stack := sp.stack
			defer func() { sp.stack = stack }()
			for len(stack) > 0 && stack[len(stack)-1].length >= p.Len() {
				stack = stack[:len(stack)-1]
			}
			if len(stack) == 0 {
				return false, fmt.Errorf("autom: state stack underflow")
			}
			cur := stack[len(stack)-1].states
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
					wit.Offer(shard, p.Clone())
					return false, lts.ErrStop
				}
			}
			// Under idempotence the future also depends on the responses
			// seen so far; skip memoization there (see the serial twin).
			var mk emptinessMemoKey
			recorded := false
			if !opts.IdempotentOnly {
				mk = emptinessMemoKey{conf: conf.Hash(), states: stateSetKey(next)}
				if memo.DominatedOrRecord(mk, depth-p.Len()) {
					return false, nil
				}
				recorded = true
			}
			stack = append(stack, emptinessFrame{states: next, length: p.Len(), key: mk, recorded: recorded})
			return true, nil
		}
	}
	root := func(p *access.Path, pre, conf *instance.Instance) (bool, error) { return true, nil }

	rep, err := plan.Explore(opts.Context, opts.Parallelism, opts.Shards, root, factory)
	res.PathsExplored = rep.Paths
	res.CompletedShards = rep.CompletedShards
	res.TotalShards = rep.TotalShards
	if persist {
		// Scrub unfinished walks' commitments from the persistent memo (the
		// solver twin's rule): frames still stacked in a shard that did not
		// complete are entered-but-unfinished subtrees, and their pre-order
		// entries must not prune a resumed round.
		done := make(map[int]bool, len(rep.CompletedShards))
		for _, s := range rep.CompletedShards {
			done[s] = true
		}
		for _, sp := range spines {
			if done[sp.shard] {
				continue
			}
			for i := range sp.stack {
				if sp.stack[i].recorded {
					memo.Remove(sp.stack[i].key)
				}
			}
		}
	}
	if w, found := wit.Take(); found {
		// A found witness settles non-emptiness even when another walker
		// errored before the early-cancel broadcast landed (the solver's
		// twin rule): it is validated against the run semantics below, so
		// the verdict does not depend on the failed walker's search.
		res.Empty = false
		res.Witness = w
		if res.Witness.Len() > 0 {
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
	if err != nil {
		return res, err
	}
	res.Truncated = rep.PathsCapped
	res.ResponsesCapped = rep.ResponsesCapped
	return res, nil
}
