package autom

// The emptiness search's visitor and memo. The product search runs as one
// or more walkers over the root shards of the search space
// (lts.Plan.Explore); each walker has its own spine, a state-set stack
// (the simulation mirrors the DFS prefix chain), while the (configuration,
// state-set) dominance memo is shared across walkers — the same
// sharing-soundness argument as the solver's (see accltl.SolverMemo): an
// entry commits a search with at least that much budget, and verdicts only
// come from searches that ran to completion.

import (
	"fmt"

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

// NewEmptinessMemo builds an empty reusable memo. It has one lock stripe
// until a search with more walkers widens it (see lts.DominanceMemo.Widen).
func NewEmptinessMemo() *EmptinessMemo {
	return &EmptinessMemo{
		memo: lts.NewDominanceMemo(func(k emptinessMemoKey) uint64 { return k.conf.A }),
	}
}

// search is the state one emptiness search shares across its shard walks.
type search struct {
	a      *Automaton
	opts   *EmptinessOptions
	guards *guardTable
	depth  int
	memo   *lts.DominanceMemo[emptinessMemoKey]
	wit    lts.WitnessBox[*access.Path]
}

// spine is one walker's live simulation stack, and shard the shard it is
// walking; see accltl's spine for how the stack follows the walker from
// shard to shard and why it is what an aborted walk must scrub.
type spine struct {
	s     *search
	shard int
	stack []emptinessFrame
	// buf backs the stack until a walk goes deeper than it.
	buf [8]emptinessFrame
}

type emptinessFrame struct {
	states   map[int]bool
	length   int
	key      emptinessMemoKey
	recorded bool
}

// visit is the walker's lts.ShardVisitor: it steps the automaton's state
// set over the path's last transition, reports a prefix reaching an
// accepting state as a witness, and prunes dead state sets and dominated
// (configuration, state-set) pairs.
func (sp *spine) visit(shard int, p *access.Path, pre, conf *instance.Instance) (bool, error) {
	s := sp.s
	sp.shard = shard
	for len(sp.stack) > 0 && sp.stack[len(sp.stack)-1].length >= p.Len() {
		sp.stack = sp.stack[:len(sp.stack)-1]
	}
	if len(sp.stack) == 0 {
		return false, fmt.Errorf("autom: state stack underflow")
	}
	cur := sp.stack[len(sp.stack)-1].states
	// The automaton steps on the last transition only, assembled from the
	// pre/post configurations the explorer maintains incrementally — no
	// per-node rebuild of the whole path's transitions.
	last := access.Transition{Before: pre, Access: p.Step(p.Len() - 1).Access, After: conf}
	next, err := s.a.step(cur, access.StructureOf(last), s.guards)
	if err != nil {
		return false, err
	}
	if len(next) == 0 {
		return false, nil // dead: prune
	}
	for st := range next {
		if s.a.Accepting[st] {
			s.wit.Offer(sp.shard, p.Clone())
			return false, lts.ErrStop
		}
	}
	// Memoization: emptiness from a node depends only on the revealed
	// configuration and the automaton state set; prune dominated revisits.
	// Under idempotence the future also depends on the responses seen so
	// far, so skip memoization there.
	var mk emptinessMemoKey
	recorded := false
	if !s.opts.IdempotentOnly {
		mk = emptinessMemoKey{conf: conf.Hash(), states: stateSetKey(next)}
		if s.memo.DominatedOrRecord(mk, s.depth-p.Len()) {
			return false, nil
		}
		recorded = true
	}
	sp.stack = append(sp.stack, emptinessFrame{states: next, length: p.Len(), key: mk, recorded: recorded})
	return true, nil
}

// scrub removes from a persistent memo the commitments of the walkers
// whose last shard did not complete (the solver's rule): frames still
// stacked in a shard that did not complete are entered-but-unfinished
// subtrees, and their pre-order entries must not prune a resumed round.
func scrub(memo *lts.DominanceMemo[emptinessMemoKey], spines []*spine, completed []int) {
	if len(spines) == 0 {
		return
	}
	done := make(map[int]bool, len(completed))
	for _, s := range completed {
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
