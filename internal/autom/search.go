package autom

// The emptiness search's control and memo. The search is an lts.Product
// search whose control is the automaton's state set, stepped over the
// guards each transition satisfies; the walk itself (walkers, control
// stacks, the shared (configuration, state-set) dominance memo, scrub of
// unfinished walks, witness) is lts's.

import (
	"accltl/internal/access"
	"accltl/internal/lts"
)

// EmptinessMemo carries the product search's dominance memo across calls so
// a budget-sliced emptiness check resumes warm: commitments of walks that
// were cut short are scrubbed before every search returns (lts.Product),
// so a surviving entry means some round finished that subtree without
// reaching an accepting state. Like the solver's, it also carries the search setup
// (exploration options, witness universe, depth bound, root partition). A
// memo is tied to one (automaton, options) pair.
type EmptinessMemo struct {
	memo  *lts.DominanceMemo[lts.ProductKey[string]]
	setup lts.Setup
}

// NewEmptinessMemo builds an empty reusable memo. It has one lock stripe
// until a search with more walkers widens it (see lts.DominanceMemo.Widen).
func NewEmptinessMemo() *EmptinessMemo {
	return &EmptinessMemo{memo: lts.NewProductMemo[string]()}
}

// search is the state one emptiness search shares across its walkers.
type search struct {
	a      *Automaton
	guards *guardTable
}

// step is the search's lts.Product step: it steps the state set over the
// structure of the last transition, prunes an empty set and accepts a set
// holding an accepting state.
func (s *search) step(cur map[int]bool, _ *access.Path, last access.Transition) (map[int]bool, lts.Move, error) {
	next, err := s.a.step(cur, access.StructureOf(last), s.guards)
	if err != nil || len(next) == 0 {
		return nil, lts.Prune, err
	}
	for st := range next {
		if s.a.Accepting[st] {
			return next, lts.Accept, nil
		}
	}
	return next, lts.Expand, nil
}
