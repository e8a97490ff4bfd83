package autom

// The emptiness search's control and memo. The search is an lts.Product
// search whose control is the automaton's state set, stepped over the
// guards each transition satisfies; the walk itself (walkers, control
// stacks, the shared (configuration, state-set) dominance memo, scrub of
// unfinished walks, witness) is lts's.

import (
	"fmt"
	"sync"

	"accltl/internal/access"
	"accltl/internal/accltl"
	"accltl/internal/lts"
	"accltl/internal/schema"
)

// EmptinessMemo carries the product search's dominance memo across calls so
// a budget-sliced emptiness check resumes warm: commitments of walks that
// were cut short are scrubbed before every search returns (lts.Product),
// so a surviving entry means some round finished that subtree without
// reaching an accepting state. Like the solver's, it also carries the search setup
// (exploration options, witness universe, depth bound, root partition), and
// the automaton itself. A memo is tied to one (automaton, options) pair:
// the first automaton planned or searched through it is its own, and any
// other is refused.
type EmptinessMemo struct {
	memo  *lts.DominanceMemo[lts.ProductKey[string]]
	setup lts.Setup

	mu sync.Mutex
	a  *Automaton
}

// NewEmptinessMemo builds an empty reusable memo. It has one lock stripe
// until a search with more walkers widens it (see lts.DominanceMemo.Widen).
func NewEmptinessMemo() *EmptinessMemo {
	return &EmptinessMemo{memo: lts.NewProductMemo[string]()}
}

// Compile returns the memo's automaton, compiling f over sch on first use,
// so a check's plan and every round through its memo share one
// compilation. A nil memo compiles afresh.
func (m *EmptinessMemo) Compile(sch *schema.Schema, f accltl.Formula) (*Automaton, error) {
	if m == nil {
		return CompileAccLTLPlus(sch, f)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.a == nil {
		a, err := CompileAccLTLPlus(sch, f)
		if err != nil {
			return nil, err
		}
		m.a = a
	}
	return m.a, nil
}

// Setup returns the search setup the memo carries.
func (m *EmptinessMemo) Setup() *lts.Setup { return &m.setup }

// tie binds the memo to a on first use and refuses any other automaton:
// the memo's setup and dominance entries are a's (its guards, its states).
func (m *EmptinessMemo) tie(a *Automaton) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.a == nil {
		m.a = a
	}
	if m.a != a {
		return fmt.Errorf("autom: emptiness memo belongs to another automaton")
	}
	return nil
}

// search is the state one emptiness search shares across its walkers.
type search struct {
	a      *Automaton
	guards *guardTable
}

// step is the search's lts.Product step: it steps the state set over the
// structure of the last transition, prunes an empty set and accepts a set
// holding an accepting state.
func (s *search) step(cur map[int]bool, _ *access.Path, last *access.TransitionStructure) (map[int]bool, lts.Move, error) {
	next, err := s.a.step(cur, last, s.guards)
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
