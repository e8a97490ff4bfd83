// Package autom implements Access-automata (A-automata, Definition 4.3):
// finite-state automata over access paths whose transition guards are
// first-order sentences ψ− ∧ ψ+ about a single path transition — ψ− a
// positive boolean combination of negated FO∃+ sentences not mentioning
// IsBind, ψ+ an FO∃+ sentence. The package provides run semantics, language
// emptiness (Theorem 4.6) through two engines — a direct bounded product
// search, and the paper's pipeline via progressive decomposition (Lemma
// 4.9) and reduction to Datalog containment (Lemma 4.10) — plus the
// compilation of AccLTL+ formulas into A-automata (Lemma 4.5).
package autom

import (
	"fmt"
	"sort"
	"strings"

	"accltl/internal/access"
	"accltl/internal/fo"
	"accltl/internal/schema"
)

// Transition is one guarded automaton transition.
type Transition struct {
	From  int
	Guard fo.Formula
	To    int
}

// String renders the transition.
func (t Transition) String() string {
	return fmt.Sprintf("%d --[%s]--> %d", t.From, t.Guard, t.To)
}

// Automaton is an A-automaton over a schema: states 0..NumStates-1, an
// initial state, accepting states, and guarded transitions.
type Automaton struct {
	Schema      *schema.Schema
	NumStates   int
	Init        int
	Accepting   map[int]bool
	Transitions []Transition
	// AcceptEmpty controls whether the empty access path is in the
	// language (the run-based definition degenerates on empty paths; we
	// take "initial state is accepting" as the convention when true).
	AcceptEmpty bool
}

// New returns an automaton skeleton with n states.
func New(sch *schema.Schema, n, init int) *Automaton {
	return &Automaton{Schema: sch, NumStates: n, Init: init, Accepting: make(map[int]bool)}
}

// AddTransition validates the guard shape (Definition 4.3) and appends.
func (a *Automaton) AddTransition(from int, guard fo.Formula, to int) error {
	if from < 0 || from >= a.NumStates || to < 0 || to >= a.NumStates {
		return fmt.Errorf("autom: transition %d->%d out of range [0,%d)", from, to, a.NumStates)
	}
	if err := fo.CheckGuard(guard); err != nil {
		return err
	}
	a.Transitions = append(a.Transitions, Transition{From: from, Guard: guard, To: to})
	return nil
}

// MustAddTransition is AddTransition that panics on error.
func (a *Automaton) MustAddTransition(from int, guard fo.Formula, to int) {
	if err := a.AddTransition(from, guard, to); err != nil {
		panic(err)
	}
}

// SetAccepting marks states accepting.
func (a *Automaton) SetAccepting(states ...int) {
	for _, s := range states {
		a.Accepting[s] = true
	}
}

// Validate checks structural sanity.
func (a *Automaton) Validate() error {
	if a.Schema == nil {
		return fmt.Errorf("autom: automaton without schema")
	}
	if a.Init < 0 || a.Init >= a.NumStates {
		return fmt.Errorf("autom: initial state %d out of range", a.Init)
	}
	if len(a.Accepting) == 0 && !a.AcceptEmpty {
		return fmt.Errorf("autom: no accepting states")
	}
	for s := range a.Accepting {
		if s < 0 || s >= a.NumStates {
			return fmt.Errorf("autom: accepting state %d out of range", s)
		}
	}
	for _, t := range a.Transitions {
		if t.From < 0 || t.From >= a.NumStates || t.To < 0 || t.To >= a.NumStates {
			return fmt.Errorf("autom: transition %s out of range", t)
		}
	}
	return nil
}

// String renders the automaton.
func (a *Automaton) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A-automaton(states=%d, init=%d, accepting=%v)\n", a.NumStates, a.Init, a.acceptList())
	for _, t := range a.Transitions {
		b.WriteString("  " + t.String() + "\n")
	}
	return b.String()
}

func (a *Automaton) acceptList() []int {
	out := make([]int, 0, len(a.Accepting))
	for s := range a.Accepting {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Guards returns every distinct guard formula in first-seen order.
func (a *Automaton) Guards() []fo.Formula {
	seen := make(map[string]bool)
	var out []fo.Formula
	for _, t := range a.Transitions {
		k := t.Guard.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, t.Guard)
		}
	}
	return out
}

// StepStates advances a state set over one path transition: the NFA subset
// simulation used both by Accepts and by the emptiness search.
func (a *Automaton) StepStates(states map[int]bool, st fo.Structure) (map[int]bool, error) {
	return a.step(states, st, a.prepareGuards())
}

// guardTable is an automaton's guards prepared for repeated evaluation:
// guards[k] is the k-th distinct guard (errs[k] its preparation error, if
// any), and of[i] is the index of the guard of Transitions[i]. A search
// prepares its automaton's table once; every step then evaluates each
// distinct guard at most once, without rendering or re-preparing it. A
// guardTable is read-only after construction, so concurrent walkers share
// it.
type guardTable struct {
	guards []*fo.Prepared
	errs   []error
	of     []int
}

func (a *Automaton) prepareGuards() *guardTable {
	t := &guardTable{of: make([]int, len(a.Transitions))}
	index := make(map[string]int)
	for i, tr := range a.Transitions {
		key := tr.Guard.String()
		g, ok := index[key]
		if !ok {
			g = len(t.guards)
			index[key] = g
			p, err := fo.Prepare(tr.Guard)
			t.guards = append(t.guards, p)
			t.errs = append(t.errs, err)
		}
		t.of[i] = g
	}
	return t
}

// step is StepStates over a prepared guard table. A guard that failed to
// prepare is an error only once a transition from a current state needs
// it.
func (a *Automaton) step(states map[int]bool, st fo.Structure, t *guardTable) (map[int]bool, error) {
	next := make(map[int]bool)
	// Guard results are shared across transitions with the same guard:
	// 0 not yet evaluated, 1 holds, -1 fails.
	held := make([]int8, len(t.guards))
	for i, tr := range a.Transitions {
		if !states[tr.From] {
			continue
		}
		g := t.of[i]
		if held[g] == 0 {
			if t.errs[g] != nil {
				return nil, t.errs[g]
			}
			held[g] = -1
			if t.guards[g].Eval(st) {
				held[g] = 1
			}
		}
		if held[g] == 1 {
			next[tr.To] = true
		}
	}
	return next, nil
}

// Accepts reports whether the automaton accepts the access path: some run
// over the path's transitions starts at Init, respects the guards, and
// ends accepting.
func (a *Automaton) Accepts(p *access.Path) (bool, error) {
	if err := a.Validate(); err != nil {
		return false, err
	}
	if p.Len() == 0 {
		return a.AcceptEmpty && a.Accepting[a.Init], nil
	}
	ts, err := p.Transitions(nil)
	if err != nil {
		return false, err
	}
	guards := a.prepareGuards()
	cur := map[int]bool{a.Init: true}
	for _, t := range ts {
		cur, err = a.step(cur, access.StructureOf(t), guards)
		if err != nil {
			return false, err
		}
		if len(cur) == 0 {
			return false, nil
		}
	}
	for s := range cur {
		if a.Accepting[s] {
			return true, nil
		}
	}
	return false, nil
}

// Union returns an automaton accepting L(a) ∪ L(b) over the same schema.
// A fresh initial state branches into disjoint copies: transitions leaving
// either original initial state are replicated from the fresh one.
func Union(a, b *Automaton) (*Automaton, error) {
	if a.Schema != b.Schema {
		return nil, fmt.Errorf("autom: union across schemas")
	}
	u := New(a.Schema, a.NumStates+b.NumStates+1, a.NumStates+b.NumStates)
	offB := a.NumStates
	for _, t := range a.Transitions {
		u.Transitions = append(u.Transitions, t)
		if t.From == a.Init {
			u.Transitions = append(u.Transitions, Transition{From: u.Init, Guard: t.Guard, To: t.To})
		}
	}
	for _, t := range b.Transitions {
		u.Transitions = append(u.Transitions, Transition{From: t.From + offB, Guard: t.Guard, To: t.To + offB})
		if t.From == b.Init {
			u.Transitions = append(u.Transitions, Transition{From: u.Init, Guard: t.Guard, To: t.To + offB})
		}
	}
	for s := range a.Accepting {
		u.Accepting[s] = true
	}
	for s := range b.Accepting {
		u.Accepting[s+offB] = true
	}
	u.AcceptEmpty = (a.AcceptEmpty && a.Accepting[a.Init]) || (b.AcceptEmpty && b.Accepting[b.Init])
	if u.AcceptEmpty {
		u.Accepting[u.Init] = true
	}
	return u, nil
}

// Intersect returns the product automaton accepting L(a) ∩ L(b).
func Intersect(a, b *Automaton) (*Automaton, error) {
	if a.Schema != b.Schema {
		return nil, fmt.Errorf("autom: intersection across schemas")
	}
	n := a.NumStates * b.NumStates
	idx := func(x, y int) int { return x*b.NumStates + y }
	p := New(a.Schema, n, idx(a.Init, b.Init))
	for _, ta := range a.Transitions {
		for _, tb := range b.Transitions {
			guard := fo.Conj(ta.Guard, tb.Guard)
			p.Transitions = append(p.Transitions, Transition{
				From: idx(ta.From, tb.From), Guard: guard, To: idx(ta.To, tb.To),
			})
		}
	}
	for sa := range a.Accepting {
		for sb := range b.Accepting {
			p.Accepting[idx(sa, sb)] = true
		}
	}
	p.AcceptEmpty = a.AcceptEmpty && b.AcceptEmpty
	return p, nil
}
