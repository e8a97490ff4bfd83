package lts

// The product search: a bounded walk over the product of a schema's
// access-path LTS with a finite control. The AccLTL solver's control is an
// LTL obligation progressed over the letters of the embedded sentences
// (Theorems 4.12–4.14); the emptiness check's control is the state set of
// an A-automaton (Theorem 4.6). Both decide their question the same way:
// walk the root shards of a plan, step the control over every prefix's last
// transition, stop at an accepting prefix, and prune dead controls and
// (configuration, control) pairs already committed to with as much depth
// budget. The walk is written here once; each engine supplies its control.

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"accltl/internal/access"
	"accltl/internal/instance"
	"accltl/internal/schema"
)

// Move is what a product search does with a prefix once its control has
// stepped over the prefix's last transition.
type Move int

const (
	// Expand searches the prefix's extensions.
	Expand Move = iota
	// Accept reports the prefix as a witness and stops the search.
	Accept
	// Prune drops the prefix's extensions: no extension can be accepted.
	Prune
)

// ProductKey is a product-search node as its dominance memo sees it: the
// configuration, by its incremental Hash, and the engine's key for the
// control state.
type ProductKey[C comparable] struct {
	conf instance.Hash
	ctl  C
}

// NewProductMemo builds an empty dominance memo for a product search,
// striped on the configuration hash, so walkers exploring overlapping
// configuration spaces land on the same stripes and prune against each
// other's work.
func NewProductMemo[C comparable]() *DominanceMemo[ProductKey[C]] {
	return NewDominanceMemo(func(k ProductKey[C]) uint64 { return k.conf.A })
}

// Product is one product search: an engine's control, the dominance memo
// the search prunes against, and the state of the search while it runs.
// A Product runs one Search.
type Product[S any, C comparable] struct {
	// Init is the control state at the root prefix.
	Init S
	// Step moves the control from cur over last, the structure M(t) of the
	// last transition t of p, in the Sch_0-Acc vocabulary when ZeroAcc is
	// set. Walkers call it concurrently. last is the walker's own, rewritten
	// at every prefix: Step must not retain it.
	Step func(cur S, p *access.Path, last *access.TransitionStructure) (S, Move, error)
	// ZeroAcc selects the vocabulary of the structure Step receives.
	ZeroAcc bool
	// Key, when non-nil, keys an expanded prefix's control in Memo: whether
	// some extension is accepted depends only on the configuration and the
	// control, so a prefix whose pair was committed to with at least its
	// remaining depth budget is pruned. Nil turns the memo off, for
	// searches whose future also depends on the history.
	Key func(S) C
	// Memo is the dominance memo, and Depth the depth bound: a prefix of
	// length n commits Depth-n. The memo may outlive the search (the next
	// round of a budget-sliced check prunes against it), so the search
	// removes the commitments of walks that were cut short before it
	// returns: a surviving entry always stands for a subtree some search
	// finished (see scrub).
	Memo  *DominanceMemo[ProductKey[C]]
	Depth int

	wit     WitnessBox[*access.Path]
	mu      sync.Mutex
	walkers []*productWalker[S, C] // for scrub
}

// Search runs the product search over plan with parallelism walkers on the
// shards subset, the arguments Plan.Explore takes. It returns the report
// and the witness of the lowest shard that offered one. A witness settles
// the search even when a walker failed before the early-cancel broadcast
// landed, so the error is then nil; callers check the witness against
// their direct semantics.
func (pr *Product[S, C]) Search(ctx context.Context, plan *Plan, parallelism int, shards []int) (Report, *access.Path, error) {
	pr.Memo.Widen(parallelism)
	root := func(*access.Path, *instance.Instance, *instance.Instance) (bool, error) { return true, nil }
	rep, err := plan.Explore(ctx, parallelism, shards, root, pr.walker)
	pr.scrub(rep.CompletedShards)
	if w, found := pr.wit.Take(); found {
		return rep, w, nil
	}
	return rep, nil, err
}

// walker starts one walker: its control stack holds Init at the root.
func (pr *Product[S, C]) walker() ShardVisitor {
	w := &productWalker[S, C]{pr: pr, shard: -1}
	w.last.ZeroAcc = pr.ZeroAcc
	w.stack = append(w.buf[:0], productFrame[S, C]{state: pr.Init})
	pr.mu.Lock()
	pr.walkers = append(pr.walkers, w)
	pr.mu.Unlock()
	return w.visit
}

// scrub removes from the memo the commitments of the walkers whose last
// shard did not complete. The memo records pre-order, so the frames still
// on such a walker's stack are subtrees that were entered but never
// finished. A walker stops at its first unfinished shard, so no other shard
// needs scrubbing; frames of finished siblings left on the stack by lazy
// pops go too, which only costs pruning. The walkers have joined, so the
// stacks are quiescent.
func (pr *Product[S, C]) scrub(completed []int) {
	for _, w := range pr.walkers {
		if _, done := slices.BinarySearch(completed, w.shard); done {
			continue
		}
		for _, fr := range w.stack {
			if fr.recorded {
				pr.Memo.Remove(fr.key)
			}
		}
	}
}

// productWalker is one walker's control stack, and the shard it is walking.
// The stack mirrors the walker's depth-first prefix chain. A walker runs
// its shards one after another, each from depth 1, so popping to the
// visited depth also drops the previous shard's frames.
type productWalker[S any, C comparable] struct {
	pr    *Product[S, C]
	shard int
	stack []productFrame[S, C]
	// last is the structure of the visited prefix's last transition, which
	// Step reads; one per walker, so no prefix allocates it.
	last access.TransitionStructure
	// buf backs the stack until a walk goes deeper than it.
	buf [8]productFrame[S, C]
}

// productFrame is the control after a prefix of length len, with the memo
// entry its push recorded, if any.
type productFrame[S any, C comparable] struct {
	state    S
	len      int
	key      ProductKey[C]
	recorded bool
}

// visit is the walker's ShardVisitor.
func (w *productWalker[S, C]) visit(shard int, p *access.Path, pre, conf *instance.Instance) (bool, error) {
	pr := w.pr
	w.shard = shard
	for len(w.stack) > 0 && w.stack[len(w.stack)-1].len >= p.Len() {
		w.stack = w.stack[:len(w.stack)-1]
	}
	if len(w.stack) == 0 {
		return false, fmt.Errorf("lts: product search control stack underflow")
	}
	// The last transition is assembled from the configurations the explorer
	// maintains incrementally: no per-node rebuild of the path's transitions.
	w.last.T = access.Transition{Before: pre, Access: p.Step(p.Len() - 1).Access, After: conf}
	next, move, err := pr.Step(w.stack[len(w.stack)-1].state, p, &w.last)
	if err != nil || move == Prune {
		return false, err
	}
	if move == Accept {
		pr.wit.Offer(shard, p.Clone())
		return false, ErrStop
	}
	fr := productFrame[S, C]{state: next, len: p.Len()}
	if pr.Key != nil {
		fr.key = ProductKey[C]{conf: conf.Hash(), ctl: pr.Key(next)}
		if pr.Memo.DominatedOrRecord(fr.key, pr.Depth-p.Len()) {
			return false, nil
		}
		fr.recorded = true
	}
	w.stack = append(w.stack, fr)
	return true, nil
}

// ProductOptions completes an engine's exploration options for a product
// search of sch: the universe gains the initial instance, a zero MaxPaths
// becomes the 2^22 default, and o.ExtraBindingValues (the engine's
// constants, appended to) gains one fresh value per datatype some method
// takes as input, so methods can fire even when the universe has no value
// of the type they need.
func ProductOptions(sch *schema.Schema, o Options) (Options, error) {
	if o.Initial != nil {
		u := o.Universe.Clone()
		if err := u.UnionWith(o.Initial); err != nil {
			return Options{}, err
		}
		o.Universe = u
	}
	if o.MaxPaths == 0 {
		o.MaxPaths = 1 << 22
	}
	need := make(map[schema.Type]bool)
	for _, m := range sch.Methods() {
		for _, ty := range m.InputTypes() {
			need[ty] = true
		}
	}
	if need[schema.TypeInt] {
		o.ExtraBindingValues = append(o.ExtraBindingValues, instance.Int(987654321))
	}
	if need[schema.TypeString] {
		o.ExtraBindingValues = append(o.ExtraBindingValues, instance.Str("_freshbind"))
	}
	if need[schema.TypeBool] {
		o.ExtraBindingValues = append(o.ExtraBindingValues, instance.Bool(true), instance.Bool(false))
	}
	return o, nil
}
