package accltl

// Parallel bounded-model search: the sharded counterpart of the serial loop
// in boundedSearch. Each root shard gets its own visitor with its own
// obligation stack (obligations mirror the DFS prefix chain, so they can
// never be shared), while the three tables that make walkers share work
// instead of duplicating it are global:
//
//   - the obligation interner (mutex; hit once per *distinct* obligation);
//   - the progression cache (obligation id, letter bitmask) → next, striped;
//   - the (configuration Hash, obligation id) → remaining-depth memo,
//     striped by the hash so walkers exploring overlapping configuration
//     spaces prune against each other's work.
//
// Sharing the memo is sound for exactly the reason the serial memo is: an
// entry means "a search from this (configuration, obligation) with at least
// this much depth budget was committed to", and verdicts are only produced
// by searches that ran to completion (errors and context expiries surface
// as errors, caps surface as Truncated). It does make PathsExplored
// schedule-dependent — whether a walker reaches a node before or after the
// dominating entry lands decides whether the node expands — which is why
// only verdicts, not path counts, are pinned across W.

import (
	"fmt"
	"sync"

	"accltl/accesscheck/cachetier"
	"accltl/internal/access"
	"accltl/internal/instance"
	"accltl/internal/ltl"
	"accltl/internal/lts"
)

// obInterner assigns stable small ids to distinct obligations across all
// walkers; ids key the progression cache and the memo table, so they must
// be global. Interning happens once per distinct obligation (progression
// cache hits skip it entirely), so one mutex does not contend.
type obInterner struct {
	mu   sync.Mutex
	ids  map[string]int
	list []ltl.Formula
}

func newObInterner() *obInterner {
	return &obInterner{ids: make(map[string]int)}
}

// intern returns the id and canonical representative of f.
func (in *obInterner) intern(f ltl.Formula) (int, ltl.Formula) {
	s := f.String()
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[s]; ok {
		return id, in.list[id]
	}
	id := len(in.list)
	in.ids[s] = id
	in.list = append(in.list, f)
	return id, f
}

const solverStripes = 64

// progStripe is one lock stripe of the shared progression cache.
type progStripe struct {
	mu sync.Mutex
	m  map[progKey]progVal
}

type progKey struct {
	ob     int
	letter uint64
}

type progVal struct {
	next   ltl.Formula
	nextID int
	accept bool
}

type progTable struct {
	stripes [solverStripes]progStripe
}

func newProgTable() *progTable {
	t := &progTable{}
	for i := range t.stripes {
		t.stripes[i].m = make(map[progKey]progVal)
	}
	return t
}

func (t *progTable) stripe(k progKey) *progStripe {
	h := uint64(k.ob)*0x9e3779b97f4a7c15 ^ k.letter*0xbf58476d1ce4e5b9
	return &t.stripes[(h>>33)&(solverStripes-1)]
}

func (t *progTable) get(k progKey) (progVal, bool) {
	st := t.stripe(k)
	st.mu.Lock()
	v, ok := st.m[k]
	st.mu.Unlock()
	return v, ok
}

func (t *progTable) put(k progKey, v progVal) {
	st := t.stripe(k)
	st.mu.Lock()
	st.m[k] = v
	st.mu.Unlock()
}

// solverMemoKey keys the shared (configuration, obligation) dominance memo
// (lts.DominanceMemo, striped on the configuration hash).
type solverMemoKey struct {
	conf instance.Hash
	ob   int
}

// obState mirrors the serial solver's per-prefix obligation bookkeeping.
// key/recorded remember the dominance-memo entry the push committed, so a
// persistent-memo search can scrub the commitments of a walk that was cut
// short (see SolverMemo).
type obState struct {
	ob       ltl.Formula
	id       int
	len      int
	key      solverMemoKey
	recorded bool
}

// solverSpine is one shard walk's live obligation stack, registered so the
// post-search sweep can reach it. The stack mirrors the DFS prefix chain:
// when a walk is aborted (deadline, cap, early-cancel), the frames still on
// the stack are exactly the subtrees that were entered but not finished —
// their memo commitments must not survive into a resumed round. Frames of
// already-completed sibling subtrees may linger on the stack too (pops are
// lazy); scrubbing those as well is sound, it only costs pruning.
type solverSpine struct {
	shard int
	stack []obState
}

// SolverMemo carries the sharded solver's shared tables across calls, so a
// budget-sliced search resumes warm: the obligation interner and progression
// cache are pure (always reusable), and the dominance memo is kept sound
// across rounds by scrubbing unfinished walks' commitments after every
// search (an entry that survives means some round finished that subtree
// without finding a witness, so pruning against it later is sound). It
// also carries the search setup, so a check plans its partition and runs
// every round over one witness universe and one root enumeration. A memo
// is tied to one (formula, options) pair; callers key it accordingly.
type SolverMemo struct {
	in    *obInterner
	prog  *progTable
	memo  *lts.DominanceMemo[solverMemoKey]
	setup lts.Setup
}

// NewSolverMemo builds an empty reusable table set.
func NewSolverMemo() *SolverMemo {
	return &SolverMemo{
		in:   newObInterner(),
		prog: newProgTable(),
		memo: lts.NewDominanceMemo[solverMemoKey](func(k solverMemoKey) uint64 { return k.conf.A }),
	}
}

// NewSolverMemoNeg is NewSolverMemo with the dominance memo fronted by a
// shared Bloom negative cache (nil = plain memo). The filter is typically
// process-wide and long-lived while the memo is per search or per
// checkpoint: filter bits from other searches are only false positives,
// which route to the authoritative memo and never change a verdict.
func NewSolverMemoNeg(neg *cachetier.NegativeCache) *SolverMemo {
	m := NewSolverMemo()
	if neg != nil {
		m.memo.WithNegativeCache(neg, solverNegHash)
	}
	return m
}

// solverNegHash derives the negative cache's two 64-bit probe lanes from
// a memo key: the configuration's incremental instance hash, each lane
// mixed with the interned obligation id so distinct obligations of one
// configuration probe distinct bits.
func solverNegHash(k solverMemoKey) (uint64, uint64) {
	ob := (uint64(k.ob) + 1) * 0x9e3779b97f4a7c15
	return k.conf.A ^ ob, k.conf.B ^ (ob<<32 | ob>>32)
}

// parallelBoundedSearch runs the sharded search over plan, the root
// partition of the search's setup, with opts.Parallelism walkers over the
// opts.Shards subset. skeleton is already in NNF; letters is the
// sentence→proposition table.
func parallelBoundedSearch(f Formula, opts SolveOptions, voc Vocabulary, skeleton ltl.Formula, letters []letterEntry, plan *lts.Plan, depth int) (SolveResult, error) {
	res := SolveResult{Depth: depth}
	useMask := len(letters) <= 64
	tables := opts.Memo
	persist := tables != nil
	if tables == nil {
		tables = NewSolverMemoNeg(opts.Negative)
	}
	in, prog, memo := tables.in, tables.prog, tables.memo
	wit := &lts.WitnessBox[*access.Path]{}
	skelID, skeleton := in.intern(skeleton)

	// Spine registry for persistent memos: every shard walk's stack is kept
	// reachable so unfinished walks can be scrubbed after the search joins.
	var (
		spineMu sync.Mutex
		spines  []*solverSpine
	)

	factory := func(shard int) lts.Visitor {
		// Per-shard obligation stack: the shard's DFS starts at depth 1, so
		// the root obligation (the whole skeleton, length 0) seeds it.
		//
		// LOCKSTEP: the visitor body below is the serial boundedSearch
		// visitor with the tables swapped for their concurrent twins. The
		// serial body stays separate on purpose — it must remain bit-for-bit
		// the pre-parallelism engine (alloc pins, golden traces) with no
		// table indirection in its hot loop — so any change to the
		// progression / accept / prune / memo sequence in solver.go must be
		// mirrored here, and vice versa; the W-grid equivalence tests are
		// the tripwire.
		sp := &solverSpine{shard: shard, stack: []obState{{ob: skeleton, id: skelID, len: 0}}}
		if persist {
			spineMu.Lock()
			spines = append(spines, sp)
			spineMu.Unlock()
		}
		return func(p *access.Path, pre, conf *instance.Instance) (bool, error) {
			stack := sp.stack
			defer func() { sp.stack = stack }()
			for len(stack) > 0 && stack[len(stack)-1].len >= p.Len() {
				stack = stack[:len(stack)-1]
			}
			if len(stack) == 0 {
				return false, fmt.Errorf("accltl: obligation stack underflow")
			}
			cur := stack[len(stack)-1].ob
			curID := stack[len(stack)-1].id
			last := access.Transition{Before: pre, Access: p.Step(p.Len() - 1).Access, After: conf}
			var next ltl.Formula
			var nextID int
			var accept bool
			if useMask {
				mask := evalLetterMask(letters, last, voc)
				pk := progKey{ob: curID, letter: mask}
				pv, ok := prog.get(pk)
				if !ok {
					n, acc := ltl.Step(cur, letterFromMask(letters, mask))
					pv.nextID, pv.next = in.intern(n)
					pv.accept = acc
					prog.put(pk, pv)
				}
				next, nextID, accept = pv.next, pv.nextID, pv.accept
			} else {
				var n ltl.Formula
				n, accept = ltl.Step(cur, evalLetter(letters, last, voc))
				nextID, next = in.intern(n)
			}
			if accept {
				wit.Offer(shard, p.Clone())
				return false, lts.ErrStop
			}
			if opts.DisableLTLPruning {
				// Ablation parity with the serial engine: re-check the whole
				// formula directly at every prefix.
				ts, err := p.Transitions(opts.Initial)
				if err != nil {
					return false, err
				}
				ok, err := Satisfied(f, ts, voc)
				if err != nil {
					return false, err
				}
				if ok {
					wit.Offer(shard, p.Clone())
					return false, lts.ErrStop
				}
				stack = append(stack, obState{ob: next, id: nextID, len: p.Len()})
				return true, nil
			}
			if t, isT := next.(ltl.Truth); isT && !bool(t) {
				return false, nil // dead obligation: prune
			}
			// Under idempotence the future also depends on the responses seen
			// so far, so (config, obligation) memoization would be unsound —
			// exactly as in the serial engine.
			var mk solverMemoKey
			recorded := false
			if !opts.IdempotentOnly {
				mk = solverMemoKey{conf: conf.Hash(), ob: nextID}
				if memo.DominatedOrRecord(mk, depth-p.Len()) {
					return false, nil
				}
				recorded = true
			}
			stack = append(stack, obState{ob: next, id: nextID, len: p.Len(), key: mk, recorded: recorded})
			return true, nil
		}
	}
	root := func(p *access.Path, pre, conf *instance.Instance) (bool, error) { return true, nil }

	rep, searchErr := plan.Explore(opts.Context, opts.Parallelism, opts.Shards, root, factory)
	res.PathsExplored = rep.Paths
	res.CompletedShards = rep.CompletedShards
	res.TotalShards = rep.TotalShards
	if persist {
		// Scrub the persistent memo before anything is returned: frames
		// still on the stack of a shard walk that did not complete are
		// subtrees that were entered but never finished, and their pre-order
		// commitments must not prune a resumed round. ExploreSharded has
		// joined all walkers, so the stacks are quiescent.
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
		// A found witness settles the question even when another walker
		// errored in the race window before the early-cancel broadcast
		// landed (the same resolution the branching checker uses): the
		// witness is validated against the direct semantics below, so the
		// verdict it carries does not depend on the failed walker's search.
		// Without this, satisfiable-vs-error would be schedule-dependent.
		res.Satisfiable = true
		res.Witness = w
		ts, err := res.Witness.Transitions(opts.Initial)
		if err != nil {
			return res, err
		}
		ok, err := Satisfied(f, ts, voc)
		if err != nil {
			return res, err
		}
		if !ok {
			return res, fmt.Errorf("accltl: internal error: witness rejected by direct semantics")
		}
		return res, nil
	}
	if searchErr != nil {
		return res, searchErr
	}
	res.Truncated = rep.PathsCapped
	res.ResponsesCapped = rep.ResponsesCapped
	return res, nil
}
