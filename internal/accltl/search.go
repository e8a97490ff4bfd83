package accltl

// The bounded search's visitor and tables. The search runs as one or more
// walkers over the root shards of the search space (lts.Plan.Explore); each
// walker has its own spine, an obligation stack (obligations mirror the DFS
// prefix chain, so they can never be shared), while the three tables that
// make walkers share work instead of duplicating it are global:
//
//   - the obligation interner (mutex; hit once per *distinct* obligation);
//   - the progression cache (obligation id, letter bitmask) → next, striped;
//   - the (configuration Hash, obligation id) → remaining-depth dominance
//     memo, striped by the hash so walkers exploring overlapping
//     configuration spaces prune against each other's work.
//
// Progression results are cached per (obligation id, letter bitmask), so on
// the hot path a visited node neither re-runs ltl.Step nor re-renders a
// formula string — String() happens once per *distinct* obligation, not
// once per node.

import (
	"fmt"
	"sync"

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

// progStripe is one lock stripe of the shared progression cache. Its map
// is made on first use.
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

// progTable is the progression cache, striped like the dominance memo
// and widened with it (see lts.DominanceMemo.Widen).
type progTable struct {
	stripes []progStripe
}

func (t *progTable) widen(walkers int) {
	n := lts.Stripes(walkers)
	if n <= len(t.stripes) {
		return
	}
	old := t.stripes
	t.stripes = make([]progStripe, n)
	for i := range old {
		for k, v := range old[i].m {
			t.put(k, v)
		}
	}
}

func (t *progTable) stripe(k progKey) *progStripe {
	h := uint64(k.ob)*0x9e3779b97f4a7c15 ^ k.letter*0xbf58476d1ce4e5b9
	return &t.stripes[(h>>33)&uint64(len(t.stripes)-1)]
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
	if st.m == nil {
		st.m = make(map[progKey]progVal)
	}
	st.m[k] = v
	st.mu.Unlock()
}

// solverMemoKey keys the shared (configuration, obligation) dominance memo
// (lts.DominanceMemo, striped on the configuration hash). The
// configuration side is the instance's O(1) incremental Hash, the
// obligation side its interned id — no canonical string is rebuilt per
// node.
type solverMemoKey struct {
	conf instance.Hash
	ob   int
}

// obState is the obligation of one active prefix, keyed by path length.
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

// SolverMemo carries the solver's shared tables across calls, so a
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

// NewSolverMemo builds an empty reusable table set. Its tables have one
// lock stripe until a search with more walkers widens them (see widen).
func NewSolverMemo() *SolverMemo {
	return &SolverMemo{
		in:   newObInterner(),
		prog: &progTable{stripes: make([]progStripe, 1)},
		memo: lts.NewDominanceMemo(func(k solverMemoKey) uint64 { return k.conf.A }),
	}
}

// widen stripes the tables for a search of the given number of walkers,
// before its walkers start (see lts.Stripes).
func (m *SolverMemo) widen(walkers int) {
	m.prog.widen(walkers)
	m.memo.Widen(walkers)
}

// search is the state one bounded search shares across its shard walks.
type search struct {
	f       Formula
	voc     Vocabulary
	opts    *SolveOptions
	letters []letterEntry
	// useMask selects the bitmask letter the progression cache keys on: one
	// bit per sentence, so only for ≤ 64 sentences; larger formulas step on
	// the map letter directly (still correct, just per-node work).
	useMask bool
	depth   int
	tables  *SolverMemo
	wit     lts.WitnessBox[*access.Path]
}

// spine is one walker's live obligation stack, and shard the shard it is
// walking. A walker runs its shards one after another, each from depth 1,
// so popping to the visited depth also drops the previous shard's frames.
// The stack mirrors the DFS prefix chain: when a walk is aborted
// (deadline, cap, early-cancel), the frames still on the stack are exactly
// the subtrees of that shard that were entered but not finished — their
// memo commitments must not survive into a resumed round (see scrub).
// Frames of already-completed sibling subtrees may linger on the stack too
// (pops are lazy); scrubbing those as well is sound, it only costs pruning.
type spine struct {
	s     *search
	shard int
	stack []obState
	// buf backs the stack until a walk goes deeper than it.
	buf [8]obState
}

// visit is the walker's lts.ShardVisitor: it progresses the obligation
// over the letter of the path's last transition, reports an accepted prefix
// as a witness, and prunes dead obligations and dominated (configuration,
// obligation) pairs.
func (sp *spine) visit(shard int, p *access.Path, pre, conf *instance.Instance) (bool, error) {
	s := sp.s
	sp.shard = shard
	// Pop stale obligations (DFS backtracked, or a new shard began).
	for len(sp.stack) > 0 && sp.stack[len(sp.stack)-1].len >= p.Len() {
		sp.stack = sp.stack[:len(sp.stack)-1]
	}
	if len(sp.stack) == 0 {
		return false, fmt.Errorf("accltl: obligation stack underflow")
	}
	top := sp.stack[len(sp.stack)-1]
	// Evaluate the letter on the last transition only: the explorer
	// maintains the pre/post configurations incrementally, so no per-node
	// materialization of the whole path's transitions happens here.
	last := access.Transition{Before: pre, Access: p.Step(p.Len() - 1).Access, After: conf}
	var next ltl.Formula
	var nextID int
	var accept bool
	if s.useMask {
		mask := evalLetterMask(s.letters, last, s.voc)
		pk := progKey{ob: top.id, letter: mask}
		pv, ok := s.tables.prog.get(pk)
		if !ok {
			n, acc := ltl.Step(top.ob, letterFromMask(s.letters, mask))
			pv.nextID, pv.next = s.tables.in.intern(n)
			pv.accept = acc
			s.tables.prog.put(pk, pv)
		}
		next, nextID, accept = pv.next, pv.nextID, pv.accept
	} else {
		var n ltl.Formula
		n, accept = ltl.Step(top.ob, evalLetter(s.letters, last, s.voc))
		nextID, next = s.tables.in.intern(n)
	}
	if accept {
		s.wit.Offer(sp.shard, p.Clone())
		return false, lts.ErrStop
	}
	if s.opts.DisableLTLPruning {
		// Ablation: ignore the dead-obligation signal; re-check the whole
		// formula directly at every prefix instead (this is the one place
		// the full transition list is still materialized — deliberately, it
		// is the slow baseline).
		ts, err := p.Transitions(s.opts.Initial)
		if err != nil {
			return false, err
		}
		ok, err := Satisfied(s.f, ts, s.voc)
		if err != nil {
			return false, err
		}
		if ok {
			s.wit.Offer(sp.shard, p.Clone())
			return false, lts.ErrStop
		}
		sp.stack = append(sp.stack, obState{ob: next, id: nextID, len: p.Len()})
		return true, nil
	}
	if t, isT := next.(ltl.Truth); isT && !bool(t) {
		return false, nil // dead obligation: prune
	}
	// Memoization: satisfiability from a node depends only on the revealed
	// configuration and the residual obligation, not on the history, so
	// prune when the same (config, obligation) pair was already committed
	// to with at least as much depth budget remaining. Under idempotence
	// the future also depends on the responses seen so far, so the memo
	// would be unsound there.
	var mk solverMemoKey
	recorded := false
	if !s.opts.IdempotentOnly {
		mk = solverMemoKey{conf: conf.Hash(), ob: nextID}
		if s.tables.memo.DominatedOrRecord(mk, s.depth-p.Len()) {
			return false, nil // dominated: already searched from here
		}
		recorded = true
	}
	sp.stack = append(sp.stack, obState{ob: next, id: nextID, len: p.Len(), key: mk, recorded: recorded})
	return true, nil
}

// scrub removes from a persistent memo the commitments of the walkers
// whose last shard did not complete: frames still on their stacks are
// subtrees of that shard that were entered but never finished, and their
// pre-order commitments must not prune a resumed round. A walker stops at
// its first unfinished shard, so no other shard needs scrubbing. The
// walkers have joined, so the stacks are quiescent.
func scrub(memo *lts.DominanceMemo[solverMemoKey], spines []*spine, completed []int) {
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
