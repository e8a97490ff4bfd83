package accltl

// The bounded search's control and tables. The search is an lts.Product
// search whose control is the obligation: the residual LTL skeleton,
// progressed over the letter the embedded sentences spell on each
// transition. The walk itself (walkers, control stacks, dominance memo,
// scrub of unfinished walks, witness) is lts's; the two tables below are
// the solver's own, shared by all walkers:
//
//   - the obligation interner (mutex; hit once per *distinct* obligation);
//   - the progression cache (obligation id, letter bitmask) → next, striped.
//
// Progression results are cached per (obligation id, letter bitmask), so on
// the hot path a visited node neither re-runs ltl.Step nor re-renders a
// formula string — String() happens once per *distinct* obligation, not
// once per node.

import (
	"sync"

	"accltl/internal/access"
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

// intern returns f's canonical representative with its id.
func (in *obInterner) intern(f ltl.Formula) obligation {
	s := f.String()
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[s]; ok {
		return obligation{ob: in.list[id], id: id}
	}
	id := len(in.list)
	in.ids[s] = id
	in.list = append(in.list, f)
	return obligation{ob: f, id: id}
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
	next   obligation
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

// obligation is the search's control: the residual formula of one prefix
// and its interned id, which keys the progression cache and the dominance
// memo.
type obligation struct {
	ob ltl.Formula
	id int
}

// SolverMemo carries the solver's shared tables across calls, so a
// budget-sliced search resumes warm: the obligation interner and progression
// cache are pure (always reusable), and the dominance memo is kept sound
// across rounds by the product search's scrub of unfinished walks (an entry
// that survives means some round finished that subtree without finding a
// witness, so pruning against it later is sound). It also carries the
// search setup, so a check plans its partition and runs every round over
// one witness universe and one root enumeration. A memo is tied to one
// (formula, options) pair; callers key it accordingly.
type SolverMemo struct {
	in    *obInterner
	prog  *progTable
	memo  *lts.DominanceMemo[lts.ProductKey[int]]
	setup lts.Setup
}

// NewSolverMemo builds an empty reusable table set. Its tables have one
// lock stripe until a search with more walkers widens them.
func NewSolverMemo() *SolverMemo {
	return &SolverMemo{
		in:   newObInterner(),
		prog: &progTable{stripes: make([]progStripe, 1)},
		memo: lts.NewProductMemo[int](),
	}
}

// Setup returns the search setup the memo carries.
func (m *SolverMemo) Setup() *lts.Setup { return &m.setup }

// search is the state one bounded search shares across its walkers.
type search struct {
	f       Formula
	voc     Vocabulary
	opts    *SolveOptions
	letters []letterEntry
	// useMask selects the bitmask letter the progression cache keys on: one
	// bit per sentence, so only for ≤ 64 sentences; larger formulas step on
	// the map letter directly (still correct, just per-node work).
	useMask bool
	tables  *SolverMemo
}

// step is the search's lts.Product step: it progresses the obligation over
// the letter of the last transition, accepts when progression does, and
// prunes a dead (false) obligation.
func (s *search) step(top obligation, p *access.Path, last *access.TransitionStructure) (obligation, lts.Move, error) {
	var next obligation
	var accept bool
	if s.useMask {
		mask := evalLetterMask(s.letters, last)
		pk := progKey{ob: top.id, letter: mask}
		pv, ok := s.tables.prog.get(pk)
		if !ok {
			n, acc := ltl.Step(top.ob, letterFromMask(s.letters, mask))
			pv = progVal{next: s.tables.in.intern(n), accept: acc}
			s.tables.prog.put(pk, pv)
		}
		next, accept = pv.next, pv.accept
	} else {
		var n ltl.Formula
		n, accept = ltl.Step(top.ob, evalLetter(s.letters, last))
		next = s.tables.in.intern(n)
	}
	if accept {
		return next, lts.Accept, nil
	}
	if s.opts.DisableLTLPruning {
		// Ablation: ignore the dead-obligation signal; re-check the whole
		// formula directly at every prefix instead (this is the one place
		// the full transition list is still materialized — deliberately, it
		// is the slow baseline).
		ts, err := p.Transitions(s.opts.Initial)
		if err != nil {
			return next, lts.Prune, err
		}
		if ok, err := Satisfied(s.f, ts, s.voc); err != nil || ok {
			return next, lts.Accept, err
		}
		return next, lts.Expand, nil
	}
	if t, isT := next.ob.(ltl.Truth); isT && !bool(t) {
		return next, lts.Prune, nil
	}
	return next, lts.Expand, nil
}
