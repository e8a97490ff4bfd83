package accltl

// The prepared bounded search: its control and tables. The search is an
// lts.Product search whose control is the obligation: the residual LTL
// skeleton, progressed over the letter the embedded sentences spell on each
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
	"context"
	"fmt"
	"sync"

	"accltl/internal/access"
	"accltl/internal/fo"
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

// Prepared is a prepared bounded search: everything a search of one
// formula under one configuration derives from them, derived once — the
// distinct embedded sentences, prepared as the letters the search
// evaluates, the LTL skeleton over them, the depth bound and the plan (the
// exploration options: witness universe, binding pool, caps; the root
// partition) — and the solver's tables (obligation interner, progression
// cache, dominance memo), which every Search on it warms. A search that
// ends early (witness, cap, error) scrubs the commitments of its unfinished
// shard walks before returning (lts.Product), so a later search prunes only
// against subtrees some search finished: the rounds of a budget-sliced
// check run on one Prepared, one after another. Searches of one Prepared
// must not overlap.
type Prepared struct {
	f       Formula
	voc     Vocabulary
	initial *instance.Instance
	// keyed turns the dominance memo on. Satisfiability below a node
	// depends only on the revealed configuration and the obligation, not on
	// the history — except under idempotence, where the responses seen so
	// far constrain the future, so the memo would be unsound there. The
	// pruning ablation runs without it.
	keyed   bool
	ablate  bool // SolveOptions.DisableLTLPruning
	letters []letterEntry
	// useMask selects the bitmask letter the progression cache keys on: one
	// bit per sentence, so only for ≤ 64 sentences; larger formulas step on
	// the map letter directly (still correct, just per-node work).
	useMask bool
	// init is the interned NNF skeleton, the obligation at the root. A
	// formula the skeleton cannot abstract (a past operator) still gets a
	// plan, which ShardPlan reports without gating fragments; its searches
	// fail with skeletonErr.
	init        obligation
	skeletonErr error
	depth       int
	plan        *lts.Plan

	in   *obInterner
	prog *progTable
	memo *lts.DominanceMemo[lts.ProductKey[int]]
}

// Prepare derives the bounded search of f under opts for proc, whose depth
// rule it applies: with opts.MaxDepth zero, ProcX bounds witnesses by the
// X-nesting depth plus one and the other procedures by defaultDepth. It does
// not check f against proc's fragment (Procedure.Admit does). It enumerates
// the root partition under opts.Context; an expired context returns its
// error before any derivation. Parallelism and Shards are the searches'.
func Prepare(proc Procedure, f Formula, opts SolveOptions) (*Prepared, error) {
	if err := preflight(opts); err != nil {
		return nil, err
	}
	// One walk abstracts the temporal skeleton and collects the distinct
	// sentences, each of which becomes a proposition, laid out once with its
	// prepared sentence: the search evaluates the flat letter table instead
	// of re-rendering, re-checking or re-planning any sentence at every
	// visited node.
	abs := newAbstraction()
	skeleton, skeletonErr := abs.abstract(f)
	sentences, props := abs.sentences, abs.order
	if skeletonErr != nil {
		// A past operator has no skeleton, and the walk stopped at it. The
		// plan still covers every sentence (ShardPlan does not gate
		// fragments); the searches fail.
		sentences = Sentences(f)
		props = make([]ltl.Prop, len(sentences))
	}
	if err := checkSentences(sentences); err != nil {
		return nil, err
	}
	p := &Prepared{
		f:           f,
		voc:         FullAcc,
		initial:     opts.Initial,
		keyed:       !opts.IdempotentOnly && !opts.DisableLTLPruning,
		ablate:      opts.DisableLTLPruning,
		letters:     make([]letterEntry, len(sentences)),
		useMask:     len(sentences) <= 64,
		skeletonErr: skeletonErr,
		in:          newObInterner(),
		prog:        &progTable{stripes: make([]progStripe, 1)},
		memo:        lts.NewProductMemo[int](),
	}
	if proc == ProcX || proc == ProcZeroAcc {
		p.voc = ZeroAcc
	}
	for i, s := range sentences {
		prepared, err := fo.Prepare(s)
		if err != nil {
			return nil, err
		}
		p.letters[i] = letterEntry{sentence: prepared, prop: props[i]}
	}
	if skeletonErr == nil {
		p.init = p.in.intern(ltl.NNF(skeleton))
	}
	var err error
	if p.plan, p.depth, err = plan(proc, f, sentences, opts); err != nil {
		return nil, err
	}
	return p, nil
}

// Plan derives the root partition Prepare(proc, f, opts) searches, and
// nothing else: a caller that only plans (a fabric coordinator) prepares no
// letters, skeleton or tables.
func Plan(proc Procedure, f Formula, opts SolveOptions) (*lts.Plan, error) {
	if err := preflight(opts); err != nil {
		return nil, err
	}
	sentences := Sentences(f)
	if err := checkSentences(sentences); err != nil {
		return nil, err
	}
	p, _, err := plan(proc, f, sentences, opts)
	return p, err
}

// preflight is what Prepare and Plan check first: a schema is required, and
// an expired context returns its error before any derivation.
func preflight(opts SolveOptions) error {
	if opts.Schema == nil {
		return fmt.Errorf("accltl: SolveOptions.Schema is required")
	}
	if opts.Context != nil {
		return opts.Context.Err()
	}
	return nil
}

// plan enumerates, under opts.Context, the root partition of a search of f
// whose distinct sentences are sentences, with the depth bound of proc's
// rule, which it returns too.
func plan(proc Procedure, f Formula, sentences []fo.Formula, opts SolveOptions) (*lts.Plan, int, error) {
	if proc == ProcX && opts.MaxDepth == 0 {
		opts.MaxDepth = TemporalDepth(f) + 1
	}
	o, depth, err := searchOptions(f, sentences, opts)
	if err != nil {
		return nil, 0, err
	}
	p, err := lts.NewPlan(opts.Schema, o)
	return p, depth, err
}

// Plan returns the search's root partition.
func (p *Prepared) Plan() *lts.Plan { return p.plan }

// Search runs the search over the shards subset of its plan with
// parallelism walkers (lts.Plan.Explore's arguments: nil shards is the
// whole partition). A context that has already expired returns its error
// before the search loop is entered (lts.Plan.Explore); the walk polls it,
// so an expiry mid-search stops it promptly with that error and a result
// whose CompletedShards and ResponsesCapped say what the search covered. The
// tables are widened for the walker count first, so rounds of one Prepared
// may use different walker counts.
func (p *Prepared) Search(ctx context.Context, parallelism int, shards []int) (SolveResult, error) {
	if p.skeletonErr != nil {
		return SolveResult{}, p.skeletonErr
	}
	p.prog.widen(parallelism)
	pr := &lts.Product[obligation, int]{
		Init:    p.init,
		Step:    p.step,
		ZeroAcc: p.voc == ZeroAcc,
		Memo:    p.memo,
		Depth:   p.depth,
	}
	if p.keyed {
		pr.Key = func(o obligation) int { return o.id }
	}
	rep, witness, err := pr.Search(ctx, p.plan, parallelism, shards)
	return Settle(rep, p.depth, witness, err, p.holds, "accltl: internal error: witness rejected by direct semantics")
}

// holds checks a witness against the direct semantics.
func (p *Prepared) holds(w *access.Path) (bool, error) {
	ts, err := w.Transitions(p.initial)
	if err != nil {
		return false, err
	}
	return Satisfied(p.f, ts, p.voc)
}

// step is the search's lts.Product step: it progresses the obligation over
// the letter of the last transition, accepts when progression does, and
// prunes a dead (false) obligation.
func (s *Prepared) step(top obligation, p *access.Path, last *access.TransitionStructure) (obligation, lts.Move, error) {
	var next obligation
	var accept bool
	if s.useMask {
		mask := evalLetterMask(s.letters, last)
		pk := progKey{ob: top.id, letter: mask}
		pv, ok := s.prog.get(pk)
		if !ok {
			n, acc := ltl.Step(top.ob, letterFromMask(s.letters, mask))
			pv = progVal{next: s.in.intern(n), accept: acc}
			s.prog.put(pk, pv)
		}
		next, accept = pv.next, pv.accept
	} else {
		var n ltl.Formula
		n, accept = ltl.Step(top.ob, evalLetter(s.letters, last))
		next = s.in.intern(n)
	}
	if accept {
		return next, lts.Accept, nil
	}
	if s.ablate {
		// Ablation: ignore the dead-obligation signal; re-check the whole
		// formula directly at every prefix instead (this is the one place
		// the full transition list is still materialized — deliberately, it
		// is the slow baseline).
		ts, err := p.Transitions(s.initial)
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
