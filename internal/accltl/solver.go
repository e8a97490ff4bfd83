package accltl

import (
	"context"
	"fmt"

	"accltl/internal/access"
	"accltl/internal/fo"
	"accltl/internal/instance"
	"accltl/internal/ltl"
	"accltl/internal/lts"
	"accltl/internal/schema"
)

// SolveOptions configures a satisfiability search.
type SolveOptions struct {
	// Context, when non-nil, bounds the search by cancellation or deadline:
	// the solver checks it before entering the search loop and the LTS
	// exploration polls it, so an expired budget stops the search promptly
	// with the context's error.
	Context context.Context
	// Schema is the schema with access methods (required).
	Schema *schema.Schema
	// Initial is the initially known instance I0 (nil = empty).
	Initial *instance.Instance
	// Grounded restricts to grounded access paths.
	Grounded bool
	// IdempotentOnly restricts to idempotent paths.
	IdempotentOnly bool
	// ExactMethods restricts the listed methods to exact responses;
	// AllExact makes every method exact.
	ExactMethods map[string]bool
	AllExact     bool
	// MaxDepth bounds witness path length; 0 derives a bound from the
	// formula (Lemma 4.13 / Theorem 4.14 style).
	MaxDepth int
	// Universe overrides the witness universe derived from the formula.
	Universe *instance.Instance
	// MaxResponseChoices caps response subset fan-out (default 3).
	MaxResponseChoices int
	// DisableLTLPruning turns off obligation-progression pruning
	// (ablation: the search then checks full paths only at the leaves).
	DisableLTLPruning bool
	// MaxPaths aborts after this many visited paths (0 = 2^22 default).
	MaxPaths int
	// Parallelism is the number of concurrent exploration walkers (0 or 1 =
	// one walker, on the calling goroutine). The search is sharded over the
	// root branching (lts.Plan.Explore) in the schema's shard order, with
	// the solver's tables shared across walkers behind striped locks keyed
	// by the instances' incremental Hash. Verdicts on searches that run to
	// exhaustion are identical for every W. A satisfiable search at one
	// walker returns the first witness in lts.Explore's order, the witness
	// of the lowest shard that has one; at W > 1 it prefers that witness but
	// can vary with scheduling, and PathsExplored on early-stopped or capped
	// searches is schedule-dependent.
	Parallelism int
	// Shards, when non-nil, restricts the search to the listed root shards
	// of the canonical partition PlanShards enumerates (lts.Plan.Explore
	// semantics: indexes are canonical positions in the schema's shard
	// order, duplicates collapse, out-of-range indexes error, and a non-nil
	// empty slice searches only the root). A subset search is a partial
	// search: "satisfiable" verdicts are exact, "unsatisfiable" verdicts
	// cover only the selected shards and must be merged across a full cover
	// of the partition — the contract the distributed check fabric's
	// workers build on.
	Shards []int
	// Memo, when non-nil, carries the solver's shared tables (obligation
	// interner, progression cache, dominance memo) across calls so a
	// resumed search starts warm instead of cold (progressive deepening),
	// together with the search setup derived from the formula and options:
	// exploration options, witness universe, depth bound and root
	// partition, derived once and reused by every later search or
	// PlanShards through the memo. Without one, each search builds fresh
	// tables and a fresh setup. The tables and the setup are only valid for
	// repeat searches of the *same* formula under the same options — reuse
	// across different checks is unsound and unchecked. A search that ends
	// early (witness, cap, error) scrubs the commitments of its unfinished
	// shard walks before returning (lts.Product), so the surviving entries
	// are safe to prune against in a later round.
	Memo *SolverMemo
}

// SolveResult reports a satisfiability verdict.
type SolveResult struct {
	// Satisfiable is the verdict (within the search bound for the
	// semi-decision entry points; exact for the fragment solvers on
	// formulas within their fragment).
	Satisfiable bool
	// Witness is a satisfying access path when Satisfiable.
	Witness *access.Path
	// PathsExplored counts visited path prefixes.
	PathsExplored int
	// Depth is the bound used.
	Depth int
	// Truncated reports that the search hit its path cap before exhausting
	// the space up to Depth: an unsatisfiable verdict is then relative to
	// the cap, not just the depth bound, even on decidable fragments. It is
	// exact — a search that completes with exactly MaxPaths prefixes
	// visited is not flagged.
	Truncated bool
	// ResponsesCapped reports that some subset-response fan-out was cut to
	// MaxResponseChoices during the search, so possible worlds exist that
	// were never examined: like Truncated, it demotes an unsatisfiable
	// verdict from exact to cap-relative. It is set on every return
	// without a witness, error returns included, so a resumed search
	// carries forward the caps of the shards it skips.
	ResponsesCapped bool
	// CompletedShards lists, ascending, the canonical root shards whose
	// walk ran to completion; TotalShards is the partition size the indexes
	// refer to. Both are meaningful even when an error is returned
	// alongside the result — checkpoint/resume reads them off a
	// deadline-expired search to decide what not to redo.
	CompletedShards []int
	TotalShards     int
}

// SolveZeroAcc decides satisfiability of an AccLTL(FO∃+_0-Acc) or
// AccLTL(FO∃+,≠_0-Acc) formula (Theorems 4.12 and 5.1) by the Boundedness
// Lemma 4.13 bounded-model search: witnesses are sought over a universe
// assembled from the canonical databases of the formula's positive
// sentences, with path length bounded by a function of the formula.
func SolveZeroAcc(f Formula, opts SolveOptions) (SolveResult, error) {
	info := Classify(f)
	if !info.ZeroAcc {
		return SolveResult{}, fmt.Errorf("accltl: formula not in the 0-Acc fragment (an IsBind atom carries arguments)")
	}
	if !info.EmbeddedPositive {
		return SolveResult{}, fmt.Errorf("accltl: embedded sentences must be positive existential")
	}
	if info.HasPast {
		return SolveResult{}, fmt.Errorf("accltl: past operators unsupported by the 0-Acc solver")
	}
	return boundedSearch(f, opts, ZeroAcc)
}

// SolveX decides satisfiability of an AccLTL(X)(FO∃+,≠_0-Acc) formula
// (Theorem 4.14): the X-only fragment has witnesses no longer than its
// X-nesting depth plus one, so the search bound is tight rather than
// heuristic.
func SolveX(f Formula, opts SolveOptions) (SolveResult, error) {
	info := Classify(f)
	if !info.OnlyNext {
		return SolveResult{}, fmt.Errorf("accltl: formula uses temporal operators beyond X")
	}
	if !info.ZeroAcc {
		return SolveResult{}, fmt.Errorf("accltl: formula not in the 0-Acc fragment")
	}
	if !info.EmbeddedPositive {
		return SolveResult{}, fmt.Errorf("accltl: embedded sentences must be positive existential")
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = TemporalDepth(f) + 1
	}
	return boundedSearch(f, opts, ZeroAcc)
}

// SolvePlusDirect is the direct bounded search for AccLTL+ (design decision
// D1: the alternative engine to the Lemma 4.5 automaton pipeline). Its
// verdicts are exact up to the depth bound; the autom package provides the
// paper's compilation route, and tests cross-check the two.
func SolvePlusDirect(f Formula, opts SolveOptions) (SolveResult, error) {
	info := Classify(f)
	if !info.BindingPositive {
		return SolveResult{}, fmt.Errorf("accltl: formula is not binding-positive (Definition 4.1)")
	}
	if !info.EmbeddedPositive {
		return SolveResult{}, fmt.Errorf("accltl: embedded sentences must be positive existential")
	}
	if info.HasInequality {
		return SolveResult{}, fmt.Errorf("accltl: AccLTL+ with inequalities is undecidable (Theorem 5.2); use SolveBounded for a semi-decision")
	}
	if info.HasPast {
		return SolveResult{}, fmt.Errorf("accltl: past operators unsupported")
	}
	return boundedSearch(f, opts, FullAcc)
}

// SolveBounded is the unrestricted bounded semi-decision: complete for
// "satisfiable" (any witness within the bound is found), sound but
// incomplete for "unsatisfiable" on the undecidable fragments. The
// undecidability reductions in package deps use it to exhibit models.
func SolveBounded(f Formula, opts SolveOptions) (SolveResult, error) {
	info := Classify(f)
	if info.HasPast {
		return SolveResult{}, fmt.Errorf("accltl: past operators unsupported")
	}
	return boundedSearch(f, opts, FullAcc)
}

// Valid decides validity over access paths within the bound: ϕ is valid
// iff ¬ϕ is unsatisfiable ("we may also want to check that every path
// through the system is of a certain form; this is the validity problem",
// Section 1). The negation generally leaves the decidable fragments —
// binding-positivity is not closed under complement — so validity runs
// through the bounded engine: "valid" verdicts are relative to the depth
// bound, "invalid" verdicts come with a counterexample path.
func Valid(f Formula, opts SolveOptions) (valid bool, counterexample *access.Path, err error) {
	res, err := SolveBounded(Not{F: f}, opts)
	if err != nil {
		return false, nil, err
	}
	if res.Satisfiable {
		return false, res.Witness, nil
	}
	return true, nil, nil
}

// defaultDepth derives the witness-length bound: at least one position per
// until obligation and per distinct sentence (each may need a fresh
// transition to flip), plus the X-nesting depth.
func defaultDepth(f Formula) int {
	d := TemporalDepth(f) + CountUntils(f) + len(Sentences(f)) + 1
	if d < 2 {
		d = 2
	}
	return d
}

// searchLTSOptions assembles the exploration options a bounded search of f
// under opts uses: the depth bound, the witness universe (formula-derived
// unless overridden) and the formula's constants in the binding pool,
// completed by lts.ProductOptions. It is the single prep path shared by
// boundedSearch and PlanShards, so the shard partition a plan describes is
// exactly the partition the search executes — the determinism the
// distributed check fabric relies on when coordinator and workers derive
// plans independently.
func searchLTSOptions(f Formula, opts SolveOptions) (lts.Options, int, error) {
	depth := opts.MaxDepth
	if depth == 0 {
		depth = defaultDepth(f)
	}
	universe := opts.Universe
	if universe == nil {
		var err error
		if universe, err = WitnessUniverse(opts.Schema, f); err != nil {
			return lts.Options{}, 0, err
		}
	}
	o, err := lts.ProductOptions(opts.Schema, lts.Options{
		Universe:           universe,
		Initial:            opts.Initial,
		MaxDepth:           depth,
		GroundedOnly:       opts.Grounded,
		IdempotentOnly:     opts.IdempotentOnly,
		ExactMethods:       opts.ExactMethods,
		AllExact:           opts.AllExact,
		MaxResponseChoices: opts.MaxResponseChoices,
		MaxPaths:           opts.MaxPaths,
		ExtraBindingValues: fo.Constants(sentenceConj(Sentences(f))),
	})
	return o, depth, err
}

// searchSetup returns the search's setup — opts.Memo's, or a fresh one for
// a memo-less search — with its exploration options and depth bound
// derived.
func searchSetup(f Formula, opts SolveOptions) (*lts.Setup, int, error) {
	setup := &lts.Setup{}
	if opts.Memo != nil {
		setup = &opts.Memo.setup
	}
	_, depth, err := setup.Options(opts.Context, func() (lts.Options, int, error) { return searchLTSOptions(f, opts) })
	return setup, depth, err
}

// PlanShards enumerates the root shards a bounded search of f under opts
// would partition into, in the canonical order SolveOptions.Shards indexes
// (the schema's: method, then binding, then response). The plan is a pure
// function of (schema, formula, options): Parallelism and Shards themselves
// do not affect it, so a coordinator and its workers given the same check
// derive identical plans. The bool result reports whether some root
// response fan-out was truncated to MaxResponseChoices during enumeration
// (lts.Plan.ResponsesCapped).
//
// With opts.Memo set, the plan is the memo's: enumerated by the first plan
// or sharded search through the memo and reused by every later one.
func PlanShards(f Formula, opts SolveOptions) ([]lts.ShardID, bool, error) {
	if opts.Schema == nil {
		return nil, false, fmt.Errorf("accltl: SolveOptions.Schema is required")
	}
	if err := CheckSentences(f); err != nil {
		return nil, false, err
	}
	setup, _, err := searchSetup(f, opts)
	if err != nil {
		return nil, false, err
	}
	plan, err := setup.Plan(opts.Context, opts.Schema)
	if err != nil {
		return nil, false, err
	}
	return plan.IDs(), plan.ResponsesCapped(), nil
}

// boundedSearch runs the bounded-model search: an lts.Product search over
// the search's plan (the opts.Shards subset) whose control is the
// obligation (see search.go).
func boundedSearch(f Formula, opts SolveOptions, voc Vocabulary) (SolveResult, error) {
	if opts.Schema == nil {
		return SolveResult{}, fmt.Errorf("accltl: SolveOptions.Schema is required")
	}
	if opts.Context != nil {
		if err := opts.Context.Err(); err != nil {
			return SolveResult{}, err
		}
	}
	if err := CheckSentences(f); err != nil {
		return SolveResult{}, err
	}

	// Abstract the temporal skeleton: each distinct sentence becomes a
	// proposition; progression over the letters of evaluated sentences
	// decides the formula, and dead obligations prune the search. The
	// sentence→proposition table is laid out once here, with every
	// sentence prepared — evalLetter walks the flat table instead of
	// re-rendering, re-checking or re-planning any sentence at every
	// visited node.
	sentences := Sentences(f)
	props := make(map[string]ltl.Prop, len(sentences))
	letters := make([]letterEntry, len(sentences))
	for i, s := range sentences {
		p := ltl.Prop(fmt.Sprintf("q%d", i))
		props[s.String()] = p
		prepared, err := fo.Prepare(s)
		if err != nil {
			return SolveResult{}, err
		}
		letters[i] = letterEntry{sentence: prepared, prop: p}
	}
	skeleton, err := abstract(f, props)
	if err != nil {
		return SolveResult{}, err
	}

	setup, depth, err := searchSetup(f, opts)
	if err != nil {
		return SolveResult{}, err
	}
	plan, err := setup.Plan(opts.Context, opts.Schema)
	if err != nil {
		return SolveResult{}, err
	}

	tables := opts.Memo
	if tables == nil {
		tables = NewSolverMemo()
	}
	tables.prog.widen(opts.Parallelism)
	srch := &search{f: f, voc: voc, opts: &opts, letters: letters, useMask: len(letters) <= 64, tables: tables}
	pr := &lts.Product[obligation, int]{
		Init:       tables.in.intern(ltl.NNF(skeleton)),
		Step:       srch.step,
		ZeroAcc:    voc == ZeroAcc,
		Memo:       tables.memo,
		Depth:      depth,
		Persistent: opts.Memo != nil,
	}
	// Satisfiability below a node depends only on the revealed configuration
	// and the obligation, not on the history — except under idempotence,
	// where the responses seen so far constrain the future, so the memo
	// would be unsound there. The pruning ablation runs without it.
	if !opts.IdempotentOnly && !opts.DisableLTLPruning {
		pr.Key = func(o obligation) int { return o.id }
	}

	rep, witness, err := pr.Search(opts.Context, plan, opts.Parallelism, opts.Shards)
	res := SolveResult{
		Depth:           depth,
		PathsExplored:   rep.Paths,
		CompletedShards: rep.CompletedShards,
		TotalShards:     rep.TotalShards,
	}
	if witness != nil {
		res.Satisfiable = true
		res.Witness = witness
		ts, err := witness.Transitions(opts.Initial)
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
	// A cap met before an error is reported too: a resumed search skips
	// the shards this one completed, so it would never meet the cap again.
	res.ResponsesCapped = rep.ResponsesCapped
	if err != nil {
		return res, err
	}
	res.Truncated = rep.PathsCapped
	return res, nil
}

func sentenceConj(ss []fo.Formula) fo.Formula {
	fs := make([]fo.Formula, len(ss))
	copy(fs, ss)
	return fo.Conj(fs...)
}

// Abstraction is the propositional view of an AccLTL formula: the temporal
// skeleton over one proposition per distinct embedded sentence. It is the
// common core of the Theorem 4.12 reduction and the Lemma 4.5 automaton
// compilation.
type Abstraction struct {
	// Skeleton is the propositional LTL formula.
	Skeleton ltl.Formula
	// Sentences lists the embedded sentences in proposition order.
	Sentences []fo.Formula
	// Props maps sentence renderings to their propositions.
	Props map[string]ltl.Prop
}

// Abstract computes the propositional abstraction of f. It fails on past
// operators.
func Abstract(f Formula) (Abstraction, error) {
	sentences := Sentences(f)
	props := make(map[string]ltl.Prop, len(sentences))
	for i, s := range sentences {
		props[s.String()] = ltl.Prop(fmt.Sprintf("q%d", i))
	}
	skeleton, err := abstract(f, props)
	if err != nil {
		return Abstraction{}, err
	}
	return Abstraction{Skeleton: skeleton, Sentences: sentences, Props: props}, nil
}

// SentenceOf returns the sentence a proposition stands for.
func (a Abstraction) SentenceOf(p ltl.Prop) (fo.Formula, bool) {
	for i, s := range a.Sentences {
		if a.Props[s.String()] == p {
			return a.Sentences[i], true
		}
	}
	return nil, false
}

// abstract replaces each embedded sentence by its proposition.
func abstract(f Formula, props map[string]ltl.Prop) (ltl.Formula, error) {
	switch g := f.(type) {
	case Atom:
		p, ok := props[g.Sentence.String()]
		if !ok {
			return nil, fmt.Errorf("accltl: sentence %s missing from proposition table", g.Sentence)
		}
		return p, nil
	case Not:
		x, err := abstract(g.F, props)
		if err != nil {
			return nil, err
		}
		return ltl.Not{F: x}, nil
	case And:
		out := ltl.Formula(ltl.Truth(true))
		for i, c := range g.Conj {
			x, err := abstract(c, props)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				out = x
			} else {
				out = ltl.And{L: out, R: x}
			}
		}
		return out, nil
	case Or:
		out := ltl.Formula(ltl.Truth(false))
		for i, d := range g.Disj {
			x, err := abstract(d, props)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				out = x
			} else {
				out = ltl.Or{L: out, R: x}
			}
		}
		return out, nil
	case Next:
		x, err := abstract(g.F, props)
		if err != nil {
			return nil, err
		}
		return ltl.Next{F: x}, nil
	case Until:
		l, err := abstract(g.L, props)
		if err != nil {
			return nil, err
		}
		r, err := abstract(g.R, props)
		if err != nil {
			return nil, err
		}
		return ltl.Until{L: l, R: r}, nil
	default:
		return nil, fmt.Errorf("accltl: cannot abstract %T (past operator?)", f)
	}
}

// letterEntry pairs a prepared embedded sentence with its proposition.
// boundedSearch lays the table out once per solve and every shard visitor
// shares it: evalLetter never re-renders a sentence's canonical string to
// find its proposition, and never re-prepares it.
type letterEntry struct {
	sentence *fo.Prepared
	prop     ltl.Prop
}

// evalLetter evaluates every sentence on the structure M(t) of a
// transition and returns the corresponding propositional letter.
func evalLetter(letters []letterEntry, st fo.Structure) ltl.Letter {
	l := make(ltl.Letter, len(letters))
	for _, e := range letters {
		if e.sentence.Eval(st) {
			l[e.prop] = true
		}
	}
	return l
}

// evalLetterMask is evalLetter packed into a bitmask (bit i ⇔ sentence i
// holds): the allocation-free letter the progression cache keys on. Only
// valid for ≤ 64 sentences; boundedSearch falls back to evalLetter beyond.
func evalLetterMask(letters []letterEntry, st fo.Structure) uint64 {
	var mask uint64
	for i, e := range letters {
		if e.sentence.Eval(st) {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// letterFromMask expands a bitmask back into the map form ltl.Step consumes
// (progression-cache misses only).
func letterFromMask(letters []letterEntry, mask uint64) ltl.Letter {
	l := make(ltl.Letter, len(letters))
	for i, e := range letters {
		if mask&(1<<uint(i)) != 0 {
			l[e.prop] = true
		}
	}
	return l
}
