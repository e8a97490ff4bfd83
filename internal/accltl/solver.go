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
	// of the canonical partition Prepared.Plan holds (lts.Plan.Explore
	// semantics: indexes are canonical positions in the schema's shard
	// order, duplicates collapse, out-of-range indexes error, and a non-nil
	// empty slice searches only the root). A subset search is a partial
	// search: "satisfiable" verdicts are exact, "unsatisfiable" verdicts
	// cover only the selected shards and must be merged across a full cover
	// of the partition — the contract the distributed check fabric's
	// workers build on.
	Shards []int
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

// Procedure is one of the bounded-search decision procedures: the fragment
// its entry point admits, the vocabulary its letters are read in and its
// depth rule.
type Procedure int

const (
	// ProcX is SolveX's procedure.
	ProcX Procedure = iota
	// ProcZeroAcc is SolveZeroAcc's.
	ProcZeroAcc
	// ProcPlusDirect is SolvePlusDirect's.
	ProcPlusDirect
	// ProcBounded is SolveBounded's.
	ProcBounded
)

// Admit returns the error the procedure's entry point gives a formula with
// the features info outside its fragment, or nil when it admits it.
func (p Procedure) Admit(info Info) error {
	switch p {
	case ProcX:
		switch {
		case !info.OnlyNext:
			return fmt.Errorf("accltl: formula uses temporal operators beyond X")
		case !info.ZeroAcc:
			return fmt.Errorf("accltl: formula not in the 0-Acc fragment")
		case !info.EmbeddedPositive:
			return fmt.Errorf("accltl: embedded sentences must be positive existential")
		}
	case ProcZeroAcc:
		switch {
		case !info.ZeroAcc:
			return fmt.Errorf("accltl: formula not in the 0-Acc fragment (an IsBind atom carries arguments)")
		case !info.EmbeddedPositive:
			return fmt.Errorf("accltl: embedded sentences must be positive existential")
		case info.HasPast:
			return fmt.Errorf("accltl: past operators unsupported by the 0-Acc solver")
		}
	case ProcPlusDirect:
		switch {
		case !info.BindingPositive:
			return fmt.Errorf("accltl: formula is not binding-positive (Definition 4.1)")
		case !info.EmbeddedPositive:
			return fmt.Errorf("accltl: embedded sentences must be positive existential")
		case info.HasInequality:
			return fmt.Errorf("accltl: AccLTL+ with inequalities is undecidable (Theorem 5.2); use SolveBounded for a semi-decision")
		case info.HasPast:
			return fmt.Errorf("accltl: past operators unsupported")
		}
	case ProcBounded:
		if info.HasPast {
			return fmt.Errorf("accltl: past operators unsupported")
		}
	}
	return nil
}

// SolveZeroAcc decides satisfiability of an AccLTL(FO∃+_0-Acc) or
// AccLTL(FO∃+,≠_0-Acc) formula (Theorems 4.12 and 5.1) by the Boundedness
// Lemma 4.13 bounded-model search: witnesses are sought over a universe
// assembled from the canonical databases of the formula's positive
// sentences, with path length bounded by a function of the formula.
func SolveZeroAcc(f Formula, opts SolveOptions) (SolveResult, error) {
	return solve(ProcZeroAcc, f, opts)
}

// SolveX decides satisfiability of an AccLTL(X)(FO∃+,≠_0-Acc) formula
// (Theorem 4.14): the X-only fragment has witnesses no longer than its
// X-nesting depth plus one, so the search bound is tight rather than
// heuristic.
func SolveX(f Formula, opts SolveOptions) (SolveResult, error) {
	return solve(ProcX, f, opts)
}

// SolvePlusDirect is the direct bounded search for AccLTL+ (design decision
// D1: the alternative engine to the Lemma 4.5 automaton pipeline). Its
// verdicts are exact up to the depth bound; the autom package provides the
// paper's compilation route, and tests cross-check the two.
func SolvePlusDirect(f Formula, opts SolveOptions) (SolveResult, error) {
	return solve(ProcPlusDirect, f, opts)
}

// SolveBounded is the unrestricted bounded semi-decision: complete for
// "satisfiable" (any witness within the bound is found), sound but
// incomplete for "unsatisfiable" on the undecidable fragments. The
// undecidability reductions in package deps use it to exhibit models.
func SolveBounded(f Formula, opts SolveOptions) (SolveResult, error) {
	return solve(ProcBounded, f, opts)
}

// solve is every Solve entry point: admit f, prepare its search and run it
// once, on opts.Shards with opts.Parallelism walkers.
func solve(proc Procedure, f Formula, opts SolveOptions) (SolveResult, error) {
	if err := proc.Admit(Classify(f)); err != nil {
		return SolveResult{}, err
	}
	p, err := Prepare(proc, f, opts)
	if err != nil {
		return SolveResult{}, err
	}
	return p.Search(opts.Context, opts.Parallelism, opts.Shards)
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

// defaultDepth derives the witness-length bound from f and its number of
// distinct sentences: at least one position per until obligation and per
// sentence (each may need a fresh transition to flip), plus the X-nesting
// depth.
func defaultDepth(f Formula, sentences int) int {
	d := TemporalDepth(f) + CountUntils(f) + sentences + 1
	if d < 2 {
		d = 2
	}
	return d
}

// searchOptions assembles the exploration options a bounded search of f,
// whose distinct sentences are sentences, uses under opts: the depth bound
// (opts.MaxDepth, else defaultDepth), the witness universe (derived from
// the sentences unless overridden) and the sentences' constants in the
// binding pool, completed by lts.ProductOptions. Prepare plans with it, so
// the partition a plan describes is the partition the search executes: the
// determinism the distributed check fabric relies on when coordinator and
// workers derive plans independently.
func searchOptions(f Formula, sentences []fo.Formula, opts SolveOptions) (lts.Options, int, error) {
	depth := opts.MaxDepth
	if depth == 0 {
		depth = defaultDepth(f, len(sentences))
	}
	universe := opts.Universe
	if universe == nil {
		var err error
		if universe, err = UniverseForSentences(opts.Schema, sentences); err != nil {
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
		ExtraBindingValues: fo.Constants(sentenceConj(sentences)),
	})
	return o, depth, err
}

// searchLTSOptions is searchOptions over f's own sentences.
func searchLTSOptions(f Formula, opts SolveOptions) (lts.Options, int, error) {
	return searchOptions(f, Sentences(f), opts)
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
	a := newAbstraction()
	skeleton, err := a.abstract(f)
	if err != nil {
		return Abstraction{}, err
	}
	return Abstraction{Skeleton: skeleton, Sentences: a.sentences, Props: a.props}, nil
}

// abstraction is an Abstraction in the making: one walk over a formula
// gives each distinct embedded sentence (by rendering, as Sentences dedups)
// the next proposition q0, q1, … at its first occurrence, so sentences
// lists them in Sentences' order, and order their propositions.
type abstraction struct {
	props     map[string]ltl.Prop
	sentences []fo.Formula
	order     []ltl.Prop
}

func newAbstraction() *abstraction {
	return &abstraction{props: make(map[string]ltl.Prop)}
}

// abstract replaces each embedded sentence by its proposition. It stops at
// a past operator, which has no propositional counterpart.
func (a *abstraction) abstract(f Formula) (ltl.Formula, error) {
	switch g := f.(type) {
	case Atom:
		k := g.Sentence.String()
		p, ok := a.props[k]
		if !ok {
			p = ltl.Prop(fmt.Sprintf("q%d", len(a.sentences)))
			a.props[k] = p
			a.sentences = append(a.sentences, g.Sentence)
			a.order = append(a.order, p)
		}
		return p, nil
	case Not:
		x, err := a.abstract(g.F)
		if err != nil {
			return nil, err
		}
		return ltl.Not{F: x}, nil
	case And:
		out := ltl.Formula(ltl.Truth(true))
		for i, c := range g.Conj {
			x, err := a.abstract(c)
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
			x, err := a.abstract(d)
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
		x, err := a.abstract(g.F)
		if err != nil {
			return nil, err
		}
		return ltl.Next{F: x}, nil
	case Until:
		l, err := a.abstract(g.L)
		if err != nil {
			return nil, err
		}
		r, err := a.abstract(g.R)
		if err != nil {
			return nil, err
		}
		return ltl.Until{L: l, R: r}, nil
	default:
		return nil, fmt.Errorf("accltl: cannot abstract %T (past operator?)", f)
	}
}

// letterEntry pairs a prepared embedded sentence with its proposition.
// Prepare lays the table out once per search and every walker shares it:
// evalLetter never re-renders a sentence's canonical string to find its
// proposition, and never re-prepares it.
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
// valid for ≤ 64 sentences; the search falls back to evalLetter beyond.
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
