// Package branching implements the branching-time logic CTL_EX of Section
// 5.2: boolean combinations of FO∃+ sentences over the Sch_0-Acc view of a
// transition, closed under the one-step existential modality EX ("some
// successor transition satisfies ϕ" — basic modal logic over the schema's
// LTS). Theorem 5.3 shows satisfiability is undecidable even for this
// fragment; the checker here is the bounded model checker used to exercise
// the reduction, and the Theorem53 constructor builds the reduction object
// from a dependency-implication instance.
package branching

import (
	"fmt"

	"accltl/internal/access"
	"accltl/internal/deps"
	"accltl/internal/fo"
	"accltl/internal/instance"
	"accltl/internal/lts"
	"accltl/internal/schema"
)

// Formula is a CTL_EX formula.
type Formula interface {
	fmt.Stringer
	isCTL()
}

// Atom embeds an FO sentence over Sch_0-Acc, evaluated on one transition.
type Atom struct{ Sentence fo.Formula }

// Not is negation.
type Not struct{ F Formula }

// And is n-ary conjunction.
type And struct{ Conj []Formula }

// Or is n-ary disjunction.
type Or struct{ Disj []Formula }

// EX is the existential next modality: some successor transition satisfies
// the body.
type EX struct{ F Formula }

func (Atom) isCTL() {}
func (Not) isCTL()  {}
func (And) isCTL()  {}
func (Or) isCTL()   {}
func (EX) isCTL()   {}

func (f Atom) String() string { return "[" + f.Sentence.String() + "]" }
func (f Not) String() string  { return "!" + f.F.String() }
func (f And) String() string {
	if len(f.Conj) == 0 {
		return "true"
	}
	s := "("
	for i, c := range f.Conj {
		if i > 0 {
			s += " & "
		}
		s += c.String()
	}
	return s + ")"
}
func (f Or) String() string {
	if len(f.Disj) == 0 {
		return "false"
	}
	s := "("
	for i, d := range f.Disj {
		if i > 0 {
			s += " | "
		}
		s += d.String()
	}
	return s + ")"
}
func (f EX) String() string { return "EX " + f.F.String() }

// AX is the derived universal modality ¬EX¬ϕ.
func AX(f Formula) Formula { return Not{F: EX{F: Not{F: f}}} }

// Conj and Disj build flattened boolean combinations.
func Conj(fs ...Formula) Formula { return And{Conj: fs} }
func Disj(fs ...Formula) Formula { return Or{Disj: fs} }

// Implies is the derived implication.
func Implies(l, r Formula) Formula { return Disj(Not{F: l}, r) }

// EXDepth returns the modal nesting depth.
func EXDepth(f Formula) int {
	switch g := f.(type) {
	case Atom:
		return 0
	case Not:
		return EXDepth(g.F)
	case And:
		d := 0
		for _, c := range g.Conj {
			if cd := EXDepth(c); cd > d {
				d = cd
			}
		}
		return d
	case Or:
		d := 0
		for _, x := range g.Disj {
			if cd := EXDepth(x); cd > d {
				d = cd
			}
		}
		return d
	case EX:
		return 1 + EXDepth(g.F)
	default:
		return 0
	}
}

// Checker model-checks CTL_EX formulas over the bounded LTS of a schema.
type Checker struct {
	Schema *schema.Schema
	// Opts configures successor enumeration (universe, exactness,
	// grounded bindings, response fan-out). Opts.Parallelism is ignored:
	// Satisfiable tries the candidate initial transitions one at a time in
	// lts.Successors' order, an order-sensitive enumeration that ignores
	// it too, so the witness is always the lowest-index satisfying
	// candidate.
	Opts lts.Options
	// ResponsesCapped is set (sticky) when any successor enumeration
	// during Holds or Satisfiable had its subset-response fan-out cut to
	// Opts.MaxResponseChoices: verdicts reached after that are relative
	// to the cap, not exact. Zero it before a run to scope the signal.
	ResponsesCapped bool
}

// Holds decides (S, t) ⊧ ϕ for a transition t of the LTS. EX looks one
// step ahead via lts.Successors; sentences are evaluated on the Sch_0-Acc
// structure M'(t) as in Section 5.2. When Opts.Context is set it is polled
// across the recursion, so a cancelled or expired context aborts a deep EX
// tower promptly with the context's error.
//
// Unlike lts.Explore's borrowed visitor arguments, the transitions
// Successors returns are caller-owned (each After is a fresh instance), so
// the recursion below may hold them across nested EX expansions freely.
func (c *Checker) Holds(f Formula, t access.Transition) (bool, error) {
	if c.Opts.Context != nil {
		if err := c.Opts.Context.Err(); err != nil {
			return false, err
		}
	}
	switch g := f.(type) {
	case Atom:
		return fo.Eval(g.Sentence, access.ZeroAccStructureOf(t))
	case Not:
		v, err := c.Holds(g.F, t)
		return !v, err
	case And:
		for _, x := range g.Conj {
			v, err := c.Holds(x, t)
			if err != nil {
				return false, err
			}
			if !v {
				return false, nil
			}
		}
		return true, nil
	case Or:
		for _, x := range g.Disj {
			v, err := c.Holds(x, t)
			if err != nil {
				return false, err
			}
			if v {
				return true, nil
			}
		}
		return false, nil
	case EX:
		succs, rep, err := lts.Successors(c.Schema, c.Opts, t.After)
		if rep.ResponsesCapped {
			c.ResponsesCapped = true
		}
		if err != nil {
			return false, err
		}
		for _, s := range succs {
			v, err := c.Holds(g.F, s)
			if err != nil {
				return false, err
			}
			if v {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("branching: unknown node %T", f)
	}
}

// Satisfiable searches for an initial transition (from the initial
// instance) satisfying ϕ: the bounded satisfiability check used to witness
// the satisfiable direction of Theorem 5.3 instances. Undecidable in
// general (Theorem 5.3), so verdicts are relative to the universe and the
// successor fan-out in Opts.
func (c *Checker) Satisfiable(f Formula, initial *instance.Instance) (bool, access.Transition, error) {
	if initial == nil {
		initial = instance.NewInstance(c.Schema)
	}
	succs, rep, err := lts.Successors(c.Schema, c.Opts, initial)
	if rep.ResponsesCapped {
		c.ResponsesCapped = true
	}
	if err != nil {
		return false, access.Transition{}, err
	}
	for _, t := range succs {
		v, err := c.Holds(f, t)
		if err != nil {
			return false, access.Transition{}, err
		}
		if v {
			return true, t, nil
		}
	}
	return false, access.Transition{}, nil
}

// Theorem53Artifacts is the reduction object of Theorem 5.3.
type Theorem53Artifacts struct {
	// Schema extends the base with Fill<R> input-free methods, ChkFD<R>
	// (arity 2·|R|) and CheckIncDep<R> (arity |R|) relations with boolean
	// access methods.
	Schema *schema.Schema
	// Formula is ψ(Γ,σ) = EX(Fill ∧ EX(... ∧ ⋀ϕfd ∧ ⋀ϕid ∧ ϕ¬σ)).
	Formula Formula
}

// BuildTheorem53 constructs the Theorem 5.3 reduction from a dependency
// implication instance: the formula is satisfiable over the extended
// schema's LTS iff Γ does not imply σ (the undecidable problem [6]).
func BuildTheorem53(base *schema.Schema, gamma deps.Set, sigma deps.FD) (*Theorem53Artifacts, error) {
	if err := gamma.Validate(base); err != nil {
		return nil, err
	}
	if err := sigma.Validate(base); err != nil {
		return nil, err
	}
	sch, err := deps.FillSchema(base)
	if err != nil {
		return nil, err
	}
	needed := map[string]bool{sigma.Rel: true}
	for _, d := range gamma.FDs {
		needed[d.Rel] = true
	}
	for _, d := range gamma.IDs {
		needed[d.SrcRel] = true
		needed[d.DstRel] = true
	}
	for rel := range needed {
		r, _ := sch.Relation(rel)
		double := append(r.Types(), r.Types()...)
		chk, err := schema.NewRelation("ChkFD"+rel, double...)
		if err != nil {
			return nil, err
		}
		inc, err := schema.NewRelation("CheckIncDep"+rel, r.Types()...)
		if err != nil {
			return nil, err
		}
		for _, nr := range []*schema.Relation{chk, inc} {
			if err := sch.AddRelation(nr); err != nil {
				return nil, err
			}
			ins := make([]int, nr.Arity())
			for i := range ins {
				ins[i] = i
			}
			m, err := schema.NewAccessMethod("Acc"+nr.Name(), nr, ins...)
			if err != nil {
				return nil, err
			}
			if err := sch.AddMethod(m); err != nil {
				return nil, err
			}
		}
	}
	f, err := theorem53Formula(sch, base, gamma, sigma)
	if err != nil {
		return nil, err
	}
	return &Theorem53Artifacts{Schema: sch, Formula: f}, nil
}

// theorem53Formula assembles ψ(Γ,σ) following the proof of Theorem 5.3.
func theorem53Formula(sch, base *schema.Schema, gamma deps.Set, sigma deps.FD) (Formula, error) {
	var inner []Formula
	for _, d := range gamma.FDs {
		inner = append(inner, fdFormula(sch, d, true))
	}
	for _, d := range gamma.IDs {
		idf, err := idFormula(sch, d)
		if err != nil {
			return nil, err
		}
		inner = append(inner, idf)
	}
	inner = append(inner, fdFormula(sch, sigma, false))
	body := Conj(inner...)
	// Wrap in the fill phase: EX(FillR1-fired ∧ EX(... ∧ body)). The
	// 0-ary IsBind propositions identify which method fired.
	rels := base.Relations()
	f := body
	for i := len(rels) - 1; i >= 0; i-- {
		fired := Atom{Sentence: fo.Atom{Pred: fo.IsBindPred("Fill" + rels[i].Name())}}
		f = EX{F: Conj(fired, f)}
	}
	return f, nil
}

// fdFormula builds ϕfd (sat=true) or ϕ¬σ (sat=false) per the proof: a
// boolean ChkFD access picks an arbitrary pair of R-tuples; AX then says
// every such probe finds the targets agreeing (satisfaction), EX that some
// probe exhibits a disagreeing pair (violation, expressed positively via
// the pair landing in ChkFD with distinct target slots — here rendered
// with the paper's trick of demanding agreement fail through negation at
// the CTL level).
func fdFormula(sch *schema.Schema, d deps.FD, sat bool) Formula {
	r, _ := sch.Relation(d.Rel)
	n := r.Arity()
	var vars []string
	xs := make([]fo.Term, n)
	ys := make([]fo.Term, n)
	for i := 0; i < n; i++ {
		xv, yv := fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i)
		xs[i], ys[i] = fo.Var(xv), fo.Var(yv)
		vars = append(vars, xv, yv)
	}
	chkArgs := append(append([]fo.Term{}, xs...), ys...)
	probe := []fo.Formula{
		fo.Atom{Pred: fo.PostPred("ChkFD" + d.Rel), Args: chkArgs},
		fo.Atom{Pred: fo.PostPred(d.Rel), Args: xs},
		fo.Atom{Pred: fo.PostPred(d.Rel), Args: ys},
	}
	var agree []fo.Formula
	for _, p := range d.Source {
		agree = append(agree, fo.Eq{L: xs[p], R: ys[p]})
	}
	probeAgree := append(append([]fo.Formula{}, probe...), agree...)
	targetsEq := fo.Eq{L: xs[d.Target], R: ys[d.Target]}
	if sat {
		// AX( probe-with-source-agreement → targets equal ): expressed as
		// ¬EX( probe ∧ agree ∧ ¬(probe ∧ agree ∧ targetsEq) ) using CTL
		// negation over positive sentences.
		bad := Conj(
			Atom{Sentence: fo.Ex(vars, fo.Conj(probeAgree...))},
			Not{F: Atom{Sentence: fo.Ex(vars, fo.Conj(append(append([]fo.Formula{}, probeAgree...), targetsEq)...))}},
		)
		return Not{F: EX{F: bad}}
	}
	// Violation: some probe pair agrees on sources and provably not on the
	// target (no witness of equality among probed pairs).
	return EX{F: Conj(
		Atom{Sentence: fo.Ex(vars, fo.Conj(probeAgree...))},
		Not{F: Atom{Sentence: fo.Ex(vars, fo.Conj(append(append([]fo.Formula{}, probeAgree...), targetsEq)...))}},
	)}
}

// idFormula builds ϕid: whenever a CheckIncDep probe returns a source
// tuple, some immediately following access reveals a matching target tuple
// already present (boolean accesses cannot create one).
func idFormula(sch *schema.Schema, d deps.ID) (Formula, error) {
	src, ok := sch.Relation(d.SrcRel)
	if !ok {
		return nil, fmt.Errorf("branching: unknown relation %s", d.SrcRel)
	}
	dst, ok := sch.Relation(d.DstRel)
	if !ok {
		return nil, fmt.Errorf("branching: unknown relation %s", d.DstRel)
	}
	var xv []string
	xs := make([]fo.Term, src.Arity())
	for i := range xs {
		v := fmt.Sprintf("sx%d", i)
		xs[i] = fo.Var(v)
		xv = append(xv, v)
	}
	var yv []string
	ys := make([]fo.Term, dst.Arity())
	for i := range ys {
		v := fmt.Sprintf("sy%d", i)
		ys[i] = fo.Var(v)
		yv = append(yv, v)
	}
	for i := range d.SrcPos {
		ys[d.DstPos[i]] = xs[d.SrcPos[i]]
	}
	probe := Conj(
		Atom{Sentence: fo.Atom{Pred: fo.IsBindPred("AccCheckIncDep" + d.SrcRel)}},
		Atom{Sentence: fo.Ex(xv, fo.Conj(
			fo.Atom{Pred: fo.PostPred("CheckIncDep" + d.SrcRel), Args: xs},
			fo.Atom{Pred: fo.PostPred(d.SrcRel), Args: xs},
		))},
	)
	match := EX{F: Conj(
		Atom{Sentence: fo.Atom{Pred: fo.IsBindPred("AccCheckIncDep" + d.DstRel)}},
		Atom{Sentence: fo.Ex(append(xv, yv...), fo.Conj(
			fo.Atom{Pred: fo.PostPred("CheckIncDep" + d.SrcRel), Args: xs},
			fo.Atom{Pred: fo.PostPred("CheckIncDep" + d.DstRel), Args: ys},
		))},
	)}
	return AX(Implies(probe, match)), nil
}
