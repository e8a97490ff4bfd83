package autom

import (
	"fmt"

	"accltl/internal/datalog"
	"accltl/internal/fo"
)

// Lemma 4.10: from a progressive A-automaton A one can construct, in
// polynomial time, a Datalog program P_A and a positive first-order
// sentence P'_A such that L(A) is non-empty iff P_A is not contained in
// P'_A. The extensional database carries predicates B<i>_R ("BackgroundR_i"
// in the paper) — the part of relation R revealed during stage i, where the
// stages are the automaton's strongly connected components in chain order.
// The intensional predicates V<i>_R accumulate the views visible by stage
// i, Cross<i> records that the chain crossed from stage i to i+1, and the
// goal fires when the final stage is reached.
//
// The positive parts of guards gate progress through the ϕ̃ translation of
// Definition 4.8 (R_pre and R_post both read the current views; IsBind
// atoms are dropped — on crossing transitions their arguments are constants
// by condition 5, and within a stage the accessed tuples feeding the views
// already witness the binding). The negated parts of guards are collected
// into P'_A as a disjunction over the backgrounds, so a counterexample
// database to the containment is exactly a choice of background relations
// on which every positive obligation is satisfiable and no forbidden
// pattern occurs.
//
// Scope note (a substitution for the paper's construction): applying the
// negated guards globally to the backgrounds is exact for automata whose
// negative constraints are path invariants — every negated sentence occurs
// in the guard of every transition of the stages it spans, which holds for
// all automata this repository compiles from integrity-constraint
// specifications (G¬q conjuncts). For other automata the reduction is
// conservative: "empty" answers may be pessimistic; the direct engine
// (IsEmpty) remains the reference.

// DatalogReduction is the output of ToDatalogContainment.
type DatalogReduction struct {
	Program *datalog.Program
	// Phi is the positive sentence P'_A.
	Phi fo.Formula
	// Stages is the number of SCC stages h.
	Stages int
}

// backgroundPred names B<i>_R.
func backgroundPred(stage int, rel string) fo.Pred {
	return fo.PlainPred(fmt.Sprintf("B%d_%s", stage, rel))
}

// viewPred names V<i>_R.
func viewPred(stage int, rel string) fo.Pred {
	return fo.PlainPred(fmt.Sprintf("V%d_%s", stage, rel))
}

// crossPred names Cross<i>.
func crossPred(stage int) fo.Pred {
	return fo.PlainPred(fmt.Sprintf("Cross%d", stage))
}

// ToDatalogContainment builds (P_A, P'_A) for a progressive automaton.
func (a *Automaton) ToDatalogContainment() (*DatalogReduction, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if !a.IsProgressive() {
		return nil, fmt.Errorf("autom: ToDatalogContainment requires a progressive automaton (run Decompose first)")
	}
	comp, count := a.SCCs()
	order := topoOrder(comp, count, a)
	stageOf := make(map[int]int, count) // component -> 1-based stage
	for i, c := range order {
		stageOf[c] = i + 1
	}
	h := count

	rels := a.Schema.Relations()
	goal := fo.PlainPred("AccGoal")
	prog := &datalog.Program{Goal: goal}

	relVars := func(arity int, prefix string) []fo.Term {
		out := make([]fo.Term, arity)
		for i := range out {
			out[i] = fo.Var(fmt.Sprintf("%s%d", prefix, i))
		}
		return out
	}

	// Stage-entry predicates: In<i>() holds when stage i is active.
	inPred := func(stage int) fo.Pred { return fo.PlainPred(fmt.Sprintf("In%d", stage)) }
	prog.Rules = append(prog.Rules, datalog.Rule{Head: fo.Atom{Pred: inPred(1)}})
	for i := 1; i < h; i++ {
		prog.Rules = append(prog.Rules, datalog.Rule{
			Head: fo.Atom{Pred: inPred(i + 1)},
			Body: []fo.Atom{{Pred: crossPred(i)}},
		})
	}

	// View accumulation: V<i>_R ⊇ B<i>_R once stage i is active, and
	// V<i>_R ⊇ V<i-1>_R (views persist across stages).
	for i := 1; i <= h; i++ {
		for _, r := range rels {
			vs := relVars(r.Arity(), "x")
			atomArgs := make([]fo.Term, len(vs))
			copy(atomArgs, vs)
			prog.Rules = append(prog.Rules, datalog.Rule{
				Head: fo.Atom{Pred: viewPred(i, r.Name()), Args: atomArgs},
				Body: []fo.Atom{
					{Pred: inPred(i)},
					{Pred: backgroundPred(i, r.Name()), Args: atomArgs},
				},
			})
			if i > 1 {
				prog.Rules = append(prog.Rules, datalog.Rule{
					Head: fo.Atom{Pred: viewPred(i, r.Name()), Args: atomArgs},
					Body: []fo.Atom{{Pred: viewPred(i-1, r.Name()), Args: atomArgs}},
				})
			}
		}
	}

	// Crossing rules: for the unique transition from stage i to i+1, its
	// positive obligation (translated to views of stage i) gates Cross<i>.
	crossed := make(map[int]bool)
	var negatedSentences []fo.Formula
	seenNeg := make(map[string]bool)
	for _, t := range a.Transitions {
		si, sj := stageOf[comp[t.From]], stageOf[comp[t.To]]
		pos, negs := splitGuard(t.Guard)
		for _, n := range negs {
			if !seenNeg[n.String()] {
				seenNeg[n.String()] = true
				negatedSentences = append(negatedSentences, n)
			}
		}
		if si == sj {
			continue // inner transitions already covered by view accumulation
		}
		// Positive obligation over stage-i views, one rule per CQ disjunct.
		cqs, err := guardCQs(pos, si)
		if err != nil {
			return nil, err
		}
		for _, body := range cqs {
			prog.Rules = append(prog.Rules, datalog.Rule{
				Head: fo.Atom{Pred: crossPred(si)},
				Body: append([]fo.Atom{{Pred: inPred(si)}}, body...),
			})
		}
		if len(cqs) > 0 {
			crossed[si] = true
		}
	}
	// A crossing stage with an unsatisfiable obligation makes the chain
	// unrealizable: without a rule, Cross<i> would silently become an
	// extensional predicate a counterexample database could forge. Return
	// the trivially-contained instance instead ("language empty").
	for i := 1; i < h; i++ {
		if !crossed[i] {
			return &DatalogReduction{
				Program: &datalog.Program{
					Rules: []datalog.Rule{
						{Head: fo.Atom{Pred: goal}, Body: []fo.Atom{{Pred: fo.PlainPred("UnreachableEDB")}}},
					},
					Goal: goal,
				},
				Phi:    fo.Truth{Val: true},
				Stages: h,
			}, nil
		}
	}
	// Goal: final stage active, and if the automaton requires a final
	// accepting transition obligation within stage h, the view rules have
	// already admitted it.
	prog.Rules = append(prog.Rules, datalog.Rule{
		Head: fo.Atom{Pred: goal},
		Body: []fo.Atom{{Pred: inPred(h)}},
	})

	// P'_A: the union of forbidden patterns over the backgrounds.
	var disj []fo.Formula
	for _, q := range negatedSentences {
		bq, err := sentenceOverBackgrounds(q, h)
		if err != nil {
			return nil, err
		}
		disj = append(disj, bq)
	}
	phi := fo.Disj(disj...)
	return &DatalogReduction{Program: prog, Phi: phi, Stages: h}, nil
}

// splitGuard separates a ψ− ∧ ψ+ guard into its positive part and the list
// of negated sentences.
func splitGuard(g fo.Formula) (pos fo.Formula, negs []fo.Formula) {
	switch x := g.(type) {
	case fo.Not:
		return fo.Truth{Val: true}, []fo.Formula{x.F}
	case fo.And:
		var posParts []fo.Formula
		for _, c := range x.Conj {
			p, n := splitGuard(c)
			posParts = append(posParts, p)
			negs = append(negs, n...)
		}
		return fo.Conj(posParts...), negs
	default:
		return g, nil
	}
}

// guardCQs translates the positive guard part into Datalog rule bodies over
// the stage's view predicates: the ϕ̃ translation mapping both R_pre and
// R_post to V<stage>_R and dropping IsBind atoms.
func guardCQs(pos fo.Formula, stage int) ([][]fo.Atom, error) {
	mapped := mapPredsToViews(pos, stage)
	if !fo.IsPositive(mapped) {
		return nil, fmt.Errorf("autom: positive guard part %s contains negation", pos)
	}
	cqs, err := fo.ToUCQ(mapped)
	if err != nil {
		return nil, err
	}
	var out [][]fo.Atom
	for _, cq := range cqs {
		if len(cq.Neqs) > 0 {
			return nil, fmt.Errorf("autom: inequalities in guards are outside Lemma 4.10 (Theorem 5.2)")
		}
		// Equalities from the UCQ conversion are applied by freezing the CQ
		// pattern: merge equated terms via the canonical-database
		// machinery, then read the merged atoms back. Simpler here: apply
		// the equalities as a substitution over variable pairs; an
		// equality forcing two distinct constants makes the disjunct
		// unsatisfiable.
		body, ok := applyEqualities(cq)
		if !ok {
			continue
		}
		out = append(out, body)
	}
	return out, nil
}

// applyEqualities merges equated terms of a CQ into its atoms; ok is false
// when an equality forces two distinct constants.
func applyEqualities(cq fo.CQ) ([]fo.Atom, bool) {
	rep := make(map[string]fo.Term) // variable -> representative term
	var resolve func(t fo.Term) fo.Term
	resolve = func(t fo.Term) fo.Term {
		for t.IsVar() {
			nt, ok := rep[t.Name()]
			if !ok {
				return t
			}
			t = nt
		}
		return t
	}
	for _, e := range cq.Eqs {
		l, r := resolve(e.L), resolve(e.R)
		switch {
		case l.IsVar():
			rep[l.Name()] = r
		case r.IsVar():
			rep[r.Name()] = l
		default:
			if l.Value() != r.Value() {
				return nil, false
			}
		}
	}
	out := make([]fo.Atom, len(cq.Atoms))
	for i, a := range cq.Atoms {
		args := make([]fo.Term, len(a.Args))
		for j, t := range a.Args {
			args[j] = resolve(t)
		}
		out[i] = fo.Atom{Pred: a.Pred, Args: args}
	}
	return out, true
}

// mapPredsToViews rewrites R_pre/R_post atoms to V<stage>_R and drops
// IsBind atoms.
func mapPredsToViews(f fo.Formula, stage int) fo.Formula {
	switch g := f.(type) {
	case fo.Atom:
		switch g.Pred.Stage {
		case fo.Pre, fo.Post:
			return fo.Atom{Pred: viewPred(stage, g.Pred.Name), Args: g.Args}
		case fo.IsBind:
			return fo.Truth{Val: true}
		default:
			return g
		}
	case fo.And:
		out := make([]fo.Formula, len(g.Conj))
		for i, c := range g.Conj {
			out[i] = mapPredsToViews(c, stage)
		}
		return fo.Conj(out...)
	case fo.Or:
		out := make([]fo.Formula, len(g.Disj))
		for i, d := range g.Disj {
			out[i] = mapPredsToViews(d, stage)
		}
		return fo.Disj(out...)
	case fo.Exists:
		return fo.Exists{Vars: g.Vars, Body: mapPredsToViews(g.Body, stage)}
	case fo.Not:
		return fo.Not{F: mapPredsToViews(g.F, stage)}
	default:
		return f
	}
}

// sentenceOverBackgrounds rewrites a forbidden pattern q so each R_pre or
// R_post atom reads the union of all stage backgrounds.
func sentenceOverBackgrounds(f fo.Formula, stages int) (fo.Formula, error) {
	switch g := f.(type) {
	case fo.Atom:
		switch g.Pred.Stage {
		case fo.Pre, fo.Post:
			var disj []fo.Formula
			for i := 1; i <= stages; i++ {
				disj = append(disj, fo.Atom{Pred: backgroundPred(i, g.Pred.Name), Args: g.Args})
			}
			return fo.Disj(disj...), nil
		case fo.IsBind:
			return fo.Truth{Val: false}, fmt.Errorf("autom: negated guard mentions IsBind (forbidden by Definition 4.3)")
		default:
			return g, nil
		}
	case fo.And:
		out := make([]fo.Formula, len(g.Conj))
		for i, c := range g.Conj {
			m, err := sentenceOverBackgrounds(c, stages)
			if err != nil {
				return nil, err
			}
			out[i] = m
		}
		return fo.Conj(out...), nil
	case fo.Or:
		out := make([]fo.Formula, len(g.Disj))
		for i, d := range g.Disj {
			m, err := sentenceOverBackgrounds(d, stages)
			if err != nil {
				return nil, err
			}
			out[i] = m
		}
		return fo.Disj(out...), nil
	case fo.Exists:
		b, err := sentenceOverBackgrounds(g.Body, stages)
		if err != nil {
			return nil, err
		}
		return fo.Exists{Vars: g.Vars, Body: b}, nil
	case fo.Truth, fo.Eq, fo.Neq:
		return g, nil
	default:
		return nil, fmt.Errorf("autom: unsupported node %T in negated guard", f)
	}
}

// EmptyViaDatalog decides emptiness through the Lemma 4.10 pipeline:
// decompose into progressive automata, reduce each to a containment
// instance, and report empty iff every P_A is contained in its P'_A.
// exact reports whether every underlying containment verdict was
// unconditional.
func (a *Automaton) EmptyViaDatalog(depth int) (empty, exact bool, err error) {
	subs, err := a.Decompose(0)
	if err != nil {
		return false, false, err
	}
	if len(subs) == 0 {
		return true, true, nil // no accepting component reachable
	}
	exact = true
	for _, sub := range subs {
		red, err := sub.ToDatalogContainment()
		if err != nil {
			return false, false, err
		}
		// An automaton with no forbidden patterns: P'_A is the empty
		// disjunction (false), so non-containment holds iff P_A has any
		// expansion — which it does by construction (goal reachable).
		res, err := red.Program.ContainedIn(red.Phi, depth)
		if err != nil {
			// Phi may be Truth{false}; ContainedIn rejects non-sentences?
			// fo.Truth is a positive sentence, so other errors are real.
			return false, false, err
		}
		if !res.Exact {
			exact = false
		}
		if !res.Contained {
			return false, true, nil // witness stage assignment exists
		}
	}
	return true, exact, nil
}
