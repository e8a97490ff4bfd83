// figure2 regenerates Figure 2 of the paper: the inclusion diagram between
// the language classes. For each edge it demonstrates the inclusion
// constructively (translating or compiling a witness specification from the
// smaller class into the larger and checking the verdicts agree), and for
// the key strictness claims it exhibits a separating property.
package main

import (
	"context"
	"fmt"
	"log"

	"accltl/accesscheck"
	"accltl/internal/accltl"
	"accltl/internal/autom"
	"accltl/internal/workload"
)

func main() {
	ctx := context.Background()
	phone := workload.MustPhone()
	sch := phone.Schema

	fmt.Println("Figure 2: inclusions between language classes.")
	fmt.Println()
	fmt.Println("  AccLTL(X)(FO∃+,≠_0-Acc) ⊂ AccLTL(FO∃+,≠_0-Acc)")
	fmt.Println("  AccLTL(FO∃+_0-Acc)      ⊂ AccLTL(FO∃+,≠_0-Acc)")
	fmt.Println("  AccLTL(FO∃+_0-Acc)      ⊂ AccLTL+")
	fmt.Println("  AccLTL+                 ⊂ AccLTL(FO∃+_Acc)")
	fmt.Println("  AccLTL+                 ⊂ A-automata (Lemma 4.5)")
	fmt.Println()

	// Edge 1: X-fragment ⊆ 0-Acc fragment — every X-only formula runs
	// through both solvers with the same verdict.
	xFormula := accesscheck.Next(accesscheck.Atom(phone.MobileNonEmptyPost()))
	xRes, err := accesscheck.Check(ctx, sch, xFormula,
		accesscheck.WithEngine(accesscheck.EngineX))
	check(err)
	zRes, err := accesscheck.Check(ctx, sch, xFormula,
		accesscheck.WithEngine(accesscheck.EngineZeroAcc))
	check(err)
	fmt.Printf("[X ⊆ 0-Acc]    %s: X-solver=%v 0-Acc-solver=%v\n", xFormula, xRes.Satisfiable, zRes.Satisfiable)
	if xRes.Satisfiable != zRes.Satisfiable {
		log.Fatal("inclusion broken")
	}

	// Strictness: U is not expressible with X alone — the access-order
	// spec needs U and is rejected by the X solver.
	accOr := phone.AccessOrderRestriction()
	if _, err := accesscheck.Check(ctx, sch, accOr,
		accesscheck.WithEngine(accesscheck.EngineX)); err == nil {
		log.Fatal("U formula accepted by X solver")
	}
	fmt.Printf("[X ⊂ 0-Acc]    separator: %s (uses U; rejected by the X fragment)\n", accOr)

	// Edge 2: 0-Acc ⊆ AccLTL+ — the Section 6 rewriting: 0-ary IsBind
	// predicates become existentially quantified n-ary ones (negated 0-ary
	// IsBind rewrites through the disjunction over the other methods).
	zero := accesscheck.MustParseFormula(`F [bind AcM1]`)
	lifted := accesscheck.MustParseFormula(`F [exists x. bind AcM1(x)]`)
	zr, err := accesscheck.Check(ctx, sch, zero,
		accesscheck.WithEngine(accesscheck.EngineZeroAcc))
	check(err)
	pr, err := accesscheck.Check(ctx, sch, lifted,
		accesscheck.WithEngine(accesscheck.EnginePlus))
	check(err)
	fmt.Printf("[0-Acc ⊆ +]    0-ary IsBind lifted to ∃-quantified: %v / %v\n", zr.Satisfiable, pr.Satisfiable)
	if zr.Satisfiable != pr.Satisfiable {
		log.Fatal("inclusion broken")
	}

	// Strictness: dataflow restrictions need n-ary bindings (Table 1 DF
	// column): the DF spec is outside 0-Acc.
	df := phone.DataflowRestriction()
	if accesscheck.Classify(df).ZeroAcc {
		log.Fatal("DF spec wrongly classified 0-Acc")
	}
	fmt.Printf("[0-Acc ⊂ +]    separator: dataflow spec %s\n", df)

	// Edge 3: AccLTL+ ⊆ AccLTL(FO∃+_Acc) — syntactic (binding-positive is
	// a restriction); the full class additionally admits negated IsBind.
	negBind := accesscheck.MustParseFormula(`![exists x. bind AcM1(x)]`)
	info := accesscheck.Classify(negBind)
	if info.BindingPositive {
		log.Fatal("negated IsBind classified binding-positive")
	}
	frag, _ := info.Fragment()
	fmt.Printf("[+ ⊂ Full]     separator: %s (fragment %s)\n", negBind, frag)

	// Edge 4: AccLTL+ ⊆ A-automata — Lemma 4.5 compilation, verdict
	// agreement between the direct solver and automaton emptiness.
	intro := phone.IntroFormula()
	ar, err := accesscheck.Check(ctx, sch, intro,
		accesscheck.WithEngine(accesscheck.EngineAutomaton))
	check(err)
	dr, err := accesscheck.Check(ctx, sch, intro,
		accesscheck.WithEngine(accesscheck.EnginePlus))
	check(err)
	fmt.Printf("[+ ⊆ A-autom.] intro formula compiled to %d states: nonempty=%v direct=%v\n",
		ar.AutomatonStates, ar.Satisfiable, dr.Satisfiable)
	if ar.Satisfiable != dr.Satisfiable {
		log.Fatal("compilation inclusion broken")
	}

	// Strictness: A-automata express parity of path length, which no
	// first-order AccLTL formula can (Section 6). Exhibit the automaton —
	// built directly against the automaton layer, since parity is exactly
	// what the AccLTL facade cannot say.
	parity := autom.New(sch, 2, 0)
	parity.MustAddTransition(0, accesscheck.TrueSentence(), 1)
	parity.MustAddTransition(1, accesscheck.TrueSentence(), 0)
	parity.SetAccepting(1)
	res, err := parity.IsEmpty(accltl.SolveOptions{Context: ctx, MaxDepth: 3})
	check(err)
	fmt.Printf("[+ ⊂ A-autom.] separator: odd-length parity automaton (nonempty=%v, witness length %d)\n",
		res.Satisfiable, res.Witness.Len())
	if !res.Satisfiable || res.Witness.Len()%2 != 1 {
		log.Fatal("parity automaton misbehaved")
	}

	fmt.Println("\nall inclusion edges verified")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
