package accltl

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"accltl/internal/fo"
	"accltl/internal/instance"
	"accltl/internal/lts"
	"accltl/internal/pollctx"
)

// TestSolveParallelMatchesSerialAcrossGrid is the solver-level golden test
// of the walker count: over the same formula × option grid the pruning
// equivalence test uses, every Parallelism must reproduce the one-walker
// verdict whenever the search ran to exhaustion, and any witness must pass
// the direct semantics. Path-capped searches visit a schedule-dependent
// subset of the space, so — exactly as with the pruning ablation — verdicts
// there may only diverge when a Truncated flag says so. Since the search at
// one walker is the same engine, every verdict that is not truncated is
// also checked against an independent reference: the brute-force oracle,
// the serial walk of lts.EnumeratePaths over the solver's own exploration
// space, evaluated with the direct semantics.
func TestSolveParallelMatchesSerialAcrossGrid(t *testing.T) {
	s := chainSchema(t)
	formulas := map[string]Formula{
		"reach-R1":  F(postNonEmpty("R1")),
		"nested":    F(Conj(postNonEmpty("R0"), F(postNonEmpty("R1")))),
		"unsat":     Conj(F(postNonEmpty("R0")), G(Not{F: postNonEmpty("R0")})),
		"bind-then": Conj(bind0("scanR0"), Next{F: bind0("chkR1")}),
	}
	grid := []struct {
		name string
		opts SolveOptions
	}{
		{"plain", SolveOptions{Schema: s, MaxDepth: 3}},
		{"grounded", SolveOptions{Schema: s, MaxDepth: 3, Grounded: true}},
		{"idempotent", SolveOptions{Schema: s, MaxDepth: 3, IdempotentOnly: true}},
		{"all-exact", SolveOptions{Schema: s, MaxDepth: 3, AllExact: true}},
		{"exact-subset", SolveOptions{Schema: s, MaxDepth: 3, ExactMethods: map[string]bool{"scanR0": true}}},
		{"resp-choices=1", SolveOptions{Schema: s, MaxDepth: 3, MaxResponseChoices: 1}},
		{"paths-capped", SolveOptions{Schema: s, MaxDepth: 3, MaxPaths: 30}},
		{"grounded+idempotent", SolveOptions{Schema: s, MaxDepth: 3, Grounded: true, IdempotentOnly: true}},
		{"no-pruning", SolveOptions{Schema: s, MaxDepth: 3, DisableLTLPruning: true}},
	}
	for fname, f := range formulas {
		for _, g := range grid {
			one, err := SolveZeroAcc(f, g.opts)
			if err != nil {
				t.Fatalf("%s/%s one walker: %v", fname, g.name, err)
			}
			oracle := oracleSatisfiable(t, f, g.opts)
			for _, w := range []int{1, 2, 4, 8} {
				t.Run(fname+"/"+g.name+"/w="+string(rune('0'+w)), func(t *testing.T) {
					popts := g.opts
					popts.Parallelism = w
					par, err := SolveZeroAcc(f, popts)
					if err != nil {
						t.Fatalf("parallel: %v", err)
					}
					for name, res := range map[string]SolveResult{"one walker": one, "parallel": par} {
						if !res.Truncated && res.Satisfiable != oracle {
							t.Errorf("%s: satisfiable=%v, brute-force oracle %v", name, res.Satisfiable, oracle)
						}
					}
					if par.Satisfiable != one.Satisfiable {
						if !par.Truncated && !one.Truncated {
							t.Fatalf("verdicts diverge without truncation: one walker=%+v parallel=%+v", one, par)
						}
						return
					}
					if par.Satisfiable {
						// Witnesses may differ; both must pass the direct
						// semantics (the solver self-checks, assert anyway).
						for name, res := range map[string]SolveResult{"one walker": one, "parallel": par} {
							ts, err := res.Witness.Transitions(nil)
							if err != nil {
								t.Fatal(err)
							}
							ok, err := Satisfied(f, ts, ZeroAcc)
							if err != nil {
								t.Fatal(err)
							}
							if !ok {
								t.Errorf("%s: witness rejected by direct semantics: %s", name, res.Witness)
							}
						}
						return
					}
					// Unsat without a path cap: the honesty flags are
					// properties of the exhaustive space and must agree.
					if g.opts.MaxPaths == 0 {
						if par.Truncated != one.Truncated || par.ResponsesCapped != one.ResponsesCapped {
							t.Errorf("honesty flags diverge: one walker trunc=%v caps=%v, parallel trunc=%v caps=%v",
								one.Truncated, one.ResponsesCapped, par.Truncated, par.ResponsesCapped)
						}
						if par.PathsExplored != one.PathsExplored && !g.opts.IdempotentOnly && g.name != "no-pruning" {
							// Shared-memo timing can change how much the
							// parallel engine expands, but never the verdict;
							// log for visibility, don't fail.
							t.Logf("paths explored: one walker=%d parallel=%d", one.PathsExplored, par.PathsExplored)
						}
					}
				})
			}
		}
	}
}

// oracleSatisfiable decides f by brute force over the space a bounded
// search of f under opts explores: every path the serial walk
// lts.EnumeratePaths reaches, uncapped, evaluated with the direct
// semantics. It shares nothing with the solver's search loop but the
// exploration options.
func oracleSatisfiable(t *testing.T, f Formula, opts SolveOptions) bool {
	t.Helper()
	o, _, err := searchLTSOptions(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	o.MaxPaths = 0
	paths, err := lts.EnumeratePaths(opts.Schema, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if p.Len() == 0 {
			continue
		}
		ts, err := p.Transitions(opts.Initial)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := Satisfied(f, ts, ZeroAcc)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return true
		}
	}
	return false
}

// TestSolveParallelOtherEntryPoints smoke-tests that every bounded entry
// point honours Parallelism (they all share boundedSearch).
func TestSolveParallelOtherEntryPoints(t *testing.T) {
	s := chainSchema(t)
	f := F(Conj(postNonEmpty("R0"), F(postNonEmpty("R1"))))
	for name, run := range map[string]func() (SolveResult, error){
		"bounded": func() (SolveResult, error) {
			return SolveBounded(f, SolveOptions{Schema: s, MaxDepth: 3, Parallelism: 4})
		},
		"plus-direct": func() (SolveResult, error) {
			return SolvePlusDirect(f, SolveOptions{Schema: s, MaxDepth: 3, Parallelism: 4})
		},
		"x-fragment": func() (SolveResult, error) {
			return SolveX(Next{F: bind0("scanR0")}, SolveOptions{Schema: s, Parallelism: 4})
		},
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Satisfiable {
			t.Errorf("%s: unexpectedly unsatisfiable: %+v", name, res)
		}
	}
}

// TestSolveParallelContextCancellation: a context that expires while four
// walkers search stops them with the context's error, never a verdict. The
// context fails from its tenth poll on: past the entry checks, so the
// expiry lands inside the walk, which polls over a hundred times when it
// runs to the end (no value of the universe is in both R0 and R1, so the
// formula is unsatisfiable and the search is exhaustive).
func TestSolveParallelContextCancellation(t *testing.T) {
	s := chainSchema(t)
	u := instance.NewInstance(s)
	for i := 0; i < 6; i++ {
		u.MustAdd("R0", instance.Int(int64(i)))
		u.MustAdd("R1", instance.Int(int64(100+i)))
	}
	f := F(Atom{Sentence: fo.Ex([]string{"x"}, fo.Conj(
		fo.Atom{Pred: fo.PostPred("R0"), Args: []fo.Term{fo.Var("x")}},
		fo.Atom{Pred: fo.PostPred("R1"), Args: []fo.Term{fo.Var("x")}}))})
	ctx := pollctx.New(10, context.DeadlineExceeded)
	start := time.Now()
	res, err := SolveZeroAcc(f, SolveOptions{Schema: s, Universe: u, MaxDepth: 4, Parallelism: 4, Context: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if res.PathsExplored == 0 {
		t.Errorf("the search expired before its walk (%d polls)", ctx.Polls())
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %s", elapsed)
	}
}

// TestSolveParallelWitnessRepeatable: repeated parallel runs of the same
// satisfiable instance must each return a valid witness (stability of the
// *choice* is best-effort via the lowest-shard preference and deliberately
// not asserted — see SolveOptions.Parallelism).
func TestSolveParallelWitnessRepeatable(t *testing.T) {
	s := chainSchema(t)
	f := F(Conj(postNonEmpty("R0"), F(postNonEmpty("R1"))))
	for i := 0; i < 3; i++ {
		res, err := SolveZeroAcc(f, SolveOptions{Schema: s, MaxDepth: 3, Parallelism: 4})
		if err != nil || !res.Satisfiable {
			t.Fatalf("run %d: res=%+v err=%v", i, res, err)
		}
		ts, err := res.Witness.Transitions(nil)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := Satisfied(f, ts, ZeroAcc)
		if err != nil || !ok {
			t.Fatalf("run %d: witness rejected: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestSolverMemoCarriesPlan: a prepared search's plan is the one its
// tables are searched over — searching the partition shard by shard through
// one Prepared enumerates it once, and every round runs on the plan the
// preparation built — and the rounds agree with a fresh plan and with the
// one-shot verdict.
func TestSolverMemoCarriesPlan(t *testing.T) {
	s := chainSchema(t)
	f := Conj(F(postNonEmpty("R0")), G(Not{F: postNonEmpty("R0")}))
	opts := SolveOptions{Schema: s, MaxDepth: 3}
	full, err := SolveZeroAcc(f, opts)
	if err != nil || full.Satisfiable {
		t.Fatalf("one-shot: %+v, %v", full, err)
	}
	o, _, err := searchLTSOptions(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := lts.NewPlan(s, o)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.IDs()
	p, err := Prepare(ProcZeroAcc, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan := p.Plan()
	if ids := plan.IDs(); !reflect.DeepEqual(ids, want) {
		t.Fatalf("prepared plan %v, fresh plan %v", ids, want)
	}
	for _, id := range want {
		res, err := p.Search(nil, 1, []int{id.Index})
		if err != nil || res.Satisfiable || res.TotalShards != len(want) {
			t.Fatalf("shard %d: %+v, %v", id.Index, res, err)
		}
	}
	if again := p.Plan(); again != plan {
		t.Errorf("rounds re-planned: %p; planned %p", again, plan)
	}
}

// TestSolverMemoWidensForLaterWalkers: a prepared search first searched at
// one walker (one lock stripe) is widened by a later search with more
// walkers, as a checkpoint created by a one-walker request and resumed by
// wider ones is, and the wider search's verdict stays the one-shot one.
func TestSolverMemoWidensForLaterWalkers(t *testing.T) {
	s := chainSchema(t)
	f := Conj(F(postNonEmpty("R0")), G(Not{F: postNonEmpty("R0")}))
	p, err := Prepare(ProcZeroAcc, f, SolveOptions{Schema: s, MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		res, err := p.Search(nil, w, nil)
		if err != nil || res.Satisfiable {
			t.Fatalf("W=%d: %+v, %v", w, res, err)
		}
		if got, want := len(p.prog.stripes), lts.Stripes(w); got != want {
			t.Errorf("W=%d: progression cache has %d stripes, want %d", w, got, want)
		}
	}
}
