package accltl

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"accltl/internal/lts"
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

// TestSolveParallelContextCancellation: an expiring budget stops all
// walkers promptly with the context's error, never a wrong verdict.
func TestSolveParallelContextCancellation(t *testing.T) {
	s := chainSchema(t)
	// Unsatisfiable and deep: the search would exhaust a large space.
	f := Conj(F(postNonEmpty("R0")), G(Not{F: postNonEmpty("R0")}))
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := SolveZeroAcc(f, SolveOptions{Schema: s, MaxDepth: 8, Parallelism: 4, Context: ctx})
	if err == nil {
		// A machine fast enough to finish depth 8 in a millisecond is
		// acceptable; anything else must surface the deadline.
		t.Skip("search completed inside the budget")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %s", elapsed)
	}
}

// TestSolveParallelWitnessRepeatable: repeated parallel runs of the same
// satisfiable instance must each return a valid witness (stability of the
// *choice* is best-effort via the sorted shard order and deliberately not
// asserted — see SolveOptions.Parallelism).
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

// TestSolverMemoCarriesPlan: planning through a memo and then searching
// the partition shard by shard through it enumerates the partition once —
// every round runs on the plan PlanShards built — and the rounds agree
// with the memo-less plan and the memo-less verdict.
func TestSolverMemoCarriesPlan(t *testing.T) {
	s := chainSchema(t)
	f := Conj(F(postNonEmpty("R0")), G(Not{F: postNonEmpty("R0")}))
	opts := SolveOptions{Schema: s, MaxDepth: 3}
	full, err := SolveZeroAcc(f, opts)
	if err != nil || full.Satisfiable {
		t.Fatalf("memo-less: %+v, %v", full, err)
	}
	want, _, err := PlanShards(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewSolverMemo()
	mopts := opts
	mopts.Memo = memo
	ids, _, err := PlanShards(f, mopts)
	if err != nil || !reflect.DeepEqual(ids, want) {
		t.Fatalf("memo plan %v (%v), fresh plan %v", ids, err, want)
	}
	plan, err := memo.setup.Plan(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		o := mopts
		o.Shards = []int{id.Index}
		res, err := SolveZeroAcc(f, o)
		if err != nil || res.Satisfiable || res.TotalShards != len(ids) {
			t.Fatalf("shard %d: %+v, %v", id.Index, res, err)
		}
	}
	if again, err := memo.setup.Plan(nil, s); err != nil || again != plan {
		t.Errorf("rounds re-planned: %p, %v; planned %p", again, err, plan)
	}
}

// TestSolverMemoWidensForLaterWalkers: a memo first searched at one walker
// (one lock stripe) is widened by a later search with more walkers, as a
// checkpoint created by a one-walker request and resumed by wider ones is,
// and the wider search's verdict stays the memo-less one.
func TestSolverMemoWidensForLaterWalkers(t *testing.T) {
	s := chainSchema(t)
	f := Conj(F(postNonEmpty("R0")), G(Not{F: postNonEmpty("R0")}))
	memo := NewSolverMemo()
	for _, w := range []int{1, 4} {
		res, err := SolveZeroAcc(f, SolveOptions{Schema: s, MaxDepth: 3, Parallelism: w, Memo: memo})
		if err != nil || res.Satisfiable {
			t.Fatalf("W=%d: %+v, %v", w, res, err)
		}
		if got, want := len(memo.prog.stripes), lts.Stripes(w); got != want {
			t.Errorf("W=%d: progression cache has %d stripes, want %d", w, got, want)
		}
	}
}
