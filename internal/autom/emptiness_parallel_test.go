package autom

import (
	"context"
	"errors"
	"testing"
	"time"

	"accltl/internal/accltl"
	"accltl/internal/fo"
	"accltl/internal/instance"
	"accltl/internal/lts"
	"accltl/internal/pollctx"
)

// TestIsEmptyParallelMatchesSerial pins the product search across the W
// grid against its one-walker run, over formulas with both verdicts:
// exhaustive searches must agree on Empty and the honesty flags, and every
// witness must pass the run semantics. Since the search at one walker is
// the same engine, every verdict that is not truncated is also checked
// against an independent reference: the brute-force oracle, the serial walk
// of lts.EnumeratePaths over the search's own exploration space, each path
// run through Automaton.Accepts.
func TestIsEmptyParallelMatchesSerial(t *testing.T) {
	s := twoRelSchema(t)
	formulas := []accltl.Formula{
		accltl.F(accltl.Atom{Sentence: postNE("R0")}),
		accltl.Conj(
			accltl.F(accltl.Atom{Sentence: postNE("R0")}),
			accltl.G(accltl.Not{F: accltl.Atom{Sentence: postNE("R0")}}),
		),
		accltl.Until{
			L: accltl.Not{F: accltl.Atom{Sentence: preNE("R1")}},
			R: accltl.Atom{Sentence: postNE("R0")},
		},
	}
	// MaxDepth 4 keeps the unsatisfiable instances' exhaustive searches
	// small while still spanning several levels of sharded fan-out (the
	// automaton-derived default bound blows the space up).
	grids := []EmptinessOptions{
		{MaxDepth: 4},
		{MaxDepth: 4, Grounded: true},
		{MaxDepth: 4, IdempotentOnly: true},
		{MaxDepth: 4, AllExact: true},
	}
	for fi, f := range formulas {
		a, err := CompileAccLTLPlus(s, f)
		if err != nil {
			t.Fatalf("formula %d: %v", fi, err)
		}
		for gi, base := range grids {
			one, err := a.IsEmpty(base)
			if err != nil {
				t.Fatalf("formula %d grid %d one walker: %v", fi, gi, err)
			}
			oracle := oracleEmpty(t, a, base)
			for _, w := range []int{1, 2, 4, 8} {
				popts := base
				popts.Parallelism = w
				par, err := a.IsEmpty(popts)
				if err != nil {
					t.Fatalf("formula %d grid %d w=%d: %v", fi, gi, w, err)
				}
				if !par.Truncated && !par.Satisfiable != oracle {
					t.Errorf("formula %d grid %d w=%d: Empty=%v, brute-force oracle %v", fi, gi, w, !par.Satisfiable, oracle)
				}
				if par.Satisfiable != one.Satisfiable {
					t.Errorf("formula %d grid %d w=%d: Empty=%v, one walker %v", fi, gi, w, !par.Satisfiable, !one.Satisfiable)
					continue
				}
				if !par.Satisfiable {
					if par.Truncated != one.Truncated || par.ResponsesCapped != one.ResponsesCapped {
						t.Errorf("formula %d grid %d w=%d: honesty flags diverge: one walker trunc=%v caps=%v, parallel trunc=%v caps=%v",
							fi, gi, w, one.Truncated, one.ResponsesCapped, par.Truncated, par.ResponsesCapped)
					}
					continue
				}
				if par.Witness.Len() > 0 {
					ok, err := a.Accepts(par.Witness)
					if err != nil || !ok {
						t.Errorf("formula %d grid %d w=%d: witness rejected: ok=%v err=%v", fi, gi, w, ok, err)
					}
				}
			}
		}
	}
}

// oracleEmpty decides emptiness by brute force over the space an emptiness
// search of a under opts explores: every path the serial walk
// lts.EnumeratePaths reaches, uncapped, run through Accepts. It shares
// nothing with the product search loop but the exploration options.
func oracleEmpty(t *testing.T, a *Automaton, opts EmptinessOptions) bool {
	t.Helper()
	if a.AcceptEmpty && a.Accepting[a.Init] {
		return false
	}
	o, _, err := a.emptinessLTSOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	o.MaxPaths = 0
	paths, err := lts.EnumeratePaths(a.Schema, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if p.Len() == 0 {
			continue
		}
		ok, err := a.Accepts(p)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return false
		}
	}
	return true
}

// TestIsEmptyParallelContextCancellation: a context that expires while four
// walkers search surfaces as the context's error from the search, never a
// verdict. As in the solver's test, the context fails from its tenth poll
// on, inside the walk of an exhaustive search over a universe where no
// value is in both R0 and R1.
func TestIsEmptyParallelContextCancellation(t *testing.T) {
	s := twoRelSchema(t)
	u := instance.NewInstance(s)
	for i := 0; i < 6; i++ {
		u.MustAdd("R0", instance.Int(int64(i)))
		u.MustAdd("R1", instance.Int(int64(100+i)))
	}
	f := accltl.F(accltl.Atom{Sentence: fo.Ex([]string{"x"}, fo.Conj(
		fo.Atom{Pred: fo.PostPred("R0"), Args: []fo.Term{fo.Var("x")}},
		fo.Atom{Pred: fo.PostPred("R1"), Args: []fo.Term{fo.Var("x")}}))})
	a, err := CompileAccLTLPlus(s, f)
	if err != nil {
		t.Fatal(err)
	}
	ctx := pollctx.New(10, context.DeadlineExceeded)
	start := time.Now()
	res, err := a.IsEmpty(EmptinessOptions{Context: ctx, Universe: u, MaxDepth: 4, Parallelism: 4})
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
