package accesscheck

import (
	"context"
	"testing"

	"accltl/accesscheck/cache"
	"accltl/internal/autom"
	"accltl/internal/lts"
)

// checkpointPlan is the root partition of the checkpoint's prepared search.
func checkpointPlan(t *testing.T, cp *Checkpoint, _ *Schema) *lts.Plan {
	t.Helper()
	if cp.search == nil {
		t.Fatal("checkpoint carries no prepared search")
	}
	return cp.search.plan
}

// checkpointAutomaton is the compiled automaton the checkpoint's prepared
// search holds (nil for the solver engines).
func checkpointAutomaton(t *testing.T, cp *Checkpoint) *autom.Automaton {
	t.Helper()
	return cp.search.a
}

// TestShardPlanAnytimeCarriesPlan: the checkpoint ShardPlanAnytime returns
// carries the plan it enumerated, and every CheckAnytime round handed that
// checkpoint runs on it — the same checkpoint, the same plan pointer and,
// on the automaton engine, the same compiled automaton, so no round
// prepared or compiled again — for a whole check sliced into one-shard
// rounds and for a fabric worker's shard-restricted group. The rounds end
// on the verdict Check gives.
func TestShardPlanAnytimeCarriesPlan(t *testing.T) {
	sch, err := ParseSchema(
		[]string{"Mobile#:string,string,string,int", "Address:string,string,string,int"},
		[]string{"AcM1:Mobile#:0", "AcM2:Address:0,1"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ParseFormula(`[exists n,p,s,ph. pre Mobile#(n,p,s,ph)] & (![exists n,p,s,ph. pre Mobile#(n,p,s,ph)])`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, eng := range []Engine{EngineBounded, EngineAutomaton} {
		for name, opts := range map[string][]Option{
			"whole": {WithEngine(eng), WithAnytimeChunk(1)},
			"group": {WithEngine(eng), WithShards(0, 1)},
		} {
			t.Run(eng.String()+"/"+name, func(t *testing.T) {
				chk, err := NewChecker(opts...)
				if err != nil {
					t.Fatal(err)
				}
				ids, cp, err := chk.ShardPlanAnytime(ctx, sch, f, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(ids) < 2 || cp.PlanSize() != len(ids) {
					t.Fatalf("plan of %d shards, checkpoint plan size %d", len(ids), cp.PlanSize())
				}
				plan := checkpointPlan(t, cp, sch)
				a := checkpointAutomaton(t, cp)
				if (a != nil) != (eng == EngineAutomaton) {
					t.Fatalf("planning left automaton %p on the %v engine's checkpoint", a, eng)
				}
				for round := 1; ; round++ {
					res, next, err := chk.CheckAnytime(ctx, sch, f, cp)
					if err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					if next != cp {
						t.Fatalf("round %d returned checkpoint %p, planned %p", round, next, cp)
					}
					if got := checkpointPlan(t, next, sch); got != plan {
						t.Fatalf("round %d searched plan %p, planned %p", round, got, plan)
					}
					if got := checkpointAutomaton(t, next); got != a {
						t.Fatalf("round %d searched automaton %p, planned %p", round, got, a)
					}
					if !res.Resumable {
						want, err := chk.Check(ctx, sch, f)
						if err != nil {
							t.Fatal(err)
						}
						if res.Satisfiable != want.Satisfiable || res.Truncated != want.Truncated {
							t.Errorf("rounds answered sat=%v truncated=%v, Check sat=%v truncated=%v",
								res.Satisfiable, res.Truncated, want.Satisfiable, want.Truncated)
						}
						break
					}
					if round > len(ids) {
						t.Fatalf("still resumable after %d rounds", round)
					}
				}
			})
		}
	}
}

// TestShardPlanThenCheckComputesNoKey: a fabric worker's fresh group plans
// through ShardPlanAnytime and runs CheckAnytime on the checkpoint it got,
// with the same checker, schema and formula value, so the checkpoint
// belongs to the check by construction and neither call fingerprints it.
// The formula is a conjunction, whose slice would make == panic. A formula
// parsed again from the same text, or a distinct checker, matches the
// checkpoint's check by structure and computes no key either.
func TestShardPlanThenCheckComputesNoKey(t *testing.T) {
	sch, err := ParseSchema(
		[]string{"Mobile#:string,string,string,int", "Address:string,string,string,int"},
		[]string{"AcM1:Mobile#:0", "AcM2:Address:0,1"})
	if err != nil {
		t.Fatal(err)
	}
	const src = `[exists n,p,s,ph. pre Mobile#(n,p,s,ph)] & (![exists n,p,s,ph. pre Mobile#(n,p,s,ph)])`
	f := MustParseFormula(src)
	ctx := context.Background()
	newChecker := func() *Checker {
		chk, err := NewChecker(WithEngine(EngineBounded), WithShards(0, 1))
		if err != nil {
			t.Fatal(err)
		}
		return chk
	}
	chk := newChecker()
	_, cp, err := chk.ShardPlanAnytime(ctx, sch, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := chk.CheckAnytime(ctx, sch, f, cp); err != nil {
		t.Fatal(err)
	}
	if cp.key != "" {
		t.Fatalf("planning then checking one check computed the checkpoint's key %q", cp.key)
	}
	for name, run := range map[string]func() error{
		"reparsed formula": func() error { _, _, err := chk.CheckAnytime(ctx, sch, MustParseFormula(src), cp); return err },
		"distinct checker": func() error { _, _, err := newChecker().CheckAnytime(ctx, sch, f, cp); return err },
	} {
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cp.key != "" {
			t.Errorf("%s: resuming a structurally equal check computed the checkpoint's key %q", name, cp.key)
		}
	}
}

// TestStoredCheckpointResumeComputesNoKey: a server stores a partial's
// checkpoint in its LRU under the request's fingerprint, and the next
// identical request resumes it with a checker, schema and formula of its
// own: here freshly built and parsed, at another parallelism. The resume
// matches the checkpoint's check by structure and computes no
// fingerprint. A different check still computes the key and is refused.
func TestStoredCheckpointResumeComputesNoKey(t *testing.T) {
	ctx := context.Background()
	request := func(par int, src string) (*Checker, *Schema, Formula) {
		t.Helper()
		chk, err := NewChecker(WithEngine(EngineBounded), WithParallelism(par), WithAnytimeChunk(1))
		if err != nil {
			t.Fatal(err)
		}
		sch, err := ParseSchema(
			[]string{"Mobile#:string,string,string,int", "Address:string,string,string,int"},
			[]string{"AcM1:Mobile#:0", "AcM2:Address:0,1"})
		if err != nil {
			t.Fatal(err)
		}
		f, err := ParseFormula(src)
		if err != nil {
			t.Fatal(err)
		}
		return chk, sch, f
	}
	const src = `[exists n,p,s,ph. pre Mobile#(n,p,s,ph)] & (![exists n,p,s,ph. pre Mobile#(n,p,s,ph)])`
	store := cache.New(4, func(cp *Checkpoint) bool { return cp != nil })

	chk, sch, f := request(1, src)
	fp := chk.Fingerprint(sch, f)
	res, cp, err := chk.CheckAnytime(ctx, sch, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumable {
		t.Fatalf("one-shard round settled (%+v); nothing to resume", res)
	}
	store.Add(fp, cp)

	prev, ok := store.Get(fp)
	if !ok {
		t.Fatal("stored checkpoint not found under the request's fingerprint")
	}
	chk, sch, f = request(2, src)
	again, next, err := chk.CheckAnytime(ctx, sch, f, prev)
	if err != nil {
		t.Fatal(err)
	}
	if next != prev || again.Coverage <= res.Coverage {
		t.Fatalf("resume returned checkpoint %p (stored %p) at coverage %v after %v", next, prev, again.Coverage, res.Coverage)
	}
	if prev.key != "" {
		t.Errorf("resuming a stored checkpoint computed its key %q", prev.key)
	}

	chk, sch, f = request(2, `[exists n,p,s,ph. pre Mobile#(n,p,s,ph)]`)
	if _, _, err := chk.CheckAnytime(ctx, sch, f, prev); err == nil {
		t.Error("a checkpoint of another check was resumed")
	}
	if prev.key == "" {
		t.Error("a different check was refused without comparing keys")
	}
}
