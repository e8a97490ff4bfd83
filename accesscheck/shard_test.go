package accesscheck_test

import (
	"context"
	"testing"

	"accltl/accesscheck"
)

// TestShardPlanDeterministicAcrossEngines: two independently configured
// checkers derive identical plans, and the plan is unaffected by
// parallelism — the determinism the distributed fabric's wire shards rely
// on.
func TestShardPlanDeterministicAcrossEngines(t *testing.T) {
	sch, err := accesscheck.ParseSchema(parRelations, parMethods)
	if err != nil {
		t.Fatal(err)
	}
	f, err := accesscheck.ParseFormula(parSatFormula)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []accesscheck.Engine{accesscheck.EngineAuto, accesscheck.EngineBounded, accesscheck.EngineAutomaton} {
		a, err := accesscheck.NewChecker(accesscheck.WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		b, err := accesscheck.NewChecker(accesscheck.WithEngine(eng), accesscheck.WithParallelism(8))
		if err != nil {
			t.Fatal(err)
		}
		pa, capA, err := a.ShardPlan(context.Background(), sch, f)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		pb, capB, err := b.ShardPlan(context.Background(), sch, f)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if len(pa) == 0 {
			t.Fatalf("%v: empty plan", eng)
		}
		if capA != capB || len(pa) != len(pb) {
			t.Fatalf("%v: plans diverged: %d/%v vs %d/%v", eng, len(pa), capA, len(pb), capB)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%v: shard %d diverged: %+v vs %+v", eng, i, pa[i], pb[i])
			}
		}
	}
}

// TestShardSubsetMergeMatchesFullCheck: running every shard as its own
// restricted check and merging per the documented fabric semantics
// (verdict OR, caps OR on unsat) reproduces the full check's verdict.
func TestShardSubsetMergeMatchesFullCheck(t *testing.T) {
	sch, err := accesscheck.ParseSchema(parRelations, parMethods)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{"sat": parSatFormula, "unsat": parUnsatFormula} {
		f, err := accesscheck.ParseFormula(src)
		if err != nil {
			t.Fatal(err)
		}
		full, err := accesscheck.Check(context.Background(), sch, f)
		if err != nil {
			t.Fatalf("%s full: %v", name, err)
		}
		chk, err := accesscheck.NewChecker()
		if err != nil {
			t.Fatal(err)
		}
		plan, _, err := chk.ShardPlan(context.Background(), sch, f)
		if err != nil {
			t.Fatalf("%s plan: %v", name, err)
		}
		if len(plan) == 0 {
			t.Fatalf("%s: empty plan", name)
		}
		sat := false
		trunc := false
		var witness *accesscheck.Path
		for _, sh := range plan {
			part, err := accesscheck.Check(context.Background(), sch, f, accesscheck.WithShards(sh.Index))
			if err != nil {
				t.Fatalf("%s shard %d: %v", name, sh.Index, err)
			}
			if part.Satisfiable && witness == nil {
				witness = part.Witness
			}
			sat = sat || part.Satisfiable
			trunc = trunc || part.Truncated
		}
		if sat != full.Satisfiable {
			t.Errorf("%s: merged verdict %v, full %v", name, sat, full.Satisfiable)
		}
		if !sat && trunc != full.Truncated {
			t.Errorf("%s: merged Truncated %v, full %v", name, trunc, full.Truncated)
		}
		if sat {
			ok, err := accesscheck.Holds(f, witness)
			if err != nil || !ok {
				t.Errorf("%s: merged witness rejected by direct semantics: %v %v", name, ok, err)
			}
		}
	}
}

// TestWithShardsValidation: the option rejects empty and negative input at
// construction; out-of-partition indexes surface from Check.
func TestWithShardsValidation(t *testing.T) {
	if _, err := accesscheck.NewChecker(accesscheck.WithShards()); err == nil {
		t.Error("empty shard list accepted")
	}
	if _, err := accesscheck.NewChecker(accesscheck.WithShards(-1)); err == nil {
		t.Error("negative shard index accepted")
	}
	sch, err := accesscheck.ParseSchema(parRelations, parMethods)
	if err != nil {
		t.Fatal(err)
	}
	f, err := accesscheck.ParseFormula(parSatFormula)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := accesscheck.Check(context.Background(), sch, f, accesscheck.WithShards(1<<20)); err == nil {
		t.Error("out-of-partition shard index accepted by Check")
	}
}

// TestFingerprintSeparatesShardSubsets pins the cache-identity rule for
// shard-restricted checks: subsets are part of what is computed (unlike
// parallelism), different subsets must not collide, and the canonical form
// (sorted, deduplicated) decides equality.
func TestFingerprintSeparatesShardSubsets(t *testing.T) {
	sch, err := accesscheck.ParseSchema(parRelations, parMethods)
	if err != nil {
		t.Fatal(err)
	}
	f, err := accesscheck.ParseFormula(parSatFormula)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(opts ...accesscheck.Option) string {
		c, err := accesscheck.NewChecker(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return c.Fingerprint(sch, f)
	}
	full := mk()
	s0 := mk(accesscheck.WithShards(0))
	s1 := mk(accesscheck.WithShards(1))
	if full == s0 {
		t.Error("shard-restricted fingerprint equals full-check fingerprint")
	}
	if s0 == s1 {
		t.Error("different shard subsets share a fingerprint")
	}
	if mk(accesscheck.WithShards(1, 0, 1)) != mk(accesscheck.WithShards(0, 1)) {
		t.Error("fingerprint not canonical over shard order/duplicates")
	}
	if mk(accesscheck.WithShards(0), accesscheck.WithParallelism(4)) != s0 {
		t.Error("parallelism leaked into shard-restricted fingerprint")
	}
}

// TestShardSubsetCheckReportsPlanTotal: a shard-subset Check tags its
// verdict with the size of the partition it ran against, and that size is
// the plan ShardPlan enumerates, on both sharded engines. CheckAnytime tags
// its answers the same way: a fresh exact round, and every round of a
// one-shard-per-round resume, resumable partials included.
func TestShardSubsetCheckReportsPlanTotal(t *testing.T) {
	sch, err := accesscheck.ParseSchema(parRelations, parMethods)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{parSatFormula, parUnsatFormula} {
		f, err := accesscheck.ParseFormula(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []accesscheck.Engine{accesscheck.EngineBounded, accesscheck.EngineAutomaton} {
			chk, err := accesscheck.NewChecker(accesscheck.WithEngine(eng))
			if err != nil {
				t.Fatal(err)
			}
			plan, _, err := chk.ShardPlan(context.Background(), sch, f)
			if err != nil {
				t.Fatalf("%v %s: %v", eng, src, err)
			}
			if len(plan) < 2 {
				t.Fatalf("%v %s: plan of %d shards", eng, src, len(plan))
			}
			for _, sub := range [][]int{{0}, {0, len(plan) - 1}} {
				res, err := accesscheck.Check(context.Background(), sch, f, accesscheck.WithEngine(eng), accesscheck.WithShards(sub...))
				if err != nil {
					t.Fatalf("%v %s %v: %v", eng, src, sub, err)
				}
				if res.ShardsTotal != len(plan) || res.ShardsCompleted != len(sub) {
					t.Errorf("%v %s %v: shards %d/%d, want %d/%d", eng, src, sub, res.ShardsCompleted, res.ShardsTotal, len(sub), len(plan))
				}
				for _, chunk := range []int{0, 1} {
					chk, err := accesscheck.NewChecker(accesscheck.WithEngine(eng), accesscheck.WithShards(sub...), accesscheck.WithAnytimeChunk(chunk))
					if err != nil {
						t.Fatal(err)
					}
					var cp *accesscheck.Checkpoint
					for round := 1; ; round++ {
						res, next, err := chk.CheckAnytime(context.Background(), sch, f, cp)
						if err != nil {
							t.Fatalf("%v %s %v chunk %d round %d: %v", eng, src, sub, chunk, round, err)
						}
						want := len(sub)
						if res.Resumable {
							want = round
						}
						if res.ShardsTotal != len(plan) || res.ShardsCompleted != want {
							t.Errorf("%v %s %v chunk %d round %d (resumable %v): shards %d/%d, want %d/%d",
								eng, src, sub, chunk, round, res.Resumable, res.ShardsCompleted, res.ShardsTotal, want, len(plan))
						}
						if !res.Resumable {
							break
						}
						if round > len(sub) {
							t.Fatalf("%v %s %v chunk %d: still resumable after %d rounds", eng, src, sub, chunk, round)
						}
						cp = next
					}
				}
			}
		}
	}
}
