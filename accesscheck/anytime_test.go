package accesscheck_test

// Golden tests for the anytime checkpoint/resume spine: a check sliced
// into budget-starved rounds must converge to exactly the answer the
// uninterrupted check gives, coverage must grow monotonically, and a
// stored checkpoint must serialize concurrent resumes safely. Test names
// carry "Sharded" so CI's race pass picks them up.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"accltl/accesscheck"
	"accltl/accesscheck/cache"
	"accltl/internal/pollctx"
)

// anytimeFixture parses the shared parallel-test schema and formula and
// skips the test unless the canonical plan has at least two shards (below
// that there is no frontier to slice into rounds).
func anytimeFixture(t *testing.T, src string, opts ...accesscheck.Option) (*accesscheck.Schema, accesscheck.Formula, *accesscheck.Checker) {
	t.Helper()
	sch, err := accesscheck.ParseSchema(parRelations, parMethods)
	if err != nil {
		t.Fatal(err)
	}
	f, err := accesscheck.ParseFormula(src)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := accesscheck.NewChecker(opts...)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := chk.ShardPlan(context.Background(), sch, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) < 2 {
		t.Skipf("plan has %d shards; anytime needs at least 2", len(plan))
	}
	return sch, f, chk
}

// TestAnytimeShardedResumeEquivalence: a check forced through one-shard
// rounds (WithAnytimeChunk(1)), each round resuming the previous round's
// checkpoint, must end on the same verdict as the uninterrupted check, with
// Coverage 1, any witness valid under the direct semantics, and every
// intermediate answer an honest coverage-tagged partial.
func TestAnytimeShardedResumeEquivalence(t *testing.T) {
	for name, src := range map[string]string{"sat": parSatFormula, "unsat": parUnsatFormula} {
		for _, eng := range []accesscheck.Engine{accesscheck.EngineBounded, accesscheck.EngineAutomaton} {
			for _, w := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", name, eng, w), func(t *testing.T) {
					base := []accesscheck.Option{accesscheck.WithEngine(eng), accesscheck.WithParallelism(w)}
					sch, f, _ := anytimeFixture(t, src, base...)
					full, err := accesscheck.Check(context.Background(), sch, f, base...)
					if err != nil {
						t.Fatal(err)
					}

					chk, err := accesscheck.NewChecker(append(base, accesscheck.WithAnytimeChunk(1))...)
					if err != nil {
						t.Fatal(err)
					}
					var cp *accesscheck.Checkpoint
					var res *accesscheck.Result
					rounds := 0
					prevCov := 0.0
					for {
						rounds++
						if rounds > 64 {
							t.Fatal("resume loop did not converge in 64 rounds")
						}
						res, cp, err = chk.CheckAnytime(context.Background(), sch, f, cp)
						if err != nil {
							t.Fatalf("round %d: %v", rounds, err)
						}
						if !res.Resumable {
							break
						}
						if res.Satisfiable {
							t.Fatalf("round %d: resumable partial claims satisfiable", rounds)
						}
						if !res.Truncated {
							t.Fatalf("round %d: resumable partial not marked Truncated", rounds)
						}
						if res.Coverage <= prevCov || res.Coverage >= 1 {
							t.Fatalf("round %d: coverage %v not in (%v, 1)", rounds, res.Coverage, prevCov)
						}
						prevCov = res.Coverage
						if cp == nil {
							t.Fatalf("round %d: resumable partial without a checkpoint", rounds)
						}
					}
					if rounds < 2 && !res.Satisfiable {
						// An unsat verdict needs the whole partition, so chunk
						// size 1 forces one round per shard; sat may settle in
						// round one when the witness lives in the first chunk.
						t.Fatalf("chunked unsat run settled in %d round(s); resume never exercised", rounds)
					}
					if res.Satisfiable != full.Satisfiable {
						t.Errorf("resumed verdict %v, uninterrupted %v", res.Satisfiable, full.Satisfiable)
					}
					if res.Coverage != 1 {
						t.Errorf("final Coverage = %v, want 1", res.Coverage)
					}
					if res.Truncated != full.Truncated {
						t.Errorf("resumed Truncated %v, uninterrupted %v", res.Truncated, full.Truncated)
					}
					if res.Satisfiable {
						ok, err := accesscheck.Holds(f, res.Witness)
						if err != nil || !ok {
							t.Errorf("resumed witness rejected by direct semantics: %v %v", ok, err)
						}
					}
				})
			}
		}
	}
}

// TestAnytimeShardedDeadlineMonotoneCoverage: under real deadline pressure
// (doubling budgets), coverage never regresses across rounds and the check
// eventually settles exactly, with the checkpoint carrying the frontier
// through zero-progress expiries.
func TestAnytimeShardedDeadlineMonotoneCoverage(t *testing.T) {
	sch, f, chk := anytimeFixture(t, parUnsatFormula, accesscheck.WithAnytimeChunk(1))
	var cp *accesscheck.Checkpoint
	var res *accesscheck.Result
	budget := 50 * time.Microsecond
	prevCov := 0.0
	for round := 0; ; round++ {
		if round > 200 {
			t.Fatal("did not settle in 200 rounds")
		}
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		r, next, err := chk.CheckAnytime(ctx, sch, f, cp)
		cancel()
		budget *= 2
		if next != nil {
			cp = next
		}
		if err != nil {
			// Zero-progress expiry: nothing to assert but the warm checkpoint.
			if r != nil {
				t.Fatalf("round %d: result and error together: %+v / %v", round, r, err)
			}
			continue
		}
		res = r
		if res.Coverage < prevCov {
			t.Fatalf("round %d: coverage regressed %v -> %v", round, prevCov, res.Coverage)
		}
		prevCov = res.Coverage
		if !res.Resumable {
			break
		}
	}
	if res.Satisfiable || res.Coverage != 1 {
		t.Errorf("settled answer not exact unsat: %+v", res)
	}
	full, err := accesscheck.Check(context.Background(), sch, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfiable != full.Satisfiable || res.Truncated != full.Truncated {
		t.Errorf("settled verdict/truncation %v/%v, uninterrupted %v/%v",
			res.Satisfiable, res.Truncated, full.Satisfiable, full.Truncated)
	}
}

// TestAnytimeCheckpointKeyMismatch: a checkpoint resumed against a
// different check is rejected loudly rather than silently poisoning the
// frontier.
func TestAnytimeCheckpointKeyMismatch(t *testing.T) {
	sch, f, chk := anytimeFixture(t, parUnsatFormula, accesscheck.WithAnytimeChunk(1))
	_, cp, err := chk.CheckAnytime(context.Background(), sch, f, nil)
	if err != nil || cp == nil {
		t.Fatalf("seed round: cp=%v err=%v", cp, err)
	}
	other, err := accesscheck.ParseFormula(parSatFormula)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := chk.CheckAnytime(context.Background(), sch, other, cp); err == nil ||
		!strings.Contains(err.Error(), "different check") {
		t.Errorf("foreign checkpoint accepted (err=%v)", err)
	}
}

// TestAnytimePathCapIsFinal: a path-capped round is a final truncated
// answer — not resumable, no checkpoint — because the cap's exact budget
// semantics do not compose across rounds.
func TestAnytimePathCapIsFinal(t *testing.T) {
	sch, f, chk := anytimeFixture(t, parUnsatFormula, accesscheck.WithMaxPaths(1))
	res, cp, err := chk.CheckAnytime(context.Background(), sch, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Resumable {
		t.Errorf("path-capped answer Truncated=%v Resumable=%v, want true/false", res.Truncated, res.Resumable)
	}
	if cp != nil {
		t.Error("path-capped answer returned a checkpoint to resume")
	}
}

// TestAnytimePathCapKeepsResponseCaps: a path-capped round is a final
// truncated answer, and it names every cause that truncated it. Five R
// tuples exceed the default response-choice cap, so Scan's fan-out is cut
// at the root; CheckAnytime must report that cap as Check does, whatever
// the path cap.
func TestAnytimePathCapKeepsResponseCaps(t *testing.T) {
	sch, err := accesscheck.ParseSchema([]string{"R:int"}, []string{"Scan:R"})
	if err != nil {
		t.Fatal(err)
	}
	u := accesscheck.NewInstance(sch)
	for v := int64(1); v <= 5; v++ {
		u.MustAdd("R", accesscheck.Int(v))
	}
	f := accesscheck.MustParseFormula("F ([exists x. post R(x)] & ![exists x. post R(x)])")
	for _, n := range []int{3, 5, 10, 30, 100} {
		t.Run(fmt.Sprintf("max-paths-%d", n), func(t *testing.T) {
			chk, err := accesscheck.NewChecker(accesscheck.WithEngine(accesscheck.EngineBounded),
				accesscheck.WithMaxDepth(3), accesscheck.WithUniverse(u), accesscheck.WithMaxPaths(n))
			if err != nil {
				t.Fatal(err)
			}
			want, err := chk.Check(context.Background(), sch, f)
			if err != nil {
				t.Fatal(err)
			}
			if want.Satisfiable || !want.Truncated || !want.ResponsesCapped || want.PathsExplored != n {
				t.Fatalf("Check: %+v, want a path-capped unsat that met the response cap", want)
			}
			got, cp, err := chk.CheckAnytime(context.Background(), sch, f, nil)
			if err != nil {
				t.Fatal(err)
			}
			if cp != nil {
				t.Error("path-capped answer returned a checkpoint to resume")
			}
			if got.Satisfiable || got.Truncated != want.Truncated || got.ResponsesCapped != want.ResponsesCapped ||
				got.PathsExplored != want.PathsExplored {
				t.Errorf("CheckAnytime sat=%v truncated=%v capped=%v paths=%d; Check sat=%v truncated=%v capped=%v paths=%d",
					got.Satisfiable, got.Truncated, got.ResponsesCapped, got.PathsExplored,
					want.Satisfiable, want.Truncated, want.ResponsesCapped, want.PathsExplored)
			}
		})
	}
}

// TestCheckpointStoreShardedConcurrentResume: several goroutines hammer the
// same stored checkpoint with identical chunked requests, through the plain
// LRU a server keeps checkpoints in; the per-checkpoint round lock
// serializes them and every caller converges to the same exact verdict.
// Run under -race in CI.
func TestCheckpointStoreShardedConcurrentResume(t *testing.T) {
	sch, f, chk := anytimeFixture(t, parUnsatFormula, accesscheck.WithAnytimeChunk(1))
	st := cache.New(8, func(cp *accesscheck.Checkpoint) bool { return cp != nil })
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	finals := make(chan *accesscheck.Result, 8)
	key := chk.Fingerprint(sch, f)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				prev, _ := st.Get(key)
				res, cp, err := chk.CheckAnytime(context.Background(), sch, f, prev)
				if err != nil {
					errs <- err
					return
				}
				st.Add(key, cp)
				if !res.Resumable {
					finals <- res
					return
				}
			}
			errs <- context.DeadlineExceeded // placeholder: loop exhausted
		}()
	}
	wg.Wait()
	close(errs)
	close(finals)
	for err := range errs {
		t.Fatalf("concurrent resume: %v", err)
	}
	n := 0
	for res := range finals {
		n++
		if res.Satisfiable || res.Coverage != 1 {
			t.Errorf("converged answer not exact unsat: %+v", res)
		}
	}
	if n != 8 {
		t.Fatalf("%d of 8 goroutines converged", n)
	}
}

// TestAnytimeShardedPlanningExpiryKeepsCheckpoint: a budget that dies
// before the plan exists is a zero-progress expiry like any other — the
// context error comes back with a checkpoint, and resuming that checkpoint
// under a live budget lands the uninterrupted verdict.
func TestAnytimeShardedPlanningExpiryKeepsCheckpoint(t *testing.T) {
	for _, eng := range []accesscheck.Engine{accesscheck.EngineBounded, accesscheck.EngineAutomaton} {
		t.Run(eng.String(), func(t *testing.T) {
			sch, f, chk := anytimeFixture(t, parUnsatFormula, accesscheck.WithEngine(eng))
			expired, cancel := context.WithCancel(context.Background())
			cancel()
			res, cp, err := chk.CheckAnytime(expired, sch, f, nil)
			if !errors.Is(err, context.Canceled) || res != nil || cp == nil {
				t.Fatalf("expired planning: res=%v cp=%v err=%v, want the context error with a checkpoint", res, cp, err)
			}
			if cp.PlanSize() != 0 || cp.Coverage() != 0 {
				t.Fatalf("expired planning recorded plan size %d, coverage %v", cp.PlanSize(), cp.Coverage())
			}
			full, err := chk.Check(context.Background(), sch, f)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err = chk.CheckAnytime(context.Background(), sch, f, cp)
			if err != nil || res.Satisfiable != full.Satisfiable || res.Truncated != full.Truncated || res.Coverage != 1 {
				t.Fatalf("resumed: %+v, %v; uninterrupted sat=%v truncated=%v", res, err, full.Satisfiable, full.Truncated)
			}
		})
	}
}

// TestAnytimeOneShardMatchesCheck: a check whose plan has a single shard,
// or none, has no frontier to slice, so CheckAnytime's first round
// settles it. The answer must be exact — Coverage 1, with a checkpoint, the
// same one on a resume — and carry the verdict, witness and PathsExplored
// that Check itself returns. A plan with no shard visits only the root.
func TestAnytimeOneShardMatchesCheck(t *testing.T) {
	// With Scan, the universe holds no R tuple, so Scan's one response is
	// the empty one and the root partition is a single shard. The unsat
	// formula asks for a third access the depth bound does not allow.
	// Without a method the partition is empty.
	type fixture struct {
		methods []string
		src     string
		shards  int
	}
	fixtures := map[string]fixture{
		"sat":      {[]string{"Scan:R"}, "F [bind Scan]", 1},
		"unsat":    {[]string{"Scan:R"}, "X X [bind Scan]", 1},
		"no-shard": {nil, "F [exists x. post R(x)]", 0},
	}
	for name, fx := range fixtures {
		sch, err := accesscheck.ParseSchema([]string{"R:int"}, fx.methods)
		if err != nil {
			t.Fatal(err)
		}
		f, err := accesscheck.ParseFormula(fx.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []accesscheck.Engine{accesscheck.EngineBounded, accesscheck.EngineAutomaton} {
			t.Run(name+"/"+eng.String(), func(t *testing.T) {
				chk, err := accesscheck.NewChecker(accesscheck.WithEngine(eng), accesscheck.WithMaxDepth(2))
				if err != nil {
					t.Fatal(err)
				}
				plan, _, err := chk.ShardPlan(context.Background(), sch, f)
				if err != nil {
					t.Fatal(err)
				}
				if len(plan) != fx.shards {
					t.Fatalf("fixture plans %d shards, want %d", len(plan), fx.shards)
				}
				want, err := chk.Check(context.Background(), sch, f)
				if err != nil {
					t.Fatal(err)
				}
				got, cp, err := chk.CheckAnytime(context.Background(), sch, f, nil)
				if err != nil {
					t.Fatal(err)
				}
				if cp == nil {
					t.Fatal("exact answer came without a checkpoint")
				}
				if want.Satisfiable != (name == "sat") {
					t.Fatalf("Check says satisfiable=%v on the %s fixture", want.Satisfiable, name)
				}
				if fx.shards == 0 && want.PathsExplored != 1 {
					t.Errorf("Check explored %d paths on a plan with no shard, want the root alone", want.PathsExplored)
				}
				if got.Coverage != 1 || got.Resumable {
					t.Errorf("coverage %v resumable %v, want an exact answer", got.Coverage, got.Resumable)
				}
				if got.Satisfiable != want.Satisfiable || got.Truncated != want.Truncated ||
					got.PathsExplored != want.PathsExplored || got.Depth != want.Depth {
					t.Errorf("CheckAnytime %+v, Check %+v", got, want)
				}
				if got.Satisfiable && got.Witness.String() != want.Witness.String() {
					t.Errorf("witness %s, Check's %s", got.Witness, want.Witness)
				}
				again, next, err := chk.CheckAnytime(context.Background(), sch, f, cp)
				if err != nil {
					t.Fatal(err)
				}
				if next != cp {
					t.Errorf("resume returned checkpoint %p, want %p", next, cp)
				}
				if again.Satisfiable != want.Satisfiable || again.Truncated != want.Truncated || again.Coverage != 1 || again.Resumable {
					t.Errorf("resumed %+v, Check %+v", again, want)
				}
			})
		}
	}
}

// TestAnytimeOneShardExpiredCheckpointConcurrentResume: a budget that dies
// while planning a one-shard check leaves a checkpoint with no plan size,
// the shape the server stores on expiry. Identical retries then resume it
// concurrently, each running its round on the checkpoint's memo. The
// checkpoint must serialize those searches — a dominance memo is sound
// across rounds, not across concurrent searches — so every retry answers
// exactly what Check answers, with the checkpoint it resumed. Run under
// -race in CI.
func TestAnytimeOneShardExpiredCheckpointConcurrentResume(t *testing.T) {
	sch, err := accesscheck.ParseSchema([]string{"R:int"}, []string{"Scan:R"})
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{"sat": "F [bind Scan]", "unsat": "X X [bind Scan]"} {
		f, err := accesscheck.ParseFormula(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []accesscheck.Engine{accesscheck.EngineBounded, accesscheck.EngineAutomaton} {
			t.Run(name+"/"+eng.String(), func(t *testing.T) {
				chk, err := accesscheck.NewChecker(accesscheck.WithEngine(eng), accesscheck.WithMaxDepth(2))
				if err != nil {
					t.Fatal(err)
				}
				want, err := chk.Check(context.Background(), sch, f)
				if err != nil {
					t.Fatal(err)
				}
				expired, cancel := context.WithCancel(context.Background())
				cancel()
				_, cp, err := chk.CheckAnytime(expired, sch, f, nil)
				if !errors.Is(err, context.Canceled) || cp == nil || cp.PlanSize() != 0 {
					t.Fatalf("expired planning: cp=%v err=%v, want the context error with a plan-less checkpoint", cp, err)
				}
				const retries = 8
				results := make([]*accesscheck.Result, retries)
				errs := make([]error, retries)
				var wg sync.WaitGroup
				for g := 0; g < retries; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var next *accesscheck.Checkpoint
						results[g], next, errs[g] = chk.CheckAnytime(context.Background(), sch, f, cp)
						if errs[g] == nil && next != cp {
							errs[g] = fmt.Errorf("exact answer returned checkpoint %p, want the resumed %p", next, cp)
						}
					}()
				}
				wg.Wait()
				for g, got := range results {
					if errs[g] != nil {
						t.Fatalf("retry %d: %v", g, errs[g])
					}
					if got.Satisfiable != want.Satisfiable || got.Truncated != want.Truncated || got.Coverage != 1 || got.Resumable {
						t.Errorf("retry %d: %+v, Check %+v", g, got, want)
					}
					if got.Satisfiable && got.Witness.String() != want.Witness.String() {
						t.Errorf("retry %d: witness %s, Check's %s", g, got.Witness, want.Witness)
					}
				}
			})
		}
	}
}

// TestAnytimeShardedResumeKeepsResponseCaps: a round that times out after
// completing shards whose walks met a response cap must carry the cap
// forward. The resume skips those shards and never meets the cap again, so
// without it the settled answer reads exact where the uninterrupted check
// is truncated, and the exact-only caches would admit it. The first round
// expires at every poll in turn, then the check resumes to the end; every
// settled answer must agree with Check on the verdict and on Truncated. In
// "below-root" the cap is met at depth 2, in "root" by the root fan-out of
// the first method, whose shards one walker completes before its first
// poll inside the walk.
func TestAnytimeShardedResumeKeepsResponseCaps(t *testing.T) {
	const formula = "F [exists x. post T(x)]" // no method reveals T: unsat
	type fixture struct {
		rels, methods []string
		universe      map[string][][]int64
		opts          []accesscheck.Option
	}
	fixtures := map[string]fixture{
		"below-root": {
			rels:     []string{"R:int", "S:int,int", "T:int", "U:int"},
			methods:  []string{"mR:R", "mS:S:0", "mU:U"},
			universe: map[string][][]int64{"R": {{1}}, "S": {{1, 10}, {1, 11}, {1, 12}, {1, 13}}, "U": {{20}, {21}, {22}}},
			opts:     []accesscheck.Option{accesscheck.WithGrounded(), accesscheck.WithMaxDepth(2)},
		},
		"root": {
			rels:     []string{"C:int", "D:int", "T:int"},
			methods:  []string{"m0:C", "m1:D", "m2:D", "m3:D", "m4:D", "m5:D", "m6:D", "m7:D", "m8:D", "m9:D", "m10:D", "m11:D"},
			universe: map[string][][]int64{"C": {{1}, {2}, {3}, {4}}, "D": {{1}, {2}, {3}}},
			opts:     []accesscheck.Option{accesscheck.WithMaxDepth(1)},
		},
	}
	for name, fx := range fixtures {
		sch, err := accesscheck.ParseSchema(fx.rels, fx.methods)
		if err != nil {
			t.Fatal(err)
		}
		u := accesscheck.NewInstance(sch)
		for rel, tuples := range fx.universe {
			for _, tuple := range tuples {
				vals := make([]accesscheck.Value, len(tuple))
				for i, v := range tuple {
					vals[i] = accesscheck.Int(v)
				}
				u.MustAdd(rel, vals...)
			}
		}
		f, err := accesscheck.ParseFormula(formula)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []accesscheck.Engine{accesscheck.EngineZeroAcc, accesscheck.EngineAutomaton} {
			t.Run(name+"/"+eng.String(), func(t *testing.T) {
				opts := append([]accesscheck.Option{accesscheck.WithEngine(eng), accesscheck.WithUniverse(u), accesscheck.WithParallelism(1)}, fx.opts...)
				chk, err := accesscheck.NewChecker(opts...)
				if err != nil {
					t.Fatal(err)
				}
				full, err := chk.Check(context.Background(), sch, f)
				if err != nil {
					t.Fatal(err)
				}
				if full.Satisfiable || !full.Truncated || !full.ResponsesCapped {
					t.Fatalf("uninterrupted check: sat=%v truncated=%v capped=%v, want a response-capped unsat", full.Satisfiable, full.Truncated, full.ResponsesCapped)
				}
				for limit := 1; ; limit++ {
					ctx := pollctx.New(limit, context.DeadlineExceeded)
					res, cp, err := chk.CheckAnytime(ctx, sch, f, nil)
					if err != nil && !errors.Is(err, context.DeadlineExceeded) {
						t.Fatalf("limit %d: %v", limit, err)
					}
					expired := err != nil || res.Resumable
					for rounds := 0; err != nil || res.Resumable; rounds++ {
						if rounds > 1000 {
							t.Fatalf("limit %d: no settled answer after %d resumes", limit, rounds)
						}
						res, cp, err = chk.CheckAnytime(context.Background(), sch, f, cp)
					}
					if res.Satisfiable || res.Truncated != full.Truncated || res.ResponsesCapped != full.ResponsesCapped {
						t.Fatalf("first round expired at poll %d: settled sat=%v truncated=%v capped=%v; uninterrupted sat=%v truncated=%v capped=%v",
							limit, res.Satisfiable, res.Truncated, res.ResponsesCapped, full.Satisfiable, full.Truncated, full.ResponsesCapped)
					}
					if !expired {
						break // the first round ran to the end: every poll was tried
					}
				}
			})
		}
	}
}
