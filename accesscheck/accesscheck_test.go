package accesscheck_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"accltl/accesscheck"
	"accltl/internal/accltl"
	"accltl/internal/instance"
	"accltl/internal/workload"
)

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  accesscheck.Option
	}{
		{"negative depth", accesscheck.WithMaxDepth(-1)},
		{"negative path cap", accesscheck.WithMaxPaths(-1)},
		{"negative response cap", accesscheck.WithMaxResponseChoices(-1)},
		{"no exact methods", accesscheck.WithExactMethods()},
		{"empty exact method name", accesscheck.WithExactMethods("AcM1", "")},
		{"nil initial instance", accesscheck.WithInitialInstance(nil)},
		{"nil universe", accesscheck.WithUniverse(nil)},
		{"unknown engine", accesscheck.WithEngine(accesscheck.Engine(42))},
		{"bad exact spec", accesscheck.WithExactSpec("AcM1,,AcM2")},
		{"nil option", nil},
	}
	for _, tc := range cases {
		if _, err := accesscheck.NewChecker(tc.opt); err == nil {
			t.Errorf("%s: NewChecker accepted an invalid option", tc.name)
		}
	}
	// And the valid combinations still construct.
	if _, err := accesscheck.NewChecker(
		accesscheck.WithGrounded(),
		accesscheck.WithIdempotentOnly(),
		accesscheck.WithExactMethods("AcM1"),
		accesscheck.WithExactSpec("*"),
		accesscheck.WithMaxDepth(3),
		accesscheck.WithMaxPaths(1000),
		accesscheck.WithEngine(accesscheck.EngineBounded),
	); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

func TestCheckNilArguments(t *testing.T) {
	phone := workload.MustPhone()
	ctx := context.Background()
	if _, err := accesscheck.Check(ctx, nil, phone.IntroFormula()); err == nil {
		t.Error("Check accepted a nil schema")
	}
	if _, err := accesscheck.Check(ctx, phone.Schema, nil); err == nil {
		t.Error("Check accepted a nil formula")
	}
}

// TestEntryPointsRefuseUnknownExactMethod: every entry point that takes a
// schema refuses an exact method the schema does not declare, naming it.
// The name used to restrict nothing, so the check without it was answered.
func TestEntryPointsRefuseUnknownExactMethod(t *testing.T) {
	sch, err := accesscheck.ParseSchema([]string{"R:int,int"}, []string{"scanR:R:"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := accesscheck.ParseFormula("(![exists x,y. post R(x,y)]) & (F [exists x,y. post R(x,y)])")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if res, err := accesscheck.Check(ctx, sch, f, accesscheck.WithExactMethods("scanR")); err != nil || res.Satisfiable || res.Truncated {
		t.Fatalf("declared exact method: %+v, %v; want an exact unsat", res, err)
	}
	chk, err := accesscheck.NewChecker(accesscheck.WithExactSpec("scanR,scnR"))
	if err != nil {
		t.Fatal(err)
	}
	universe := instance.NewInstance(sch)
	entries := map[string]func() error{
		"Check": func() error { _, err := chk.Check(ctx, sch, f); return err },
		"CheckAnytime": func() error {
			_, _, err := chk.CheckAnytime(ctx, sch, f, nil)
			return err
		},
		"ShardPlan": func() error { _, _, err := chk.ShardPlan(ctx, sch, f); return err },
		"ShardPlanAnytime": func() error {
			_, _, err := chk.ShardPlanAnytime(ctx, sch, f, nil)
			return err
		},
		"PathTree":  func() error { _, err := chk.PathTree(ctx, sch, universe, 1); return err },
		"PathStats": func() error { _, err := chk.PathStats(ctx, sch, universe, 1); return err },
	}
	for name, run := range entries {
		if err := run(); err == nil || !strings.Contains(err.Error(), `"scnR"`) || strings.Contains(err.Error(), `"scanR"`) {
			t.Errorf("%s: err = %v, want one naming scnR alone", name, err)
		}
	}
}

// TestFragmentDispatchParity pins the facade to the direct internal solvers
// on the paper's worked examples: same engine choice, same verdict.
func TestFragmentDispatchParity(t *testing.T) {
	phone := workload.MustPhone()
	ctx := context.Background()

	cases := []struct {
		name       string
		formula    accesscheck.Formula
		wantEngine accesscheck.Engine
		direct     func(f accltl.Formula) (accltl.SolveResult, error)
	}{
		{
			"intro formula → plus solver",
			phone.IntroFormula(),
			accesscheck.EnginePlus,
			func(f accltl.Formula) (accltl.SolveResult, error) {
				return accltl.SolvePlusDirect(f, accltl.SolveOptions{Schema: phone.Schema})
			},
		},
		{
			"X formula → X solver",
			accesscheck.Next(accesscheck.Atom(phone.MobileNonEmptyPost())),
			accesscheck.EngineX,
			func(f accltl.Formula) (accltl.SolveResult, error) {
				return accltl.SolveX(f, accltl.SolveOptions{Schema: phone.Schema})
			},
		},
		{
			"0-Acc formula → 0-Acc solver",
			accesscheck.MustParseFormula(`F [bind AcM1]`),
			accesscheck.EngineZeroAcc,
			func(f accltl.Formula) (accltl.SolveResult, error) {
				return accltl.SolveZeroAcc(f, accltl.SolveOptions{Schema: phone.Schema})
			},
		},
	}
	for _, tc := range cases {
		res, err := accesscheck.Check(ctx, phone.Schema, tc.formula)
		if err != nil {
			t.Fatalf("%s: facade: %v", tc.name, err)
		}
		if res.Engine != tc.wantEngine {
			t.Errorf("%s: dispatched %v, want %v", tc.name, res.Engine, tc.wantEngine)
		}
		direct, err := tc.direct(tc.formula)
		if err != nil {
			t.Fatalf("%s: direct: %v", tc.name, err)
		}
		if res.Satisfiable != direct.Satisfiable {
			t.Errorf("%s: facade=%v direct=%v", tc.name, res.Satisfiable, direct.Satisfiable)
		}
		if res.Depth != direct.Depth {
			t.Errorf("%s: facade depth=%d direct depth=%d", tc.name, res.Depth, direct.Depth)
		}
	}
}

// TestCombinatorsMatchParser: the programmatic combinators and the textual
// front-end build the same formulas.
func TestCombinatorsMatchParser(t *testing.T) {
	phone := workload.MustPhone()
	post := accesscheck.Atom(phone.MobileNonEmptyPost())
	cases := []struct {
		src  string
		want accesscheck.Formula
	}{
		{`F [exists n,p,s,ph. post Mobile#(n,p,s,ph)]`, accesscheck.Eventually(post)},
		{`G ![exists n,p,s,ph. post Mobile#(n,p,s,ph)]`, accesscheck.Always(accesscheck.Not(post))},
		{`X [exists n,p,s,ph. post Mobile#(n,p,s,ph)]`, accesscheck.Next(post)},
		{`true U [exists n,p,s,ph. post Mobile#(n,p,s,ph)]`, accesscheck.Until(accesscheck.And(), post)},
	}
	for _, tc := range cases {
		got, err := accesscheck.ParseFormula(tc.src)
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		if got.String() != tc.want.String() {
			t.Errorf("%q: parsed %s, combinators built %s", tc.src, got, tc.want)
		}
	}
}

// TestCheckCancelledContext: an already-cancelled context must surface its
// error before the search loop is entered.
func TestCheckCancelledContext(t *testing.T) {
	phone := workload.MustPhone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := accesscheck.Check(ctx, phone.Schema, phone.IntroFormula())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled Check returned a result: %+v", res)
	}
}

// TestCheckExpiredDeadline: a deadline already in the past behaves like
// cancellation.
func TestCheckExpiredDeadline(t *testing.T) {
	phone := workload.MustPhone()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := accesscheck.Check(ctx, phone.Schema, phone.IntroFormula()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCheckDeadlineStopsSearchPromptly: a search whose full exploration
// would take far longer than the budget must return with the context's
// error shortly after the deadline, proving the hot loops poll the context.
func TestCheckDeadlineStopsSearchPromptly(t *testing.T) {
	phone := workload.MustPhone()
	// Unsatisfiable conjunction: the search must exhaust the space, and a
	// 12-resident universe at depth 6 (~3.9M paths, ~1.7 s to exhaust on a
	// 2-CPU VM) is far larger than the budget allows. An 8-resident one
	// exhausts in ~80 ms there, inside the budget, so it cannot show
	// whether the deadline is honoured.
	post := accesscheck.Atom(phone.MobileNonEmptyPost())
	unsat := accesscheck.And(accesscheck.Eventually(post), accesscheck.Always(accesscheck.Not(post)))

	const budget = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	_, err := accesscheck.Check(ctx, phone.Schema, unsat,
		accesscheck.WithEngine(accesscheck.EngineBounded),
		accesscheck.WithUniverse(phone.Universe(12)),
		accesscheck.WithMaxDepth(6))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v after %s, want context.DeadlineExceeded", err, elapsed)
	}
	// Generous CI margin: the poll interval is every 64 visited prefixes,
	// so the overshoot should be microseconds, not seconds.
	if elapsed > 10*time.Second {
		t.Fatalf("Check took %s to honour a %s deadline", elapsed, budget)
	}
}

// TestTruncatedReportedOnPathCap: a search cut off by WithMaxPaths must
// flag its unsatisfiable verdict as cap-relative instead of presenting it
// as definitive.
func TestTruncatedReportedOnPathCap(t *testing.T) {
	phone := workload.MustPhone()
	f := accesscheck.MustParseFormula(`F [exists n,p,s,ph. post Mobile#(n,p,s,ph)]`)
	ctx := context.Background()
	full, err := accesscheck.Check(ctx, phone.Schema, f)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Satisfiable || full.Truncated {
		t.Fatalf("uncapped check: satisfiable=%v truncated=%v", full.Satisfiable, full.Truncated)
	}
	capped, err := accesscheck.Check(ctx, phone.Schema, f, accesscheck.WithMaxPaths(2))
	if err != nil {
		t.Fatal(err)
	}
	if capped.Satisfiable {
		t.Fatalf("cap of 2 should not find the witness (%d prefixes needed)", full.PathsExplored)
	}
	if !capped.Truncated {
		t.Error("capped unsatisfiable verdict not flagged as Truncated")
	}
}

// TestPathTreeCancelledContext: the exploration facade honours the context
// too.
func TestPathTreeCancelledContext(t *testing.T) {
	phone := workload.MustPhone()
	chk, err := accesscheck.NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := chk.PathTree(ctx, phone.Schema, phone.SmithJonesUniverse(), 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("PathTree err = %v, want context.Canceled", err)
	}
	if _, err := chk.PathStats(ctx, phone.Schema, phone.SmithJonesUniverse(), 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("PathStats err = %v, want context.Canceled", err)
	}
}

// TestHoldsAgreesWithSolverWitness: any witness Check returns must satisfy
// the formula under the facade's direct-semantics evaluation.
func TestHoldsAgreesWithSolverWitness(t *testing.T) {
	phone := workload.MustPhone()
	for _, f := range []accesscheck.Formula{
		phone.IntroFormula(),
		accesscheck.MustParseFormula(`F [bind AcM1]`),
	} {
		res, err := accesscheck.Check(context.Background(), phone.Schema, f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !res.Satisfiable {
			t.Fatalf("%s: expected satisfiable", f)
		}
		ok, err := accesscheck.Holds(f, res.Witness)
		if err != nil {
			t.Fatalf("%s: Holds: %v", f, err)
		}
		if !ok {
			t.Errorf("%s: witness rejected by direct semantics", f)
		}
	}
}

// TestEngineStrings keeps the engine names stable (they appear in CLI
// output and logs).
func TestEngineStrings(t *testing.T) {
	want := map[accesscheck.Engine]string{
		accesscheck.EngineAuto:      "auto",
		accesscheck.EngineX:         "x",
		accesscheck.EngineZeroAcc:   "0-acc",
		accesscheck.EnginePlus:      "plus",
		accesscheck.EngineBounded:   "bounded",
		accesscheck.EngineAutomaton: "automaton",
	}
	for e, s := range want {
		if e.String() != s {
			t.Errorf("Engine(%d).String() = %q, want %q", int(e), e.String(), s)
		}
	}
}

// TestTruncatedReportedOnResponseCap: an unsat verdict reached while the
// subset-response fan-out was being cut to MaxResponseChoices is not exact
// and must say so — this is the silent-incompleteness regression test.
func TestTruncatedReportedOnResponseCap(t *testing.T) {
	sch, err := accesscheck.ParseSchema([]string{"R:int"}, []string{"Scan:R"})
	if err != nil {
		t.Fatal(err)
	}
	u := instance.NewInstance(sch)
	for i := int64(1); i <= 5; i++ {
		u.MustAdd("R", instance.Int(i))
	}
	// Propositionally unsatisfiable: the verdict is "no witness", reached
	// while the free scan's 5 matching tuples were cut to the default cap
	// of 3 per response.
	f := accesscheck.MustParseFormula(`[exists x. post R(x)] & ![exists x. post R(x)]`)
	ctx := context.Background()
	res, err := accesscheck.Check(ctx, sch, f,
		accesscheck.WithEngine(accesscheck.EngineBounded),
		accesscheck.WithUniverse(u))
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfiable {
		t.Fatal("contradiction reported satisfiable")
	}
	if !res.ResponsesCapped {
		t.Error("5 matching tuples cut to 3 choices, but ResponsesCapped is false")
	}
	if !res.Truncated {
		t.Error("response-capped unsat verdict not flagged Truncated")
	}
	// Raising the cap above the fan-out restores exactness.
	res, err = accesscheck.Check(ctx, sch, f,
		accesscheck.WithEngine(accesscheck.EngineBounded),
		accesscheck.WithUniverse(u),
		accesscheck.WithMaxResponseChoices(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfiable {
		t.Fatal("contradiction reported satisfiable under the raised cap")
	}
	if res.ResponsesCapped || res.Truncated {
		t.Errorf("uncapped search flagged as capped: truncated=%v responsesCapped=%v",
			res.Truncated, res.ResponsesCapped)
	}
}

// TestCheckBatchMixedVerdicts: per-item results line up with requests, and
// broken items fail without failing the batch.
func TestCheckBatchMixedVerdicts(t *testing.T) {
	phone := workload.MustPhone()
	sat := accesscheck.MustParseFormula(`F [bind AcM1]`)
	unsatPost := accesscheck.Atom(phone.MobileNonEmptyPost())
	unsat := accesscheck.And(accesscheck.Eventually(unsatPost), accesscheck.Always(accesscheck.Not(unsatPost)))
	items := accesscheck.CheckBatch(context.Background(), []accesscheck.Request{
		{Schema: phone.Schema, Formula: sat},
		{Schema: phone.Schema, Formula: unsat},
		{Schema: nil, Formula: sat}, // broken: nil schema
		{Schema: phone.Schema, Formula: sat},
	}, accesscheck.WithEngine(accesscheck.EngineBounded))
	if len(items) != 4 {
		t.Fatalf("got %d items, want 4", len(items))
	}
	if it := items[0]; it.Err != nil || !it.Result.Satisfiable {
		t.Errorf("item 0: %+v, want satisfiable", it)
	}
	if it := items[1]; it.Err != nil || it.Result.Satisfiable {
		t.Errorf("item 1: %+v, want unsatisfiable", it)
	}
	if it := items[2]; it.Err == nil {
		t.Error("item 2: nil schema did not fail")
	}
	if it := items[3]; it.Err != nil || !it.Result.Satisfiable {
		t.Errorf("item 3: %+v, want satisfiable", it)
	}
}

// TestCheckBatchSharedCheckerConcurrently: one immutable Checker must serve
// overlapping CheckBatch calls; run under -race this is the facade-level
// concurrency regression test.
func TestCheckBatchSharedCheckerConcurrently(t *testing.T) {
	phone := workload.MustPhone()
	chk, err := accesscheck.NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	reqs := []accesscheck.Request{
		{Schema: phone.Schema, Formula: accesscheck.MustParseFormula(`F [bind AcM1]`)},
		{Schema: phone.Schema, Formula: phone.IntroFormula()},
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, it := range chk.CheckBatch(context.Background(), reqs) {
				if it.Err != nil {
					t.Errorf("concurrent batch: %v", it.Err)
				} else if !it.Result.Satisfiable {
					t.Error("concurrent batch: lost a verdict")
				}
			}
		}()
	}
	wg.Wait()
}

// TestCheckBatchCancelled: a dead context fails every item with its error
// instead of solving.
func TestCheckBatchCancelled(t *testing.T) {
	phone := workload.MustPhone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := accesscheck.CheckBatch(ctx, []accesscheck.Request{
		{Schema: phone.Schema, Formula: phone.IntroFormula()},
		{Schema: phone.Schema, Formula: phone.IntroFormula()},
	})
	for i, it := range items {
		if !errors.Is(it.Err, context.Canceled) {
			t.Errorf("item %d: err = %v, want context.Canceled", i, it.Err)
		}
	}
}

// TestFingerprint: equal configurations agree, and every ingredient that
// changes what Check computes changes the key.
func TestFingerprint(t *testing.T) {
	phone := workload.MustPhone()
	f := phone.IntroFormula()
	base, err := accesscheck.NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	same, err := accesscheck.NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	fp := base.Fingerprint(phone.Schema, f)
	if fp == "" {
		t.Fatal("empty fingerprint")
	}
	if got := same.Fingerprint(phone.Schema, f); got != fp {
		t.Errorf("identical configurations disagree: %s vs %s", fp, got)
	}
	variants := map[string]accesscheck.Option{
		"grounded":    accesscheck.WithGrounded(),
		"idempotent":  accesscheck.WithIdempotentOnly(),
		"allExact":    accesscheck.WithAllExact(),
		"exactMethod": accesscheck.WithExactMethods("AcM1"),
		"maxDepth":    accesscheck.WithMaxDepth(7),
		"maxPaths":    accesscheck.WithMaxPaths(99),
		"respChoices": accesscheck.WithMaxResponseChoices(2),
		"engine":      accesscheck.WithEngine(accesscheck.EngineBounded),
		"universe":    accesscheck.WithUniverse(phone.SmithJonesUniverse()),
		"initial":     accesscheck.WithInitialInstance(phone.SmithJonesUniverse()),
	}
	seen := map[string]string{fp: "base"}
	for name, opt := range variants {
		chk, err := accesscheck.NewChecker(opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := chk.Fingerprint(phone.Schema, f)
		if prev, dup := seen[got]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[got] = name
	}
	if got := base.Fingerprint(phone.Schema, accesscheck.MustParseFormula(`F [bind AcM1]`)); got == fp {
		t.Error("different formulas share a fingerprint")
	}
}

// TestShadowedQuantifierVerdict: a nested quantifier that reuses an outer
// variable's name is scoped like its alpha-variant through the whole
// pipeline, on the serial engine and with two walkers.
func TestShadowedQuantifierVerdict(t *testing.T) {
	sch, err := accesscheck.ParseSchema([]string{"R:string", "S:string"}, []string{"GetR:R", "GetS:S"})
	if err != nil {
		t.Fatal(err)
	}
	spellings := []string{
		"F [exists x. (pre R(x) & (exists x. pre S(x)))]",
		"F [exists x. (pre R(x) & (exists y. pre S(y)))]",
	}
	for _, par := range []int{1, 2} {
		for _, src := range spellings {
			f, err := accesscheck.ParseFormula(src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := accesscheck.Check(context.Background(), sch, f,
				accesscheck.WithEngine(accesscheck.EngineBounded), accesscheck.WithMaxDepth(3), accesscheck.WithParallelism(par))
			if err != nil {
				t.Fatalf("W=%d %s: %v", par, src, err)
			}
			if !res.Satisfiable || res.Truncated {
				t.Errorf("W=%d %s: satisfiable=%v truncated=%v, want an exact satisfiable verdict", par, src, res.Satisfiable, res.Truncated)
			}
		}
	}
}

// TestSeparatorBytesInStringsVerdict: string constants holding the tuple
// key's separator (0x1f) and escape (0x1e) bytes keep distinct tuples
// distinct through the whole pipeline. The two facts below collided under
// a key that escaped only the separator, so the witness universe held one
// tuple for both and the check answered an exact unsat. Revealing the
// first fact alone satisfies the formula.
func TestSeparatorBytesInStringsVerdict(t *testing.T) {
	sch, err := accesscheck.ParseSchema([]string{"R:string,string"}, []string{"scanR:R"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, src string
	}{
		{"adversarial", "(F [post R(\"a\x1e\",\"b\x1fsc\")]) & (G ![post R(\"a\x1fsb\x1e\",\"c\")])"},
		{"plain", `(F [post R("a","bsc")]) & (G ![post R("asb","c")])`},
	}
	for _, tc := range cases {
		f, err := accesscheck.ParseFormula(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, engine := range []accesscheck.Engine{accesscheck.EngineAuto, accesscheck.EngineBounded} {
			res, err := accesscheck.Check(context.Background(), sch, f,
				accesscheck.WithEngine(engine), accesscheck.WithMaxDepth(2))
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, engine, err)
			}
			if !res.Satisfiable || res.Truncated {
				t.Errorf("%s %v: satisfiable=%v truncated=%v, want an exact satisfiable verdict", tc.name, engine, res.Satisfiable, res.Truncated)
			}
		}
	}
}
