package accesscheck_test

import (
	"context"
	"testing"

	"accltl/accesscheck"
	"accltl/internal/workload"
)

// containmentTaskFrom builds a facade task from a textual workload
// scenario — the same translation the server's wire layer performs.
func containmentTaskFrom(t *testing.T, sc workload.ContainmentScenario) *accesscheck.Task {
	t.Helper()
	mode, err := accesscheck.ParseContainmentMode(sc.Mode)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := accesscheck.ParseSentence(sc.Q2)
	if err != nil {
		t.Fatal(err)
	}
	switch mode {
	case accesscheck.ContainUCQ:
		q1, err := accesscheck.ParseSentence(sc.Q1)
		if err != nil {
			t.Fatal(err)
		}
		return accesscheck.NewUCQContainmentTask(q1, q2)
	case accesscheck.ContainDatalog:
		prog, err := accesscheck.ParseProgram(sc.Rules, sc.Goal)
		if err != nil {
			t.Fatal(err)
		}
		return accesscheck.NewDatalogContainmentTask(prog, q2, sc.Depth)
	default:
		sch, err := accesscheck.ParseSchema(sc.Relations, sc.Methods)
		if err != nil {
			t.Fatal(err)
		}
		q1, err := accesscheck.ParseSentence(sc.Q1)
		if err != nil {
			t.Fatal(err)
		}
		var seed *accesscheck.Instance
		if len(sc.Seed) > 0 {
			if seed, err = accesscheck.ParseInstance(sch, sc.Seed); err != nil {
				t.Fatal(err)
			}
		}
		return accesscheck.NewAccessContainmentTask(sch, q1, q2, seed, sc.Depth)
	}
}

// relevanceTaskFrom builds a facade task from a textual workload scenario.
func relevanceTaskFrom(t *testing.T, sc workload.RelevanceScenario) *accesscheck.Task {
	t.Helper()
	sch, err := accesscheck.ParseSchema(sc.Relations, sc.Methods)
	if err != nil {
		t.Fatal(err)
	}
	query, err := accesscheck.ParseSentence(sc.Query)
	if err != nil {
		t.Fatal(err)
	}
	rt := &accesscheck.RelevanceTask{
		Schema:   sch,
		Probe:    sc.Probe,
		Query:    query,
		MaxDepth: sc.MaxDepth,
	}
	if len(sc.Hidden) > 0 {
		if rt.Hidden, err = accesscheck.ParseInstance(sch, sc.Hidden); err != nil {
			t.Fatal(err)
		}
	}
	if len(sc.Seed) > 0 {
		if rt.Seed, err = accesscheck.ParseInstance(sch, sc.Seed); err != nil {
			t.Fatal(err)
		}
	}
	if sc.Probe != "" {
		m, ok := sch.Method(sc.Probe)
		if !ok {
			t.Fatalf("schema has no method %q", sc.Probe)
		}
		if rt.Binding, err = accesscheck.ParseBinding(m, sc.Binding); err != nil {
			t.Fatal(err)
		}
	}
	return accesscheck.NewRelevanceTask(rt)
}

func TestWorkloadContainmentScenarios(t *testing.T) {
	ctx := context.Background()
	for _, sc := range workload.ContainmentScenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			res, err := accesscheck.Do(ctx, containmentTaskFrom(t, sc))
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != sc.WantContained {
				t.Errorf("contained = %v, want %v", res.Verdict, sc.WantContained)
			}
			if res.Containment.Exact != sc.WantExact {
				t.Errorf("exact = %v, want %v", res.Containment.Exact, sc.WantExact)
			}
			if res.Truncated != !sc.WantExact {
				t.Errorf("truncated = %v, want %v", res.Truncated, !sc.WantExact)
			}
			if res.Kind != accesscheck.TaskContainment || res.Engine == "" {
				t.Errorf("envelope wrong: kind=%v engine=%q", res.Kind, res.Engine)
			}
		})
	}
}

func TestWorkloadRelevanceScenarios(t *testing.T) {
	ctx := context.Background()
	for _, sc := range workload.RelevanceScenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			res, err := accesscheck.Do(ctx, relevanceTaskFrom(t, sc))
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != sc.WantVerdict {
				t.Errorf("verdict = %v, want %v", res.Verdict, sc.WantVerdict)
			}
			wantEngine := "accltl-plus"
			if sc.Probe == "" {
				wantEngine = "datalog-fixpoint"
				if res.Relevance.Accessible == nil {
					t.Error("accessible-part mode returned no instance")
				}
			}
			if res.Engine != wantEngine {
				t.Errorf("engine = %q, want %q", res.Engine, wantEngine)
			}
		})
	}
}

func TestChaseTask(t *testing.T) {
	// Armstrong transitivity: {R: 0→1, R: 1→2} ⊨ R: 0→2.
	fd01, err := accesscheck.ParseFD("R:0->1")
	if err != nil {
		t.Fatal(err)
	}
	fd12, err := accesscheck.ParseFD("R:1->2")
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := accesscheck.ParseFD("R:0->2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := accesscheck.Do(context.Background(), accesscheck.NewChaseTask(&accesscheck.ChaseTask{
		Arities: map[string]int{"R": 3},
		FDs:     []accesscheck.FD{fd01, fd12},
		Sigma:   sigma,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict || res.Truncated || res.Engine != "chase" {
		t.Errorf("transitivity: verdict=%v truncated=%v engine=%q", res.Verdict, res.Truncated, res.Engine)
	}
	if !res.Chase.Terminated || res.Chase.Verdict != "implied" {
		t.Errorf("report wrong: %+v", res.Chase)
	}

	// The reverse direction does not follow.
	res, err = accesscheck.Do(context.Background(), accesscheck.NewChaseTask(&accesscheck.ChaseTask{
		Arities: map[string]int{"R": 3},
		FDs:     []accesscheck.FD{fd01},
		Sigma:   sigma,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict || !res.Chase.Terminated {
		t.Errorf("non-implication: verdict=%v report=%+v", res.Verdict, res.Chase)
	}
}

func TestTaskFingerprintsDistinctAcrossKinds(t *testing.T) {
	// The task kind leads the fingerprint, so tasks built from identical
	// schema and formula text can never collide across kinds — a cache
	// warmed by one task must not answer another.
	phone := workload.MustPhone()
	q := phone.JonesQuery()
	f := accesscheck.Eventually(accesscheck.Atom(q))
	chk, err := accesscheck.NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	tasks := map[string]*accesscheck.Task{
		"containment": accesscheck.NewAccessContainmentTask(phone.Schema, q, q, nil, 3),
		"relevance": accesscheck.NewRelevanceTask(&accesscheck.RelevanceTask{
			Schema: phone.Schema, Query: q, Hidden: phone.SmithJonesUniverse(),
		}),
	}
	fps := map[string]string{"check": chk.Fingerprint(phone.Schema, f)}
	for name, task := range tasks {
		fp, err := chk.FingerprintTask(task)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for other, seen := range fps {
			if seen == fp {
				t.Errorf("%s and %s share fingerprint %s on identical text", name, other, fp)
			}
		}
		fps[name] = fp
	}

	// Same task twice is stable; non-check fingerprints are canonical in
	// the payload alone, so they survive checker-option changes.
	again, err := accesscheck.NewChecker(accesscheck.WithMaxDepth(9), accesscheck.WithGrounded())
	if err != nil {
		t.Fatal(err)
	}
	if again.Fingerprint(phone.Schema, f) == fps["check"] {
		t.Error("check fingerprint ignores checker options")
	}
	for name, task := range tasks {
		fp, err := again.FingerprintTask(task)
		if err != nil {
			t.Fatal(err)
		}
		if fp != fps[name] {
			t.Errorf("%s fingerprint depends on checker options", name)
		}
	}
}

// TestTaskFingerprintsSeparateStagedFromPlainAtoms: the post-stage atom
// over R and the plain atom over a relation named Rpost are different
// queries, so containment tasks that differ only there must not share a
// key, or a cache would answer one with the other's verdict.
func TestTaskFingerprintsSeparateStagedFromPlainAtoms(t *testing.T) {
	chk, err := accesscheck.NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	const plainText, stagedText = "exists x. Rpost(x)", "exists x. post R(x)"
	plain, err := accesscheck.ParseSentence(plainText)
	if err != nil {
		t.Fatal(err)
	}
	staged, err := accesscheck.ParseSentence(stagedText)
	if err != nil {
		t.Fatal(err)
	}
	same, err := chk.FingerprintTask(accesscheck.NewUCQContainmentTask(plain, plain))
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := chk.FingerprintTask(accesscheck.NewUCQContainmentTask(staged, plain))
	if err != nil {
		t.Fatal(err)
	}
	if same == mixed {
		t.Errorf("q1 %q and q1 %q share containment fingerprint %s", plainText, stagedText, same)
	}
}
