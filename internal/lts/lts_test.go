package lts

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"accltl/internal/access"
	"accltl/internal/instance"
	"accltl/internal/pollctx"
	"accltl/internal/schema"
)

// tinySchema: one unary relation R with a boolean access, one binary S with
// an input on position 0.
func tinySchema(t testing.TB) *schema.Schema {
	t.Helper()
	r := schema.MustRelation("R", schema.TypeInt)
	s2 := schema.MustRelation("S", schema.TypeInt, schema.TypeInt)
	s := schema.New()
	for _, err := range []error{
		s.AddRelation(r),
		s.AddRelation(s2),
		s.AddMethod(schema.MustAccessMethod("mR", r, 0)),
		s.AddMethod(schema.MustAccessMethod("mS", s2, 0)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func tinyUniverse(t testing.TB, s *schema.Schema) *instance.Instance {
	t.Helper()
	u := instance.NewInstance(s)
	u.MustAdd("R", instance.Int(1))
	u.MustAdd("S", instance.Int(1), instance.Int(2))
	return u
}

func TestExploreRequiresUniverse(t *testing.T) {
	s := tinySchema(t)
	_, err := Explore(s, Options{MaxDepth: 1}, func(_ *access.Path, _, _ *instance.Instance) (bool, error) {
		return true, nil
	})
	if err == nil {
		t.Error("nil universe accepted")
	}
}

func TestEnumeratePathsDepthZero(t *testing.T) {
	s := tinySchema(t)
	ps, err := EnumeratePaths(s, Options{Universe: tinyUniverse(t, s), MaxDepth: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].Len() != 0 {
		t.Errorf("depth-0 paths = %d", len(ps))
	}
}

func TestEnumeratePathsDepthOne(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	ps, err := EnumeratePaths(s, Options{Universe: u, MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Binding pool = {1, 2} ints. Methods: mR (1 input), mS (1 input).
	// mR(1): matching {R(1)} -> 2 responses; mR(2): 1 response (empty);
	// mS(1): matching {S(1,2)} -> 2 responses; mS(2): 1 response.
	// Total step-1 paths = 6, plus the empty path = 7.
	if len(ps) != 7 {
		for _, p := range ps {
			t.Log(p)
		}
		t.Errorf("paths = %d, want 7", len(ps))
	}
}

func TestExploreGroundedOnly(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	// With empty I0 and grounded-only, no values are known, so no access
	// can be made at all.
	ps, err := EnumeratePaths(s, Options{Universe: u, MaxDepth: 2, GroundedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 {
		t.Errorf("grounded paths from empty I0 = %d, want 1 (empty path)", len(ps))
	}
	// Seed 1 in I0: mR(1) and mS(1) become available; responses reveal 2.
	i0 := instance.NewInstance(s)
	i0.MustAdd("R", instance.Int(1))
	ps, err = EnumeratePaths(s, Options{Universe: u, Initial: i0, MaxDepth: 2, GroundedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if !p.IsGrounded(i0) {
			t.Errorf("non-grounded path enumerated: %s", p)
		}
	}
	if len(ps) <= 1 {
		t.Error("no grounded paths found from seeded I0")
	}
}

func TestExploreExactMethods(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	ps, err := EnumeratePaths(s, Options{Universe: u, MaxDepth: 1, AllExact: true})
	if err != nil {
		t.Fatal(err)
	}
	// Exact: each access has exactly one response. 2 methods × 2 bindings
	// + empty path = 5.
	if len(ps) != 5 {
		t.Errorf("exact paths = %d, want 5", len(ps))
	}
	for _, p := range ps {
		if p.Len() == 0 {
			continue
		}
		st := p.Step(0)
		want := u.Matching(st.Access.Method, st.Access.Binding)
		if len(want) != len(st.Response) {
			t.Errorf("exact access %s returned %d of %d tuples", st.Access, len(st.Response), len(want))
		}
	}
}

func TestExploreIdempotentOnly(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	ps, err := EnumeratePaths(s, Options{Universe: u, MaxDepth: 2, IdempotentOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if !p.IsIdempotent() {
			t.Errorf("non-idempotent path enumerated: %s", p)
		}
	}
}

func TestExploreAllPathsAreWellFormed(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	ps, err := EnumeratePaths(s, Options{Universe: u, MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		conf, err := p.FinalConfig(nil)
		if err != nil {
			t.Fatalf("path %s: %v", p, err)
		}
		if !u.Contains(conf) {
			t.Errorf("path %s revealed tuples outside the universe", p)
		}
	}
}

func TestExplorePruning(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	count := 0
	_, err := Explore(s, Options{Universe: u, MaxDepth: 3}, func(p *access.Path, _, _ *instance.Instance) (bool, error) {
		count++
		return false, nil // prune everything: only the empty path visits
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("visits with immediate pruning = %d, want 1", count)
	}
}

func TestExploreMaxPaths(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	count := 0
	rep, err := Explore(s, Options{Universe: u, MaxDepth: 3, MaxPaths: 5}, func(p *access.Path, _, _ *instance.Instance) (bool, error) {
		count++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("visited %d prefixes, want exactly MaxPaths=5 (root included)", count)
	}
	if rep.Paths != 5 {
		t.Errorf("Report.Paths = %d, want 5", rep.Paths)
	}
	if !rep.PathsCapped {
		t.Error("cap cut the search but Report.PathsCapped is false")
	}
}

// TestExploreMaxPathsBoundary pins the cap semantics at the boundary: the
// depth-1 space of the tiny schema has exactly 7 prefixes (root + 6 paths).
// MaxPaths=7 visits all of them and must NOT report a cap; MaxPaths=6 cuts
// one off and must.
func TestExploreMaxPathsBoundary(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	walk := func(maxPaths int) (int, Report) {
		count := 0
		rep, err := Explore(s, Options{Universe: u, MaxDepth: 1, MaxPaths: maxPaths},
			func(p *access.Path, _, _ *instance.Instance) (bool, error) {
				count++
				return true, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return count, rep
	}
	if count, rep := walk(7); count != 7 || rep.PathsCapped {
		t.Errorf("MaxPaths=7 over a 7-prefix space: visited=%d capped=%v, want 7/false", count, rep.PathsCapped)
	}
	if count, rep := walk(6); count != 6 || !rep.PathsCapped {
		t.Errorf("MaxPaths=6 over a 7-prefix space: visited=%d capped=%v, want 6/true", count, rep.PathsCapped)
	}
	// MaxPaths=1 admits only the root: the cap counts the empty prefix.
	if count, rep := walk(1); count != 1 || !rep.PathsCapped {
		t.Errorf("MaxPaths=1: visited=%d capped=%v, want 1 (just the root)/true", count, rep.PathsCapped)
	}
}

// TestExploreResponsesCapped: squeezing the subset fan-out below the number
// of matching tuples must surface in the report — an unsat verdict above
// this exploration is not exact.
func TestExploreResponsesCapped(t *testing.T) {
	s := tinySchema(t)
	u := instance.NewInstance(s)
	u.MustAdd("R", instance.Int(1))
	u.MustAdd("S", instance.Int(1), instance.Int(2))
	u.MustAdd("S", instance.Int(1), instance.Int(3))
	u.MustAdd("S", instance.Int(1), instance.Int(4))
	// mS(1) matches 3 tuples; MaxResponseChoices=2 truncates the fan-out.
	rep, err := Explore(s, Options{Universe: u, MaxDepth: 1, MaxResponseChoices: 2},
		func(_ *access.Path, _, _ *instance.Instance) (bool, error) { return true, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ResponsesCapped {
		t.Error("3 matching tuples cut to 2 choices, but ResponsesCapped is false")
	}
	// With room for every matching tuple the flag must stay clear.
	rep, err = Explore(s, Options{Universe: u, MaxDepth: 1, MaxResponseChoices: 3},
		func(_ *access.Path, _, _ *instance.Instance) (bool, error) { return true, nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResponsesCapped {
		t.Error("fan-out not truncated but ResponsesCapped is true")
	}
	// Exact methods return all matching tuples: no cap regardless of the
	// choice budget.
	rep, err = Explore(s, Options{Universe: u, MaxDepth: 1, MaxResponseChoices: 1, AllExact: true},
		func(_ *access.Path, _, _ *instance.Instance) (bool, error) { return true, nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResponsesCapped {
		t.Error("exact responses flagged as capped")
	}
}

func TestCollectStats(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	st, err := Collect(s, Options{Universe: u, MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.PathsPerDepth[0] != 1 || st.PathsPerDepth[1] != 6 {
		t.Errorf("paths per depth = %v", st.PathsPerDepth)
	}
	if st.TotalPaths != 7 {
		t.Errorf("total = %d", st.TotalPaths)
	}
	// Distinct configurations at depth 1: empty (from empty responses),
	// {R(1)}, {S(1,2)} = 3.
	if st.ConfigsPerDepth[1] != 3 {
		t.Errorf("configs at depth 1 = %d, want 3", st.ConfigsPerDepth[1])
	}
}

func TestBuildTreeAndRender(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	tree, err := BuildTree(s, Options{Universe: u, MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.CountNodes() != 7 {
		t.Errorf("tree nodes = %d, want 7", tree.CountNodes())
	}
	if tree.Depth() != 1 {
		t.Errorf("tree depth = %d", tree.Depth())
	}
	var b strings.Builder
	tree.Render(&b)
	out := b.String()
	if !strings.Contains(out, "Known Facts") || !strings.Contains(out, "∅") {
		t.Errorf("render missing expected elements:\n%s", out)
	}
}

// TestSuccessorsPollsContextInLoop: a context that expires after the entry
// check must still abort a large method × binding enumeration — Successors
// may not collect the full product first.
func TestSuccessorsPollsContextInLoop(t *testing.T) {
	s := tinySchema(t)
	u := instance.NewInstance(s)
	for i := 0; i < 200; i++ {
		u.MustAdd("R", instance.Int(int64(i)))
	}
	ctx := pollctx.New(3, context.Canceled)
	_, _, err := Successors(s, Options{Universe: u, Context: ctx, MaxDepth: 1}, instance.NewInstance(s))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Successors over a 400-binding pool with an expiring context: err = %v, want context.Canceled", err)
	}
	if ctx.Polls() <= 2 {
		t.Errorf("context polled only %d times — entry check only, not inside the loop", ctx.Polls())
	}
}

// TestSuccessorsCancelledPromptly: an already-cancelled context is refused
// before any enumeration.
func TestSuccessorsCancelledPromptly(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, _, err := Successors(s, Options{Universe: u, Context: ctx, MaxDepth: 1}, instance.NewInstance(s))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled Successors took %s", d)
	}
}

// TestExplorePollsContextInLoop: same property for Explore — the periodic
// poll must see an expiry that happens after the entry check.
func TestExplorePollsContextInLoop(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	ctx := pollctx.New(2, context.Canceled)
	_, err := Explore(s, Options{Universe: u, Context: ctx, MaxDepth: 4},
		func(_ *access.Path, _, _ *instance.Instance) (bool, error) { return true, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Explore with an expiring context: err = %v, want context.Canceled", err)
	}
}

// TestSuccessorsReportsResponseCap: the branching-time walk gets the same
// honesty signal Explore does when the fan-out is cut.
func TestSuccessorsReportsResponseCap(t *testing.T) {
	s := tinySchema(t)
	u := instance.NewInstance(s)
	u.MustAdd("R", instance.Int(1))
	u.MustAdd("S", instance.Int(1), instance.Int(2))
	u.MustAdd("S", instance.Int(1), instance.Int(3))
	u.MustAdd("S", instance.Int(1), instance.Int(4))
	conf := instance.NewInstance(s)
	_, rep, err := Successors(s, Options{Universe: u, MaxDepth: 1, MaxResponseChoices: 2}, conf)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ResponsesCapped {
		t.Error("3 matching tuples cut to 2 choices, but ResponsesCapped is false")
	}
	_, rep, err = Successors(s, Options{Universe: u, MaxDepth: 1, MaxResponseChoices: 3}, conf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResponsesCapped {
		t.Error("uncut fan-out flagged as capped")
	}
}
