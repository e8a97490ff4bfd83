package autom

import (
	"testing"

	"accltl/internal/access"
	"accltl/internal/accltl"
	"accltl/internal/fo"
	"accltl/internal/instance"
	"accltl/internal/lts"
	"accltl/internal/schema"
)

// twoRelSchema: R0 with free scan, R1 with membership check.
func twoRelSchema(t testing.TB) *schema.Schema {
	t.Helper()
	r0 := schema.MustRelation("R0", schema.TypeInt)
	r1 := schema.MustRelation("R1", schema.TypeInt)
	s := schema.New()
	for _, err := range []error{
		s.AddRelation(r0), s.AddRelation(r1),
		s.AddMethod(schema.MustAccessMethod("scanR0", r0)),
		s.AddMethod(schema.MustAccessMethod("chkR1", r1, 0)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func postNE(rel string) fo.Formula {
	return fo.Ex([]string{"x"}, fo.Atom{Pred: fo.PostPred(rel), Args: []fo.Term{fo.Var("x")}})
}

func preNE(rel string) fo.Formula {
	return fo.Ex([]string{"x"}, fo.Atom{Pred: fo.PrePred(rel), Args: []fo.Term{fo.Var("x")}})
}

// seqAutomaton accepts paths where first R0 is revealed, later R1:
// 0 --[R0post]--> 1 --[R1post]--> 2(acc), with a self-loop on state 1.
func seqAutomaton(t testing.TB, s *schema.Schema) *Automaton {
	t.Helper()
	a := New(s, 3, 0)
	a.MustAddTransition(0, postNE("R0"), 1)
	a.MustAddTransition(1, fo.Truth{Val: true}, 1)
	a.MustAddTransition(1, postNE("R1"), 2)
	a.SetAccepting(2)
	return a
}

func r0Path(t testing.TB, s *schema.Schema, thenR1 bool) *access.Path {
	t.Helper()
	scan, _ := s.Method("scanR0")
	chk, _ := s.Method("chkR1")
	p := access.NewPath(s)
	p.MustAppend(access.MustAccess(scan), instance.Tuple{instance.Int(1)})
	if thenR1 {
		p.MustAppend(access.MustAccess(chk, instance.Int(1)), instance.Tuple{instance.Int(1)})
	}
	return p
}

func TestAcceptsSequence(t *testing.T) {
	s := twoRelSchema(t)
	a := seqAutomaton(t, s)
	ok, err := a.Accepts(r0Path(t, s, true))
	if err != nil || !ok {
		t.Errorf("R0-then-R1 rejected: %v, %v", ok, err)
	}
	ok, err = a.Accepts(r0Path(t, s, false))
	if err != nil || ok {
		t.Errorf("R0-only accepted: %v, %v", ok, err)
	}
	// Empty path.
	ok, err = a.Accepts(access.NewPath(s))
	if err != nil || ok {
		t.Errorf("empty path accepted: %v, %v", ok, err)
	}
}

func TestGuardValidation(t *testing.T) {
	s := twoRelSchema(t)
	a := New(s, 2, 0)
	// Negated IsBind in a guard is forbidden (Definition 4.3).
	bad := fo.Not{F: fo.Ex([]string{"x"}, fo.Atom{Pred: fo.IsBindPred("chkR1"), Args: []fo.Term{fo.Var("x")}})}
	if err := a.AddTransition(0, bad, 1); err == nil {
		t.Error("negated IsBind guard accepted")
	}
	// Open guard.
	if err := a.AddTransition(0, fo.Atom{Pred: fo.PrePred("R0"), Args: []fo.Term{fo.Var("x")}}, 1); err == nil {
		t.Error("open guard accepted")
	}
	// Out of range.
	if err := a.AddTransition(0, fo.Truth{Val: true}, 7); err == nil {
		t.Error("out-of-range state accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	s := twoRelSchema(t)
	a := New(s, 2, 0)
	if err := a.Validate(); err == nil {
		t.Error("automaton without accepting states validated")
	}
	a.SetAccepting(1)
	if err := a.Validate(); err != nil {
		t.Errorf("valid automaton rejected: %v", err)
	}
}

func TestIsEmptyFindsWitness(t *testing.T) {
	s := twoRelSchema(t)
	a := seqAutomaton(t, s)
	res, err := a.IsEmpty(EmptinessOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable {
		t.Fatal("satisfiable automaton reported empty")
	}
	ok, err := a.Accepts(res.Witness)
	if err != nil || !ok {
		t.Errorf("witness not accepted: %v, %v", ok, err)
	}
}

func TestIsEmptyUnsatisfiable(t *testing.T) {
	s := twoRelSchema(t)
	// Guard requires R1 already revealed before anything: 0 --[R1pre]--> 1.
	// From the empty initial instance the first transition has empty pre,
	// and state 0 has no other outgoing transition, so the language over
	// paths from ∅ is empty... but wait: later transitions can have
	// nonempty pre only if the automaton survives the first. It cannot.
	a := New(s, 2, 0)
	a.MustAddTransition(0, preNE("R1"), 1)
	a.SetAccepting(1)
	res, err := a.IsEmpty(EmptinessOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfiable {
		t.Errorf("empty-language automaton found witness %s", res.Witness)
	}
}

func TestIsEmptyGrounded(t *testing.T) {
	s := twoRelSchema(t)
	// Accept any path whose first access is chkR1 (guard: IsBind chkR1).
	a := New(s, 2, 0)
	a.MustAddTransition(0, fo.Ex([]string{"x"}, fo.Atom{Pred: fo.IsBindPred("chkR1"), Args: []fo.Term{fo.Var("x")}}), 1)
	a.SetAccepting(1)
	res, err := a.IsEmpty(EmptinessOptions{})
	if err != nil || !res.Satisfiable {
		t.Fatalf("ungrounded: %+v, %v", res, err)
	}
	// Grounded from empty I0: chkR1's binding can never be known first.
	res, err = a.IsEmpty(EmptinessOptions{Grounded: true, MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfiable {
		t.Errorf("grounded witness found: %s", res.Witness)
	}
}

func TestUnionAndIntersect(t *testing.T) {
	s := twoRelSchema(t)
	// A: paths revealing R0; B: paths revealing R1.
	mk := func(rel string) *Automaton {
		a := New(s, 2, 0)
		a.MustAddTransition(0, fo.Truth{Val: true}, 0)
		a.MustAddTransition(0, postNE(rel), 1)
		a.MustAddTransition(1, fo.Truth{Val: true}, 1)
		a.SetAccepting(1)
		return a
	}
	A, B := mk("R0"), mk("R1")
	u, err := Union(A, B)
	if err != nil {
		t.Fatal(err)
	}
	i, err := Intersect(A, B)
	if err != nil {
		t.Fatal(err)
	}
	pR0 := r0Path(t, s, false)
	pBoth := r0Path(t, s, true)
	for _, tc := range []struct {
		name string
		a    *Automaton
		p    *access.Path
		want bool
	}{
		{"A(R0-only)", A, pR0, true},
		{"B(R0-only)", B, pR0, false},
		{"U(R0-only)", u, pR0, true},
		{"I(R0-only)", i, pR0, false},
		{"I(both)", i, pBoth, true},
		{"U(both)", u, pBoth, true},
	} {
		got, err := tc.a.Accepts(tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSCCsAndProgressive(t *testing.T) {
	s := twoRelSchema(t)
	a := seqAutomaton(t, s)
	comp, count := a.SCCs()
	if count != 3 {
		t.Errorf("SCC count = %d, want 3", count)
	}
	if comp[0] == comp[1] || comp[1] == comp[2] {
		t.Error("distinct chain states merged")
	}
	if !a.IsProgressive() {
		t.Error("chain automaton not progressive")
	}
	// A diamond is not progressive (two crossings between components).
	d := New(s, 3, 0)
	d.MustAddTransition(0, postNE("R0"), 2)
	d.MustAddTransition(0, postNE("R1"), 2)
	d.MustAddTransition(0, fo.Truth{Val: true}, 1)
	d.MustAddTransition(1, fo.Truth{Val: true}, 2)
	d.SetAccepting(2)
	if d.IsProgressive() {
		t.Error("diamond automaton reported progressive")
	}
}

func TestDecompose(t *testing.T) {
	s := twoRelSchema(t)
	// Two routes to acceptance: via R0post or via R1post.
	a := New(s, 3, 0)
	a.MustAddTransition(0, postNE("R0"), 1)
	a.MustAddTransition(0, postNE("R1"), 2)
	a.MustAddTransition(1, fo.Truth{Val: true}, 1)
	a.SetAccepting(1, 2)
	subs, err := a.Decompose(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("decomposition size = %d, want 2", len(subs))
	}
	for _, sub := range subs {
		if !sub.IsProgressive() {
			t.Errorf("non-progressive piece:\n%s", sub)
		}
	}
	// Union emptiness must match the original: original is nonempty.
	res, err := a.IsEmpty(EmptinessOptions{})
	if err != nil || !res.Satisfiable {
		t.Fatalf("original: %+v, %v", res, err)
	}
	anyNonEmpty := false
	for _, sub := range subs {
		r, err := sub.IsEmpty(EmptinessOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Satisfiable {
			anyNonEmpty = true
		}
	}
	if !anyNonEmpty {
		t.Error("all pieces empty but original nonempty")
	}
}

func TestCompileAccLTLPlusAgreesWithSemantics(t *testing.T) {
	s := twoRelSchema(t)
	// Formula battery, each compiled and compared against the direct
	// semantics on all explored paths.
	formulas := []accltl.Formula{
		accltl.F(accltl.Atom{Sentence: postNE("R0")}),
		accltl.Conj(
			accltl.F(accltl.Atom{Sentence: postNE("R0")}),
			accltl.F(accltl.Atom{Sentence: postNE("R1")}),
		),
		accltl.Until{
			L: accltl.Not{F: accltl.Atom{Sentence: preNE("R1")}},
			R: accltl.Atom{Sentence: postNE("R0")},
		},
		accltl.Next{F: accltl.Atom{Sentence: postNE("R1")}},
		accltl.G(accltl.Not{F: accltl.Atom{Sentence: postNE("R1")}}),
		accltl.F(accltl.Atom{Sentence: fo.Ex([]string{"x"}, fo.Conj(
			fo.Atom{Pred: fo.IsBindPred("chkR1"), Args: []fo.Term{fo.Var("x")}},
			fo.Atom{Pred: fo.PrePred("R0"), Args: []fo.Term{fo.Var("x")}},
		))}),
	}
	u := instance.NewInstance(s)
	u.MustAdd("R0", instance.Int(1))
	u.MustAdd("R1", instance.Int(1))
	paths, err := lts.EnumeratePaths(s, lts.Options{Universe: u, MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range formulas {
		a, err := CompileAccLTLPlus(s, f)
		if err != nil {
			t.Fatalf("compile %s: %v", f, err)
		}
		for _, p := range paths {
			if p.Len() == 0 {
				continue
			}
			ts, err := p.Transitions(nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := accltl.Satisfied(f, ts, accltl.FullAcc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.Accepts(p)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("formula %s path %s: automaton=%v semantics=%v", f, p, got, want)
			}
		}
	}
}

func TestCompileRejectsNonBindingPositive(t *testing.T) {
	s := twoRelSchema(t)
	bad := accltl.F(accltl.Not{F: accltl.Atom{Sentence: fo.Ex([]string{"x"},
		fo.Atom{Pred: fo.IsBindPred("chkR1"), Args: []fo.Term{fo.Var("x")}})}})
	if _, err := CompileAccLTLPlus(s, bad); err == nil {
		t.Error("non-binding-positive formula compiled")
	}
}

func TestCompiledEmptinessMatchesSolver(t *testing.T) {
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
	for _, f := range formulas {
		direct, err := accltl.SolvePlusDirect(f, accltl.SolveOptions{Schema: s})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		a, err := CompileAccLTLPlus(s, f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		res, err := a.IsEmpty(EmptinessOptions{})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !res.Satisfiable == direct.Satisfiable {
			t.Errorf("%s: emptiness=%v but direct solver satisfiable=%v", f, !res.Satisfiable, direct.Satisfiable)
		}
	}
}

// TestEmptinessMemoCarriesAutomaton: a prepared search holds its
// automaton's plan and memo — planning it and searching it shard by shard
// enumerates the partition once, every round runs on the plan the
// preparation built — and reaches IsEmpty's verdict, with IsEmpty's
// PathsExplored for a whole search on a fresh Prepared.
func TestEmptinessMemoCarriesAutomaton(t *testing.T) {
	s := twoRelSchema(t)
	f := accltl.Conj(
		accltl.F(accltl.Atom{Sentence: postNE("R0")}),
		accltl.G(accltl.Not{F: accltl.Atom{Sentence: postNE("R0")}}),
	)
	a, err := CompileAccLTLPlus(s, f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.IsEmpty(EmptinessOptions{})
	if err != nil || want.Satisfiable {
		t.Fatalf("IsEmpty: %+v, %v", want, err)
	}
	p, err := a.Prepare(EmptinessOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Search(nil, 1, nil)
	if err != nil || got.Satisfiable != want.Satisfiable || got.PathsExplored != want.PathsExplored {
		t.Errorf("prepared search: %+v, %v; IsEmpty %+v", got, err, want)
	}
	p, err = a.Prepare(EmptinessOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan := p.Plan()
	for i := 0; i < plan.Len(); i++ {
		res, err := p.Search(nil, 1, []int{i})
		if err != nil || res.Satisfiable || res.TotalShards != plan.Len() {
			t.Fatalf("shard %d: %+v, %v", i, res, err)
		}
	}
	if again := p.Plan(); again != plan {
		t.Errorf("rounds re-planned: %p; planned %p", again, plan)
	}
}

func TestToDatalogContainment(t *testing.T) {
	s := twoRelSchema(t)
	a := seqAutomaton(t, s)
	if !a.IsProgressive() {
		t.Fatal("fixture not progressive")
	}
	red, err := a.ToDatalogContainment()
	if err != nil {
		t.Fatal(err)
	}
	if red.Stages != 3 {
		t.Errorf("stages = %d, want 3", red.Stages)
	}
	if err := red.Program.Validate(); err != nil {
		t.Errorf("reduction program invalid: %v", err)
	}
	// Nonempty automaton: the containment must fail.
	empty, exact, err := a.EmptyViaDatalog(0)
	if err != nil {
		t.Fatal(err)
	}
	if empty {
		t.Error("nonempty automaton reported empty via Datalog")
	}
	_ = exact
}

func TestEmptyViaDatalogWithForbiddenPattern(t *testing.T) {
	s := twoRelSchema(t)
	// Invariant ¬(R0post nonempty) on every transition, but crossing
	// requires R0post nonempty: empty language.
	a := New(s, 2, 0)
	guard := fo.Conj(postNE("R0"), fo.Not{F: postNE("R1")})
	a.MustAddTransition(0, guard, 1)
	a.SetAccepting(1)
	// Language is nonempty (reveal R0, not R1): both engines must agree.
	direct, err := a.IsEmpty(EmptinessOptions{})
	if err != nil {
		t.Fatal(err)
	}
	viaDatalog, _, err := a.EmptyViaDatalog(0)
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Satisfiable != viaDatalog {
		t.Errorf("direct=%v datalog=%v", !direct.Satisfiable, viaDatalog)
	}
	if !direct.Satisfiable {
		t.Error("expected nonempty")
	}
	// Contradictory: require R0post and forbid R0post.
	b := New(s, 2, 0)
	b.MustAddTransition(0, fo.Conj(postNE("R0"), fo.Not{F: postNE("R0")}), 1)
	b.SetAccepting(1)
	directB, err := b.IsEmpty(EmptinessOptions{})
	if err != nil {
		t.Fatal(err)
	}
	viaB, _, err := b.EmptyViaDatalog(0)
	if err != nil {
		t.Fatal(err)
	}
	if directB.Satisfiable || !viaB {
		t.Errorf("contradictory guard: direct=%v datalog=%v, want both empty", !directB.Satisfiable, viaB)
	}
}

func TestDecomposeUnreachableAccepting(t *testing.T) {
	s := twoRelSchema(t)
	a := New(s, 3, 0)
	a.MustAddTransition(0, fo.Truth{Val: true}, 1)
	a.SetAccepting(2) // unreachable
	subs, err := a.Decompose(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 0 {
		t.Errorf("decomposition of unreachable-accepting automaton = %d pieces", len(subs))
	}
	empty, exact, err := a.EmptyViaDatalog(0)
	if err != nil || !empty || !exact {
		t.Errorf("EmptyViaDatalog = %v %v %v, want empty exact", empty, exact, err)
	}
}
