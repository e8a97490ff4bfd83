package fo

import (
	"strings"
	"testing"

	"accltl/internal/instance"
)

// atom is a test helper building an atom over a Plain predicate with string
// variable names (prefix "$" marks a string constant, "#" an int constant).
func atom(pred Pred, args ...string) Atom {
	ts := make([]Term, len(args))
	for i, a := range args {
		switch {
		case strings.HasPrefix(a, "$"):
			ts[i] = Const(instance.Str(a[1:]))
		default:
			ts[i] = Var(a)
		}
	}
	return Atom{Pred: pred, Args: ts}
}

var (
	rP = PlainPred("R")
	sP = PlainPred("S")
)

func TestPredString(t *testing.T) {
	for _, c := range []struct {
		p    Pred
		want string
	}{
		{PrePred("Mobile#"), "pre Mobile#"},
		{PostPred("R"), "post R"},
		{IsBindPred("AcM1"), "bind AcM1"},
		{PlainPred("Rpost"), "Rpost"},
	} {
		if got := c.p.String(); got != c.want {
			t.Errorf("%#v renders %q, want %q", c.p, got, c.want)
		}
	}
}

// TestTermString: terms render as the formula parser reads them, so a
// constant never renders like a variable and a string constant reads back
// as itself.
func TestTermString(t *testing.T) {
	for _, c := range []struct {
		term Term
		want string
	}{
		{Var("true"), "true"},
		{Const(instance.Bool(true)), "#t"},
		{Const(instance.Bool(false)), "#f"},
		{Const(instance.Int(-5)), "-5"},
		{Const(instance.Str(`a\b`)), `"a\b"`},
		{Const(instance.Str(`say "hi"`)), `"say \"hi\""`},
	} {
		if got := c.term.String(); got != c.want {
			t.Errorf("%#v renders %s, want %s", c.term, got, c.want)
		}
	}
}

// TestQuantifierOperandString: a quantifier under a connective renders in
// parentheses, since its body would otherwise swallow the operands after
// it: (∃x R(x)) ∧ S(y) and ∃x (R(x) ∧ S(y)) render apart.
func TestQuantifierOperandString(t *testing.T) {
	rx := Ex([]string{"x"}, atom(rP, "x"))
	sy := atom(PlainPred("S"), "y")
	for _, c := range []struct {
		f    Formula
		want string
	}{
		{And{Conj: []Formula{rx, sy}}, "((exists x. R(x)) & S(y))"},
		{Ex([]string{"x"}, And{Conj: []Formula{atom(rP, "x"), sy}}), "exists x. (R(x) & S(y))"},
		{Or{Disj: []Formula{sy, rx}}, "(S(y) | (exists x. R(x)))"},
		{Not{F: rx}, "!(exists x. R(x))"},
	} {
		if got := c.f.String(); got != c.want {
			t.Errorf("renders %s, want %s", got, c.want)
		}
	}
}

func TestFreeVars(t *testing.T) {
	f := Exists{Vars: []string{"x"}, Body: Conj(atom(rP, "x", "y"), Eq{Var("y"), Var("z")})}
	fv := FreeVars(f)
	if len(fv) != 2 || fv[0] != "y" || fv[1] != "z" {
		t.Errorf("free vars = %v, want [y z]", fv)
	}
	if IsSentence(f) {
		t.Error("open formula reported as sentence")
	}
	closed := Ex([]string{"x", "y", "z"}, f.Body)
	if !IsSentence(closed) {
		t.Error("closed formula reported open")
	}
}

func TestConjDisjSimplification(t *testing.T) {
	a := atom(rP, "x")
	if got := Conj(); got != (Truth{Val: true}) {
		t.Errorf("empty Conj = %v", got)
	}
	if got := Disj(); got != (Truth{Val: false}) {
		t.Errorf("empty Disj = %v", got)
	}
	if got := Conj(a, Truth{Val: false}); got != (Truth{Val: false}) {
		t.Errorf("Conj with false = %v", got)
	}
	if got := Disj(a, Truth{Val: true}); got != (Truth{Val: true}) {
		t.Errorf("Disj with true = %v", got)
	}
	// Flattening
	f := Conj(Conj(a, a), a)
	if and, ok := f.(And); !ok || len(and.Conj) != 3 {
		t.Errorf("Conj did not flatten: %v", f)
	}
}

func TestFragmentClassifiers(t *testing.T) {
	pos := Ex([]string{"x"}, Conj(atom(rP, "x"), atom(sP, "x")))
	if !IsPositive(pos) || HasInequality(pos) {
		t.Error("positive formula misclassified")
	}
	neg := Not{F: pos}
	if IsPositive(neg) {
		t.Error("negation classified positive")
	}
	neq := Ex([]string{"x", "y"}, Conj(atom(rP, "x"), Neq{Var("x"), Var("y")}))
	if !HasInequality(neq) {
		t.Error("inequality missed")
	}
}

func TestIsZeroAcc(t *testing.T) {
	zero := Atom{Pred: IsBindPred("AcM1")}
	if !IsZeroAcc(zero) {
		t.Error("0-ary IsBind not zero-acc")
	}
	nary := Ex([]string{"x"}, Atom{Pred: IsBindPred("AcM1"), Args: []Term{Var("x")}})
	if IsZeroAcc(nary) {
		t.Error("1-ary IsBind passed zero-acc")
	}
	if !IsZeroAcc(Ex([]string{"x"}, atom(rP, "x"))) {
		t.Error("bind-free formula not zero-acc")
	}
}

func TestIsBindPolarity(t *testing.T) {
	bind := Ex([]string{"x"}, Atom{Pred: IsBindPred("m"), Args: []Term{Var("x")}})
	if IsBindPolarity(bind) != BindPositive {
		t.Error("positive IsBind misclassified")
	}
	if IsBindPolarity(Not{F: bind}) != BindMixed {
		t.Error("negated IsBind not mixed")
	}
	if IsBindPolarity(Not{F: Not{F: bind}}) != BindPositive {
		t.Error("double negation not positive")
	}
	if IsBindPolarity(atom(rP, "$a")) != BindAbsent {
		t.Error("bind-free formula not absent")
	}
}

func TestCheckGuard(t *testing.T) {
	pos := Ex([]string{"x"}, Conj(atom(rP, "x"), Atom{Pred: IsBindPred("m"), Args: []Term{Var("x")}}))
	negOK := Not{F: Ex([]string{"y"}, atom(sP, "y"))}
	guard := Conj(pos, negOK)
	if err := CheckGuard(guard); err != nil {
		t.Errorf("valid guard rejected: %v", err)
	}
	negBad := Not{F: Ex([]string{"x"}, Atom{Pred: IsBindPred("m"), Args: []Term{Var("x")}})}
	if err := CheckGuard(Conj(pos, negBad)); err == nil {
		t.Error("negated IsBind guard accepted")
	}
	if err := CheckGuard(atom(rP, "x")); err == nil {
		t.Error("open guard accepted")
	}
}

func testStructure() *MapStructure {
	st := NewMapStructure()
	st.Add(rP, instance.Tuple{instance.Int(1), instance.Int(2)})
	st.Add(rP, instance.Tuple{instance.Int(2), instance.Int(3)})
	st.Add(sP, instance.Tuple{instance.Int(3)})
	return st
}

func mustEval(t *testing.T, f Formula, st Structure) bool {
	t.Helper()
	res, err := Eval(f, st)
	if err != nil {
		t.Fatalf("Eval(%s): %v", f, err)
	}
	return res
}

func TestEvalAtoms(t *testing.T) {
	st := testStructure()
	holds := Atom{Pred: rP, Args: []Term{Const(instance.Int(1)), Const(instance.Int(2))}}
	if !mustEval(t, holds, st) {
		t.Error("present fact not found")
	}
	missing := Atom{Pred: rP, Args: []Term{Const(instance.Int(9)), Const(instance.Int(9))}}
	if mustEval(t, missing, st) {
		t.Error("absent fact found")
	}
}

func TestEvalJoin(t *testing.T) {
	st := testStructure()
	// exists x,y,z: R(x,y) & R(y,z) & S(z)  — the path 1->2->3 with S(3).
	f := Ex([]string{"x", "y", "z"}, Conj(atom(rP, "x", "y"), atom(rP, "y", "z"), atom(sP, "z")))
	if !mustEval(t, f, st) {
		t.Error("join query false")
	}
	// exists x: R(x,x) — no self loop.
	g := Ex([]string{"x"}, atom(rP, "x", "x"))
	if mustEval(t, g, st) {
		t.Error("self-loop query true")
	}
}

func TestEvalDisjunction(t *testing.T) {
	st := testStructure()
	f := Disj(
		Ex([]string{"x"}, atom(rP, "x", "x")),
		Ex([]string{"z"}, atom(sP, "z")),
	)
	if !mustEval(t, f, st) {
		t.Error("disjunction with true branch false")
	}
}

func TestEvalEqualityOnly(t *testing.T) {
	// exists x: x = x must hold even on an empty structure (fresh reserve).
	st := NewMapStructure()
	f := Ex([]string{"x"}, Eq{Var("x"), Var("x")})
	if !mustEval(t, f, st) {
		t.Error("exists x. x=x false on empty structure")
	}
}

func TestEvalInequalityNeedsFreshValues(t *testing.T) {
	// On a single-value structure, exists x,y: x != y requires the fresh
	// reserve to find a second value.
	st := NewMapStructure()
	st.Add(sP, instance.Tuple{instance.Int(1)})
	f := Ex([]string{"x", "y"}, Neq{Var("x"), Var("y")})
	if !mustEval(t, f, st) {
		t.Error("exists x,y. x!=y false despite infinite domains")
	}
}

func TestEvalInequalityWithAtoms(t *testing.T) {
	st := testStructure()
	// Two distinct R-tuples exist.
	f := Ex([]string{"x", "y", "u", "v"}, Conj(
		atom(rP, "x", "y"), atom(rP, "u", "v"), Neq{Var("x"), Var("u")}))
	if !mustEval(t, f, st) {
		t.Error("distinct tuples not found")
	}
	// No two distinct S-tuples.
	g := Ex([]string{"x", "y"}, Conj(atom(sP, "x"), atom(sP, "y"), Neq{Var("x"), Var("y")}))
	if mustEval(t, g, st) {
		t.Error("found two distinct S values in singleton S")
	}
}

func TestEvalNegationAndGuards(t *testing.T) {
	st := testStructure()
	notEmpty := Not{F: Ex([]string{"x"}, atom(sP, "x"))}
	if mustEval(t, notEmpty, st) {
		t.Error("negation of true sentence held")
	}
	f := Conj(Ex([]string{"x"}, atom(sP, "x")), Not{F: Ex([]string{"x"}, atom(PlainPred("T"), "x"))})
	if !mustEval(t, f, st) {
		t.Error("guard-shaped formula false")
	}
}

func TestEvalOpenFormulaError(t *testing.T) {
	if _, err := Eval(atom(rP, "x", "y"), testStructure()); err == nil {
		t.Error("open formula evaluated without error")
	}
}

func TestToUCQ(t *testing.T) {
	// (∃x R(x,y)) ∨ (S(z) ∧ ∃x S(x))  with free y, z.
	f := Disj(
		Ex([]string{"x"}, atom(rP, "x", "y")),
		Conj(atom(sP, "z"), Ex([]string{"x"}, atom(sP, "x"))),
	)
	cqs, err := ToUCQ(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(cqs) != 2 {
		t.Fatalf("got %d disjuncts, want 2", len(cqs))
	}
	if len(cqs[0].Atoms) != 1 || len(cqs[1].Atoms) != 2 {
		t.Errorf("atom counts = %d, %d", len(cqs[0].Atoms), len(cqs[1].Atoms))
	}
	if _, err := ToUCQ(Not{F: atom(sP, "$a")}); err == nil {
		t.Error("negative formula converted")
	}
}

func TestToUCQStandardizesApart(t *testing.T) {
	// Same bound name in both branches must not collide after conversion.
	f := Conj(
		Ex([]string{"x"}, atom(rP, "x", "x")),
		Ex([]string{"x"}, atom(sP, "x")),
	)
	cqs, err := ToUCQ(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(cqs) != 1 {
		t.Fatalf("want single CQ, got %d", len(cqs))
	}
	vars := cqs[0].Vars()
	if len(vars) != 2 {
		t.Errorf("bound variables merged: %v", vars)
	}
}

func TestCanonicalDB(t *testing.T) {
	cq := CQ{Atoms: []Atom{atom(rP, "x", "y"), atom(rP, "y", "z")}}
	st, frozen, ok := cq.CanonicalDB()
	if !ok {
		t.Fatal("canonical DB of satisfiable CQ failed")
	}
	if st.Size() != 2 {
		t.Errorf("canonical DB size = %d", st.Size())
	}
	if frozen["x"] == frozen["y"] || frozen["y"] == frozen["z"] {
		t.Error("distinct variables frozen to same null")
	}
	// The CQ must hold on its own canonical DB.
	if !cq.Holds(st) {
		t.Error("CQ does not hold on its canonical DB")
	}
}

func TestCanonicalDBWithEqualities(t *testing.T) {
	cq := CQ{
		Atoms: []Atom{atom(rP, "x", "y")},
		Eqs:   []Eq{{Var("x"), Var("y")}},
	}
	_, frozen, ok := cq.CanonicalDB()
	if !ok {
		t.Fatal("satisfiable CQ rejected")
	}
	if frozen["x"] != frozen["y"] {
		t.Error("equality not applied")
	}
	// Contradictory constants.
	bad := CQ{Eqs: []Eq{{Const(instance.Int(1)), Const(instance.Int(2))}}}
	if _, _, ok := bad.CanonicalDB(); ok {
		t.Error("1=2 accepted")
	}
	// x = x with x ≠ x is unsatisfiable.
	neq := CQ{Atoms: []Atom{atom(rP, "x", "x")}, Neqs: []Neq{{Var("x"), Var("x")}}}
	if _, _, ok := neq.CanonicalDB(); ok {
		t.Error("x!=x accepted")
	}
}

func TestCQContainment(t *testing.T) {
	// Q1: ∃x,y,z R(x,y) ∧ R(y,z)  (path of length 2)
	// Q2: ∃x,y R(x,y)             (single edge)
	q1 := CQ{Atoms: []Atom{atom(rP, "x", "y"), atom(rP, "y", "z")}}
	q2 := CQ{Atoms: []Atom{atom(rP, "u", "v")}}
	if got, err := q1.ContainedIn(q2); err != nil || !got {
		t.Errorf("path2 ⊆ edge: got %v, %v", got, err)
	}
	if got, err := q2.ContainedIn(q1); err != nil || got {
		t.Errorf("edge ⊆ path2: got %v, %v", got, err)
	}
	// Reflexivity.
	if got, _ := q1.ContainedIn(q1); !got {
		t.Error("containment not reflexive")
	}
}

func TestCQContainmentWithConstants(t *testing.T) {
	qa := CQ{Atoms: []Atom{atom(sP, "$a")}}
	qx := CQ{Atoms: []Atom{atom(sP, "x")}}
	if got, _ := qa.ContainedIn(qx); !got {
		t.Error("S(a) ⊆ ∃x S(x) failed")
	}
	if got, _ := qx.ContainedIn(qa); got {
		t.Error("∃x S(x) ⊆ S(a) held")
	}
}

func TestUCQContains(t *testing.T) {
	edge := CQ{Atoms: []Atom{atom(rP, "x", "y")}}
	sAtom := CQ{Atoms: []Atom{atom(sP, "x")}}
	// {edge} ⊆ {edge, S}
	if got, err := UCQContains([]CQ{edge}, []CQ{edge, sAtom}); err != nil || !got {
		t.Errorf("UCQ containment failed: %v %v", got, err)
	}
	// {edge, S} ⊄ {edge}
	if got, _ := UCQContains([]CQ{edge, sAtom}, []CQ{edge}); got {
		t.Error("union containment over-approved")
	}
}

// TestContainmentRefusesNeqAndOpenCQs: containment decides boolean CQs
// without inequalities only; anything else is an error, never a verdict,
// and an open CQ does not hold anywhere (Eval refuses an open formula).
func TestContainmentRefusesNeqAndOpenCQs(t *testing.T) {
	edge := CQ{Atoms: []Atom{atom(rP, "x", "y")}}
	open := CQ{Free: []string{"x"}, Atoms: []Atom{atom(rP, "x", "y")}}
	neq := CQ{Atoms: []Atom{atom(rP, "x", "y")}, Neqs: []Neq{{Var("x"), Var("y")}}}
	unsat := CQ{Eqs: []Eq{{Const(instance.Int(1)), Const(instance.Int(2))}}}
	for _, tc := range []struct {
		name string
		q, p CQ
	}{
		{name: "open left", q: open, p: edge},
		{name: "open right", q: edge, p: open},
		{name: "neq left", q: neq, p: edge},
		{name: "neq right", q: edge, p: neq},
	} {
		if got, err := tc.q.ContainedIn(tc.p); err == nil {
			t.Errorf("%s: ContainedIn = %v, want an error", tc.name, got)
		}
		if got, err := UCQContains([]CQ{tc.q}, []CQ{tc.p}); err == nil {
			t.Errorf("%s: UCQContains = %v, want an error", tc.name, got)
		}
	}
	for _, p := range []CQ{open, neq} {
		if got, err := unsat.ContainedIn(p); err == nil {
			t.Errorf("unsat ⊆ %s = %v, want an error", p, got)
		}
	}
	st, _, _ := edge.CanonicalDB()
	if open.Holds(st) {
		t.Errorf("open CQ %s holds", open)
	}
	if _, err := Contains(neq.Formula(), edge.Formula()); err == nil {
		t.Error("Contains accepted a ≠ sentence")
	}
}

func TestContainsOnFormulas(t *testing.T) {
	f := Ex([]string{"x", "y", "z"}, Conj(atom(rP, "x", "y"), atom(rP, "y", "z")))
	g := Ex([]string{"x", "y"}, atom(rP, "x", "y"))
	if got, err := Contains(f, g); err != nil || !got {
		t.Errorf("Contains = %v, %v", got, err)
	}
	if got, _ := Contains(g, f); got {
		t.Error("reverse containment held")
	}
	eq, err := Equivalent(f, f)
	if err != nil || !eq {
		t.Errorf("Equivalent(f,f) = %v, %v", eq, err)
	}
	if eq, _ := Equivalent(f, g); eq {
		t.Error("non-equivalent formulas equivalent")
	}
}

func TestEvalAgreesWithUCQHolds(t *testing.T) {
	// Property-style cross-check: Eval and UCQ-based Holds agree on a family
	// of positive sentences over the test structure.
	st := testStructure()
	formulas := []Formula{
		Ex([]string{"x", "y"}, atom(rP, "x", "y")),
		Ex([]string{"x"}, atom(rP, "x", "x")),
		Ex([]string{"x", "y", "z"}, Conj(atom(rP, "x", "y"), atom(rP, "y", "z"), atom(sP, "z"))),
		Disj(Ex([]string{"x"}, atom(sP, "x")), Ex([]string{"x"}, atom(PlainPred("T"), "x"))),
		Conj(Ex([]string{"x"}, atom(sP, "x")), Ex([]string{"x", "y"}, atom(rP, "x", "y"))),
	}
	for _, f := range formulas {
		want := mustEval(t, f, st)
		cqs, err := ToUCQ(f)
		if err != nil {
			t.Fatalf("ToUCQ(%s): %v", f, err)
		}
		got := false
		for _, cq := range cqs {
			if cq.Holds(st) {
				got = true
				break
			}
		}
		if got != want {
			t.Errorf("Eval and UCQ disagree on %s: eval=%v ucq=%v", f, want, got)
		}
	}
}

func TestSizeAndPreds(t *testing.T) {
	f := Ex([]string{"x"}, Conj(atom(rP, "x"), Not{F: atom(sP, "$a")}))
	if Size(f) < 4 {
		t.Errorf("size = %d", Size(f))
	}
	ps := Preds(f)
	if len(ps) != 2 {
		t.Errorf("preds = %v", ps)
	}
}

func TestStagesAndPurity(t *testing.T) {
	pre := Ex([]string{"x"}, Atom{Pred: PrePred("R"), Args: []Term{Var("x")}})
	if !IsPurePre(pre) || IsPurePost(pre) {
		t.Error("pure-pre misclassified")
	}
	post := Ex([]string{"x"}, Atom{Pred: PostPred("R"), Args: []Term{Var("x")}})
	if !IsPurePost(post) || IsPurePre(post) {
		t.Error("pure-post misclassified")
	}
	mixed := Conj(pre, post)
	u := Stages(mixed)
	if !u.Pre || !u.Post || u.Bind || u.Plain {
		t.Errorf("stage use = %+v", u)
	}
}
