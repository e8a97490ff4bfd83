package branching

import (
	"context"
	"errors"
	"strings"
	"testing"

	"accltl/internal/access"
	"accltl/internal/deps"
	"accltl/internal/fo"
	"accltl/internal/instance"
	"accltl/internal/lts"
	"accltl/internal/pollctx"
	"accltl/internal/schema"
)

func tinySchema(t testing.TB) *schema.Schema {
	t.Helper()
	r := schema.MustRelation("R", schema.TypeInt)
	s2 := schema.MustRelation("S", schema.TypeInt)
	s := schema.New()
	for _, err := range []error{
		s.AddRelation(r), s.AddRelation(s2),
		s.AddMethod(schema.MustAccessMethod("scanR", r)),
		s.AddMethod(schema.MustAccessMethod("chkS", s2, 0)),
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
	u.MustAdd("S", instance.Int(1))
	return u
}

func postNE(rel string) Formula {
	return Atom{Sentence: fo.Ex([]string{"x"}, fo.Atom{Pred: fo.PostPred(rel), Args: []fo.Term{fo.Var("x")}})}
}

func checker(t testing.TB, s *schema.Schema, u *instance.Instance) *Checker {
	t.Helper()
	return &Checker{Schema: s, Opts: lts.Options{Universe: u}}
}

func firstTransition(t testing.TB, s *schema.Schema, u *instance.Instance) access.Transition {
	t.Helper()
	// The scanR access revealing R(1).
	m, _ := s.Method("scanR")
	p := access.NewPath(s)
	p.MustAppend(access.MustAccess(m), instance.Tuple{instance.Int(1)})
	ts, err := p.Transitions(nil)
	if err != nil {
		t.Fatal(err)
	}
	return ts[0]
}

func TestHoldsAtoms(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	c := checker(t, s, u)
	tr := firstTransition(t, s, u)
	got, err := c.Holds(postNE("R"), tr)
	if err != nil || !got {
		t.Errorf("Rpost = %v, %v", got, err)
	}
	got, err = c.Holds(postNE("S"), tr)
	if err != nil || got {
		t.Errorf("Spost = %v, %v", got, err)
	}
	got, err = c.Holds(Not{F: postNE("S")}, tr)
	if err != nil || !got {
		t.Errorf("¬Spost = %v, %v", got, err)
	}
}

func TestHoldsEX(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	c := checker(t, s, u)
	tr := firstTransition(t, s, u)
	// EX(S revealed): after R(1) is known, chkS(1) can reveal S(1).
	got, err := c.Holds(EX{F: postNE("S")}, tr)
	if err != nil || !got {
		t.Errorf("EX Spost = %v, %v", got, err)
	}
	// AX(S revealed) fails: some successor reveals nothing.
	got, err = c.Holds(AX(postNE("S")), tr)
	if err != nil || got {
		t.Errorf("AX Spost = %v, %v", got, err)
	}
	// Nested: EX EX (R and S both revealed).
	both := Conj(postNE("R"), postNE("S"))
	got, err = c.Holds(EX{F: both}, tr)
	if err != nil || !got {
		t.Errorf("EX(R∧S) = %v, %v", got, err)
	}
}

func TestSatisfiable(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	c := checker(t, s, u)
	// Some initial transition reveals R.
	ok, wit, err := c.Satisfiable(postNE("R"), nil)
	if err != nil || !ok {
		t.Fatalf("satisfiable = %v, %v", ok, err)
	}
	if wit.Access.Method.Name() != "scanR" {
		t.Errorf("witness method = %s", wit.Access.Method.Name())
	}
	// Nothing can reveal S first (chkS needs a known value; the binding
	// pool includes universe values though — non-grounded). With grounded
	// bindings S-first is impossible.
	cg := &Checker{Schema: s, Opts: lts.Options{Universe: u, GroundedOnly: true}}
	ok, _, err = cg.Satisfiable(postNE("S"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("grounded S-first satisfiable")
	}
}

// TestSatisfiableResponsesCapped: a subset-response fan-out cut inside the
// EX recursion raises the checker's sticky cap signal.
func TestSatisfiableResponsesCapped(t *testing.T) {
	s := tinySchema(t)
	wide := instance.NewInstance(s)
	for i := 1; i <= 5; i++ {
		wide.MustAdd("R", instance.Int(int64(i)))
		wide.MustAdd("S", instance.Int(int64(i)))
	}
	c := &Checker{Schema: s, Opts: lts.Options{Universe: wide, MaxResponseChoices: 2}}
	// Unsatisfiable (one access reveals R or S, never both), so every
	// candidate's fan-out is enumerated, and capped.
	ok, _, err := c.Satisfiable(Conj(postNE("R"), postNE("S"), EX{F: Conj(postNE("R"), postNE("S"))}), nil)
	if err != nil || ok {
		t.Fatalf("satisfiable = %v, %v; want an unsat verdict", ok, err)
	}
	if !c.ResponsesCapped {
		t.Error("capped successor fan-out did not set ResponsesCapped")
	}
}

// TestSatisfiableContextCancellation: a caller deadline inside the EX
// recursion surfaces as the context's error, not as a verdict, and the
// search stops at the poll that reported it. The context expires at a
// chosen poll, so the deadline is reached on any machine. lts.Successors
// polls once per call here (fewer than 64 bindings), and Satisfiable calls
// it once plus once per candidate's EX; the deadline lies past those polls,
// so only Holds' own poll on each call reaches it. The check is
// unsatisfiable (no value is in both R and S): without the deadline it
// would run every candidate to the end.
func TestSatisfiableContextCancellation(t *testing.T) {
	s := tinySchema(t)
	u := instance.NewInstance(s)
	for i := 1; i <= 6; i++ {
		u.MustAdd("R", instance.Int(int64(i)))
		u.MustAdd("S", instance.Int(int64(100+i)))
	}
	both := Atom{Sentence: fo.Ex([]string{"x"}, fo.Conj(
		fo.Atom{Pred: fo.PostPred("R"), Args: []fo.Term{fo.Var("x")}},
		fo.Atom{Pred: fo.PostPred("S"), Args: []fo.Term{fo.Var("x")}}))}
	candidates, _, err := lts.Successors(s, lts.Options{Universe: u}, instance.NewInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	expireAt := len(candidates) + 2
	ctx := pollctx.New(expireAt, context.DeadlineExceeded)
	c := &Checker{Schema: s, Opts: lts.Options{Universe: u, Context: ctx}}
	ok, _, err := c.Satisfiable(EX{F: both}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("satisfiable = %v, %v; want the deadline at poll %d", ok, err, expireAt)
	}
	if got := ctx.Polls(); got != expireAt {
		t.Errorf("context polled %d times, want the search to stop at poll %d", got, expireAt)
	}
}

func TestEXDepthAndRendering(t *testing.T) {
	f := EX{F: Conj(postNE("R"), EX{F: postNE("S")})}
	if EXDepth(f) != 2 {
		t.Errorf("EX depth = %d", EXDepth(f))
	}
	if !strings.Contains(f.String(), "EX") {
		t.Error("rendering lost EX")
	}
	if EXDepth(AX(postNE("R"))) != 1 {
		t.Error("AX depth wrong")
	}
}

func TestBuildTheorem53(t *testing.T) {
	base := schema.New()
	r := schema.MustRelation("R", schema.TypeInt, schema.TypeInt, schema.TypeInt)
	if err := base.AddRelation(r); err != nil {
		t.Fatal(err)
	}
	gamma := deps.Set{FDs: []deps.FD{{Rel: "R", Source: []int{0}, Target: 1}}}
	sigma := deps.FD{Rel: "R", Source: []int{0}, Target: 2}
	art, err := BuildTheorem53(base, gamma, sigma)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"ChkFDR", "CheckIncDepR"} {
		if _, ok := art.Schema.Relation(rel); !ok {
			t.Errorf("relation %s missing", rel)
		}
	}
	m, ok := art.Schema.Method("AccChkFDR")
	if !ok || !m.IsBoolean() {
		t.Error("ChkFD access missing or not boolean")
	}
	if _, ok := art.Schema.Method("FillR"); !ok {
		t.Error("FillR missing")
	}
	// The formula nests one EX per base relation for the fill phase plus
	// the verification modalities.
	if EXDepth(art.Formula) < 1 {
		t.Error("formula lacks modal structure")
	}
	// Embedded sentences are positive and 0-Acc (Theorem 5.3's fragment
	// is CTL_EX(FO∃+_0-Acc)).
	var check func(Formula) bool
	check = func(f Formula) bool {
		switch g := f.(type) {
		case Atom:
			return fo.IsPositive(g.Sentence) && fo.IsZeroAcc(g.Sentence)
		case Not:
			return check(g.F)
		case And:
			for _, c := range g.Conj {
				if !check(c) {
					return false
				}
			}
			return true
		case Or:
			for _, d := range g.Disj {
				if !check(d) {
					return false
				}
			}
			return true
		case EX:
			return check(g.F)
		default:
			return false
		}
	}
	if !check(art.Formula) {
		t.Error("formula outside CTL_EX(FO∃+_0-Acc)")
	}
}

func TestTheorem53WithIDs(t *testing.T) {
	base := schema.New()
	r := schema.MustRelation("R", schema.TypeInt)
	s2 := schema.MustRelation("S", schema.TypeInt)
	if err := base.AddRelation(r); err != nil {
		t.Fatal(err)
	}
	if err := base.AddRelation(s2); err != nil {
		t.Fatal(err)
	}
	gamma := deps.Set{IDs: []deps.ID{{SrcRel: "R", SrcPos: []int{0}, DstRel: "S", DstPos: []int{0}}}}
	sigma := deps.FD{Rel: "R", Source: []int{0}, Target: 0}
	art, err := BuildTheorem53(base, gamma, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := art.Schema.Relation("CheckIncDepS"); !ok {
		t.Error("destination CheckIncDep relation missing")
	}
}
