package access

import (
	"strings"
	"testing"

	"accltl/internal/fo"
	"accltl/internal/instance"
	"accltl/internal/schema"
)

// phoneSchema builds the paper's running example: Mobile#(name, postcode,
// street, phoneno) with AcM1 binding name, Address(street, postcode, name,
// houseno) with AcM2 binding street+postcode.
func phoneSchema(t testing.TB) *schema.Schema {
	t.Helper()
	mobile := schema.MustRelation("Mobile#", schema.TypeString, schema.TypeString, schema.TypeString, schema.TypeInt)
	address := schema.MustRelation("Address", schema.TypeString, schema.TypeString, schema.TypeString, schema.TypeInt)
	s := schema.New()
	for _, err := range []error{
		s.AddRelation(mobile),
		s.AddRelation(address),
		s.AddMethod(schema.MustAccessMethod("AcM1", mobile, 0)),
		s.AddMethod(schema.MustAccessMethod("AcM2", address, 0, 1)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func acm(t testing.TB, s *schema.Schema, name string) *schema.AccessMethod {
	t.Helper()
	m, ok := s.Method(name)
	if !ok {
		t.Fatalf("method %s missing", name)
	}
	return m
}

func TestNewAccessValidation(t *testing.T) {
	s := phoneSchema(t)
	m1 := acm(t, s, "AcM1")
	if _, err := NewAccess(m1, instance.Tuple{instance.Str("Smith")}); err != nil {
		t.Errorf("valid access rejected: %v", err)
	}
	if _, err := NewAccess(m1, instance.Tuple{}); err == nil {
		t.Error("wrong binding arity accepted")
	}
	if _, err := NewAccess(m1, instance.Tuple{instance.Int(3)}); err == nil {
		t.Error("ill-typed binding accepted")
	}
	if _, err := NewAccess(nil, nil); err == nil {
		t.Error("nil method accepted")
	}
}

func TestAccessStringNotation(t *testing.T) {
	s := phoneSchema(t)
	a := MustAccess(acm(t, s, "AcM1"), instance.Str("Jones"))
	got := a.String()
	if !strings.Contains(got, `"Jones"`) || !strings.Contains(got, "?") {
		t.Errorf("access string = %q", got)
	}
}

func TestWellFormedResponse(t *testing.T) {
	s := phoneSchema(t)
	a := MustAccess(acm(t, s, "AcM1"), instance.Str("Smith"))
	good := instance.Tuple{instance.Str("Smith"), instance.Str("OX13QD"), instance.Str("Parks Rd"), instance.Int(5551212)}
	if err := a.WellFormedResponse([]instance.Tuple{good}); err != nil {
		t.Errorf("well-formed response rejected: %v", err)
	}
	wrongBinding := instance.Tuple{instance.Str("Jones"), instance.Str("OX13QD"), instance.Str("Parks Rd"), instance.Int(1)}
	if err := a.WellFormedResponse([]instance.Tuple{wrongBinding}); err == nil {
		t.Error("response disagreeing with binding accepted")
	}
	illTyped := instance.Tuple{instance.Str("Smith"), instance.Int(3), instance.Str("x"), instance.Int(1)}
	if err := a.WellFormedResponse([]instance.Tuple{illTyped}); err == nil {
		t.Error("ill-typed response accepted")
	}
}

// smithPath builds the 2-step path from Figure 1: access Mobile#("Smith")
// revealing Smith's tuple, then Address("Parks Rd","OX13QD") revealing two
// residents.
func smithPath(t testing.TB, s *schema.Schema) *Path {
	t.Helper()
	p := NewPath(s)
	p.MustAppend(MustAccess(acm(t, s, "AcM1"), instance.Str("Smith")),
		instance.Tuple{instance.Str("Smith"), instance.Str("OX13QD"), instance.Str("Parks Rd"), instance.Int(5551212)})
	p.MustAppend(MustAccess(acm(t, s, "AcM2"), instance.Str("Parks Rd"), instance.Str("OX13QD")),
		instance.Tuple{instance.Str("Parks Rd"), instance.Str("OX13QD"), instance.Str("Smith"), instance.Int(13)},
		instance.Tuple{instance.Str("Parks Rd"), instance.Str("OX13QD"), instance.Str("Jones"), instance.Int(16)})
	return p
}

func TestPathConfig(t *testing.T) {
	s := phoneSchema(t)
	p := smithPath(t, s)
	conf, err := p.FinalConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if conf.Count("Mobile#") != 1 || conf.Count("Address") != 2 {
		t.Errorf("final config %s", conf)
	}
	mid, err := p.Config(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Count("Address") != 0 {
		t.Error("prefix config contains later tuples")
	}
	if _, err := p.Config(nil, 5); err == nil {
		t.Error("out-of-range prefix accepted")
	}
}

func TestPathTransitions(t *testing.T) {
	s := phoneSchema(t)
	p := smithPath(t, s)
	ts, err := p.Transitions(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("transitions = %d", len(ts))
	}
	if !ts[0].Before.IsEmpty() {
		t.Error("first Before not empty")
	}
	if !ts[0].After.Equal(ts[1].Before) {
		t.Error("transition chaining broken")
	}
	if ts[1].After.Size() != 3 {
		t.Errorf("final size = %d", ts[1].After.Size())
	}
}

func TestGroundedness(t *testing.T) {
	s := phoneSchema(t)
	p := smithPath(t, s)
	// "Smith" is guessed at the start, so the path is not grounded in ∅.
	if p.IsGrounded(nil) {
		t.Error("guessed binding counted as grounded")
	}
	// With Smith known initially it is grounded: the second access's
	// bindings (Parks Rd, OX13QD) come from the first response.
	i0 := instance.NewInstance(s)
	i0.MustAdd("Mobile#", instance.Str("Smith"), instance.Str("Z"), instance.Str("Z"), instance.Int(0))
	if !p.IsGrounded(i0) {
		t.Error("grounded path rejected")
	}
}

func TestIdempotence(t *testing.T) {
	s := phoneSchema(t)
	a := MustAccess(acm(t, s, "AcM1"), instance.Str("Smith"))
	tup := instance.Tuple{instance.Str("Smith"), instance.Str("P"), instance.Str("S"), instance.Int(1)}
	p := NewPath(s)
	p.MustAppend(a, tup)
	p.MustAppend(a, tup)
	if !p.IsIdempotent() {
		t.Error("identical repeat flagged non-idempotent")
	}
	q := NewPath(s)
	q.MustAppend(a, tup)
	q.MustAppend(a)
	if q.IsIdempotent() {
		t.Error("conflicting repeat passed idempotence")
	}
}

func TestExactness(t *testing.T) {
	s := phoneSchema(t)
	// Path: access Smith returning a tuple, then access Smith again
	// returning nothing. Not exact: second response incomplete for any
	// instance that contains the first response.
	a := MustAccess(acm(t, s, "AcM1"), instance.Str("Smith"))
	tup := instance.Tuple{instance.Str("Smith"), instance.Str("P"), instance.Str("S"), instance.Int(1)}
	p := NewPath(s)
	p.MustAppend(a, tup)
	p.MustAppend(a)
	exact, err := p.IsExact(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exact {
		t.Error("incomplete repeat passed exactness")
	}
	// Restricting exactness to an unrelated method makes it pass.
	exact, err = p.IsExact(nil, map[string]bool{"AcM2": true})
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Error("S-exactness on unrelated method failed")
	}
	// The smith path is exact: every access returns all matching tuples of
	// the final configuration.
	sp := smithPath(t, s)
	exact, err = sp.IsExact(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Error("exact path rejected")
	}
}

func TestNecessaryAt(t *testing.T) {
	s := phoneSchema(t)
	a := MustAccess(acm(t, s, "AcM1"), instance.Str("Smith"))
	tup := instance.Tuple{instance.Str("Smith"), instance.Str("P"), instance.Str("S"), instance.Int(1)}
	p := NewPath(s)
	p.MustAppend(a, tup)
	p.MustAppend(a, tup)
	if got, _ := p.NecessaryAt(nil, 0); !got {
		t.Error("first access not necessary")
	}
	if got, _ := p.NecessaryAt(nil, 1); got {
		t.Error("repeat access counted necessary")
	}
	if _, err := p.NecessaryAt(nil, 7); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestTransitionStructure(t *testing.T) {
	s := phoneSchema(t)
	p := smithPath(t, s)
	ts, err := p.Transitions(nil)
	if err != nil {
		t.Fatal(err)
	}
	st := StructureOf(ts[0])
	// IsBind[AcM1]("Smith") holds on the first transition.
	bindAtom := fo.Atom{Pred: fo.IsBindPred("AcM1"), Args: []fo.Term{fo.Const(instance.Str("Smith"))}}
	if got, err := fo.Eval(bindAtom, st); err != nil || !got {
		t.Errorf("IsBind eval = %v, %v", got, err)
	}
	// IsBind[AcM2] is empty on the first transition.
	otherBind := fo.Ex([]string{"x", "y"}, fo.Atom{Pred: fo.IsBindPred("AcM2"), Args: []fo.Term{fo.Var("x"), fo.Var("y")}})
	if got, _ := fo.Eval(otherBind, st); got {
		t.Error("foreign IsBind held")
	}
	// Mobile#pre is empty, Mobile#post has the Smith tuple.
	pre := fo.Ex([]string{"a", "b", "c", "d"}, fo.Atom{Pred: fo.PrePred("Mobile#"),
		Args: []fo.Term{fo.Var("a"), fo.Var("b"), fo.Var("c"), fo.Var("d")}})
	post := fo.Ex([]string{"a", "b", "c", "d"}, fo.Atom{Pred: fo.PostPred("Mobile#"),
		Args: []fo.Term{fo.Var("a"), fo.Var("b"), fo.Var("c"), fo.Var("d")}})
	if got, _ := fo.Eval(pre, st); got {
		t.Error("Mobile#pre nonempty before first access")
	}
	if got, _ := fo.Eval(post, st); !got {
		t.Error("Mobile#post empty after first access")
	}
}

func TestZeroAccStructure(t *testing.T) {
	s := phoneSchema(t)
	p := smithPath(t, s)
	ts, _ := p.Transitions(nil)
	st := ZeroAccStructureOf(ts[0])
	// 0-ary IsBind[AcM1] holds; 0-ary IsBind[AcM2] does not.
	if got, _ := fo.Eval(fo.Atom{Pred: fo.IsBindPred("AcM1")}, st); !got {
		t.Error("0-ary IsBind of fired method false")
	}
	if got, _ := fo.Eval(fo.Atom{Pred: fo.IsBindPred("AcM2")}, st); got {
		t.Error("0-ary IsBind of other method true")
	}
}

func TestInstanceStructure(t *testing.T) {
	s := phoneSchema(t)
	i := instance.NewInstance(s)
	i.MustAdd("Address", instance.Str("Parks Rd"), instance.Str("OX13QD"), instance.Str("Jones"), instance.Int(16))
	st := PlainStructure(i)
	q := fo.Ex([]string{"s", "p", "h"}, fo.Atom{Pred: fo.PlainPred("Address"),
		Args: []fo.Term{fo.Var("s"), fo.Var("p"), fo.Const(instance.Str("Jones")), fo.Var("h")}})
	if got, err := fo.Eval(q, st); err != nil || !got {
		t.Errorf("plain query = %v, %v", got, err)
	}
	// Under the Pre view the same instance answers Q^pre.
	stPre := &InstanceStructure{I: i, Stage: fo.Pre}
	qpre := fo.Ex([]string{"s", "p", "h"}, fo.Atom{Pred: fo.PrePred("Address"),
		Args: []fo.Term{fo.Var("s"), fo.Var("p"), fo.Const(instance.Str("Jones")), fo.Var("h")}})
	if got, _ := fo.Eval(qpre, stPre); !got {
		t.Error("pre view did not answer")
	}
	if got, _ := fo.Eval(qpre, st); got {
		t.Error("plain view answered pre query")
	}
}

func TestPathAppendValidation(t *testing.T) {
	s := phoneSchema(t)
	other := phoneSchema(t)
	p := NewPath(s)
	a := MustAccess(acm(t, other, "AcM1"), instance.Str("X"))
	// Method from a different schema value with same name is accepted by
	// name lookup; but a bad response must be rejected.
	bad := instance.Tuple{instance.Str("Y"), instance.Str("p"), instance.Str("s"), instance.Int(1)}
	if err := p.Append(a, []instance.Tuple{bad}); err == nil {
		t.Error("response conflicting with binding accepted")
	}
}

func TestPathCloneIndependence(t *testing.T) {
	s := phoneSchema(t)
	p := smithPath(t, s)
	q := p.Clone()
	q.MustAppend(MustAccess(acm(t, s, "AcM1"), instance.Str("Zed")))
	if p.Len() != 2 || q.Len() != 3 {
		t.Error("clone shares steps")
	}
}

// TestPathCloneCopiesBindings: a clone's bindings live in an array of its
// own, so a retained clone does not keep alive an array its bindings were
// sliced from (the LTS explorer slices every candidate of a method out of
// one array), and rewriting that array leaves the clone intact.
func TestPathCloneCopiesBindings(t *testing.T) {
	s := phoneSchema(t)
	shared := instance.Tuple{instance.Str("Smith"), instance.Str("Jones"), instance.Str("OX1")}
	p := NewPath(s)
	p.AppendBorrowed(Access{Method: acm(t, s, "AcM1"), Binding: shared[0:1:1]}, nil)
	p.AppendBorrowed(Access{Method: acm(t, s, "AcM2"), Binding: shared[1:3:3]}, nil)
	want := p.String()
	q := p.Clone()
	for i := range shared {
		shared[i] = instance.Str("overwritten")
	}
	if got := q.String(); got != want {
		t.Errorf("clone reads its source's binding array: %s, want %s", got, want)
	}
}
