package branching

import (
	"context"
	"errors"
	"testing"
	"time"

	"accltl/internal/fo"
	"accltl/internal/instance"
	"accltl/internal/lts"
	"accltl/internal/pollctx"
	"accltl/internal/schema"
)

// TestSatisfiableParallelMatchesSerial: the parallel first-level fan-out
// must agree with the serial loop on the verdict for both outcomes, across
// the W grid, and any witness transition must itself satisfy ϕ.
func TestSatisfiableParallelMatchesSerial(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	formulas := []struct {
		name string
		f    Formula
		want bool
	}{
		{"reveal-R", postNE("R"), true},
		{"reveal-then-S", EX{F: Conj(postNE("R"), EX{F: postNE("S")})}, true},
		{"impossible", Conj(postNE("R"), postNE("S")), false},
	}
	for _, tc := range formulas {
		serialC := &Checker{Schema: s, Opts: lts.Options{Universe: u}}
		ok, _, err := serialC.Satisfiable(tc.f, nil)
		if err != nil {
			t.Fatalf("%s serial: %v", tc.name, err)
		}
		if ok != tc.want {
			t.Fatalf("%s serial verdict %v, want %v", tc.name, ok, tc.want)
		}
		for _, w := range []int{2, 4, 8} {
			parC := &Checker{Schema: s, Opts: lts.Options{Universe: u, Parallelism: w}}
			pok, wit, err := parC.Satisfiable(tc.f, nil)
			if err != nil {
				t.Fatalf("%s w=%d: %v", tc.name, w, err)
			}
			if pok != ok {
				t.Errorf("%s w=%d: verdict %v, serial %v", tc.name, w, pok, ok)
				continue
			}
			if pok {
				holds, err := parC.Holds(tc.f, wit)
				if err != nil || !holds {
					t.Errorf("%s w=%d: witness transition does not satisfy ϕ: %v %v", tc.name, w, holds, err)
				}
			}
			if parC.ResponsesCapped != serialC.ResponsesCapped {
				t.Errorf("%s w=%d: ResponsesCapped %v, serial %v", tc.name, w, parC.ResponsesCapped, serialC.ResponsesCapped)
			}
		}
	}
}

// TestSatisfiableParallelResponsesCapped: the sticky cap signal raised
// inside a worker's EX recursion must merge back into the parent checker.
func TestSatisfiableParallelResponsesCapped(t *testing.T) {
	s := tinySchema(t)
	wide := instance.NewInstance(s)
	for i := 1; i <= 5; i++ {
		wide.MustAdd("R", instance.Int(int64(i)))
		wide.MustAdd("S", instance.Int(int64(i)))
	}
	c := &Checker{Schema: s, Opts: lts.Options{Universe: wide, MaxResponseChoices: 2, Parallelism: 4}}
	// Unsatisfiable so every worker enumerates (and caps) its fan-outs.
	ok, _, err := c.Satisfiable(Conj(postNE("R"), postNE("S"), EX{F: Conj(postNE("R"), postNE("S"))}), nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = ok
	if !c.ResponsesCapped {
		t.Error("capped successor fan-out in workers not merged into the parent checker")
	}
}

// TestSatisfiableParallelContextCancellation: a caller deadline mid-check
// surfaces as the caller context's error, not as an internal cancellation
// and not as a verdict. The workers poll a context derived from the
// caller's, which a poll-counting context cannot expire; the caller's own
// context is polled on entry (lts.Successors) and at the join, and fails
// from its second poll on, so the unsatisfiable check (no value is in both
// R and S) expires at the join.
func TestSatisfiableParallelContextCancellation(t *testing.T) {
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
	u := instance.NewInstance(s)
	for i := 1; i <= 6; i++ {
		u.MustAdd("R", instance.Int(int64(i)))
		u.MustAdd("S", instance.Int(int64(100+i)))
	}
	ctx := pollctx.New(2, context.DeadlineExceeded)
	c := &Checker{Schema: s, Opts: lts.Options{Universe: u, Parallelism: 4, Context: ctx}}
	both := Atom{Sentence: fo.Ex([]string{"x"}, fo.Conj(
		fo.Atom{Pred: fo.PostPred("R"), Args: []fo.Term{fo.Var("x")}},
		fo.Atom{Pred: fo.PostPred("S"), Args: []fo.Term{fo.Var("x")}}))}
	start := time.Now()
	_, _, err := c.Satisfiable(EX{F: EX{F: both}}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %s", elapsed)
	}
}
