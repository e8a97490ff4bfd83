package accesscheck_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"accltl/accesscheck"
	"accltl/internal/accltl"
)

// TestWideFormulaMapLetters: a formula of more than 64 distinct sentences
// steps the solver on map letters, since the bitmask letter has one bit per
// sentence. Both verdicts hold there on the 0-Acc and bounded engines at
// one and two walkers: 65 renamed copies of an eventuality are
// satisfiable, and the eventuality under G ! of 64 renamed copies is not.
// A one-tuple universe keeps every scan's response fan-out under the cap,
// so the unsat verdict is exact.
func TestWideFormulaMapLetters(t *testing.T) {
	sch, err := accesscheck.ParseSchema([]string{"R:int"}, []string{"scanR:R"})
	if err != nil {
		t.Fatal(err)
	}
	universe, err := accesscheck.ParseInstance(sch, []string{"R(1)"})
	if err != nil {
		t.Fatal(err)
	}
	var sat, unsat []string
	for i := range 65 {
		sat = append(sat, fmt.Sprintf("F [exists x%d. post R(x%d)]", i, i))
	}
	unsat = append(unsat, "F [exists x. post R(x)]")
	for i := range 64 {
		unsat = append(unsat, fmt.Sprintf("G ![exists y%d. post R(y%d)]", i, i))
	}
	for name, tc := range map[string]struct {
		conj []string
		want bool
	}{"sat": {sat, true}, "unsat": {unsat, false}} {
		f, err := accesscheck.ParseFormula(strings.Join(tc.conj, " & "))
		if err != nil {
			t.Fatal(err)
		}
		if n := len(accltl.Sentences(f)); n != 65 {
			t.Fatalf("%s: %d distinct sentences, want 65", name, n)
		}
		for _, eng := range []accesscheck.Engine{accesscheck.EngineZeroAcc, accesscheck.EngineBounded} {
			for _, w := range []int{1, 2} {
				res, err := accesscheck.Check(context.Background(), sch, f,
					accesscheck.WithEngine(eng), accesscheck.WithParallelism(w), accesscheck.WithUniverse(universe))
				if err != nil {
					t.Fatalf("%s/%s/w%d: %v", name, eng, w, err)
				}
				if res.Satisfiable != tc.want || res.Truncated {
					t.Errorf("%s/%s/w%d: satisfiable %v truncated %v, want %v exact",
						name, eng, w, res.Satisfiable, res.Truncated, tc.want)
				}
				if res.Satisfiable {
					if ok, err := accesscheck.Holds(f, res.Witness); err != nil || !ok {
						t.Errorf("%s/%s/w%d: witness rejected by the direct semantics: %v %v", name, eng, w, ok, err)
					}
				}
			}
		}
	}
}
