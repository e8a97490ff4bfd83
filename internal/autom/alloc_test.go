package autom

import (
	"testing"

	"accltl/internal/accltl"
)

// TestIsEmptyAllocsOneWalker guards the fixed cost of a one-walker
// emptiness search, like the solver's TestSolveZeroAccAllocsOneWalker: the
// fixture is empty and visits 5 prefixes, so the count is almost all
// setup. Building the root bindings a second time (18 more allocations
// here) or making the lock stripes' maps up front exceeds the budget.
func TestIsEmptyAllocsOneWalker(t *testing.T) {
	s := twoRelSchema(t)
	f := accltl.Conj(
		accltl.F(accltl.Atom{Sentence: postNE("R0")}),
		accltl.G(accltl.Not{F: accltl.Atom{Sentence: postNE("R0")}}),
	)
	a, err := CompileAccLTLPlus(s, f)
	if err != nil {
		t.Fatal(err)
	}
	opts := EmptinessOptions{MaxDepth: 3, Parallelism: 1}
	res, err := a.IsEmpty(opts)
	if err != nil || res.Satisfiable || res.PathsExplored != 5 {
		t.Fatalf("fixture drifted: %+v, %v", res, err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := a.IsEmpty(opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per search", avg)
	const budget = 165
	if avg > budget {
		t.Errorf("a one-walker emptiness search allocates %.0f times (budget %d): a fixed cost is back in the search setup", avg, budget)
	}
}
