package accltl

import "testing"

// TestSolveZeroAccAllocsOneWalker guards the fixed cost of a one-walker
// search. The fixture is unsatisfiable and visits 9 prefixes, so its
// allocation count is almost all setup: witness universe, root partition,
// walker state and the solver's tables. The budget is the count of the
// current engine plus a little headroom. Building the root bindings a
// second time (28 more allocations here) or making the lock stripes' maps
// up front exceeds it.
func TestSolveZeroAccAllocsOneWalker(t *testing.T) {
	s := chainSchema(t)
	f := Conj(F(postNonEmpty("R0")), G(Not{F: postNonEmpty("R0")}))
	opts := SolveOptions{Schema: s, MaxDepth: 3, Parallelism: 1}
	res, err := SolveZeroAcc(f, opts)
	if err != nil || res.Satisfiable || res.PathsExplored != 9 {
		t.Fatalf("fixture drifted: %+v, %v", res, err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := SolveZeroAcc(f, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per search", avg)
	const budget = 295
	if avg > budget {
		t.Errorf("a one-walker search allocates %.0f times (budget %d): a fixed cost is back in the search setup", avg, budget)
	}
}
