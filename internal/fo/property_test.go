package fo

import (
	"math/rand"
	"testing"

	"accltl/internal/instance"
)

// randomCQ builds a small random boolean CQ over binary predicate R and
// unary predicate S from an int seed, for property-based checks.
func randomCQ(r *rand.Rand) CQ {
	nAtoms := 1 + r.Intn(3)
	vars := []string{"a", "b", "c", "d"}
	var cq CQ
	for i := 0; i < nAtoms; i++ {
		if r.Intn(2) == 0 {
			cq.Atoms = append(cq.Atoms, Atom{Pred: rP, Args: []Term{
				Var(vars[r.Intn(len(vars))]), Var(vars[r.Intn(len(vars))]),
			}})
		} else {
			cq.Atoms = append(cq.Atoms, Atom{Pred: sP, Args: []Term{
				Var(vars[r.Intn(len(vars))]),
			}})
		}
	}
	return cq
}

func TestPropertyContainmentReflexive(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 60; i++ {
		q := randomCQ(r)
		got, err := q.ContainedIn(q)
		if err != nil {
			t.Fatal(err)
		}
		if !got {
			t.Errorf("containment not reflexive for %s", q)
		}
	}
}

func TestPropertyContainmentTransitive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	checked := 0
	for i := 0; i < 200 && checked < 40; i++ {
		q1, q2, q3 := randomCQ(r), randomCQ(r), randomCQ(r)
		c12, err := q1.ContainedIn(q2)
		if err != nil {
			t.Fatal(err)
		}
		c23, err := q2.ContainedIn(q3)
		if err != nil {
			t.Fatal(err)
		}
		if c12 && c23 {
			checked++
			c13, err := q1.ContainedIn(q3)
			if err != nil {
				t.Fatal(err)
			}
			if !c13 {
				t.Errorf("transitivity fails: %s ⊆ %s ⊆ %s", q1, q2, q3)
			}
		}
	}
	if checked == 0 {
		t.Skip("no transitive pairs sampled")
	}
}

func TestPropertyContainmentSemantics(t *testing.T) {
	// If q ⊆ p, then on every sampled structure, q holding implies p
	// holding.
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		q, p := randomCQ(r), randomCQ(r)
		contained, err := q.ContainedIn(p)
		if err != nil {
			t.Fatal(err)
		}
		if !contained {
			continue
		}
		st := NewMapStructure()
		for j := 0; j < 3; j++ {
			st.Add(rP, instance.Tuple{instance.Int(int64(r.Intn(3))), instance.Int(int64(r.Intn(3)))})
		}
		st.Add(sP, instance.Tuple{instance.Int(int64(r.Intn(3)))})
		if q.Holds(st) && !p.Holds(st) {
			t.Errorf("containment violated: %s ⊆ %s but q holds, p fails on %v", q, p, st)
		}
	}
}

func TestPropertyEvalMonotone(t *testing.T) {
	// Positive sentences are monotone: adding tuples never flips true to
	// false.
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		q := randomCQ(r)
		f := q.Formula()
		small := NewMapStructure()
		for j := 0; j < 2; j++ {
			small.Add(rP, instance.Tuple{instance.Int(int64(r.Intn(3))), instance.Int(int64(r.Intn(3)))})
		}
		big := NewMapStructure()
		for _, tup := range small.TuplesOf(rP) {
			big.Add(rP, tup)
		}
		big.Add(rP, instance.Tuple{instance.Int(7), instance.Int(8)})
		big.Add(sP, instance.Tuple{instance.Int(7)})
		before, err := Eval(f, small)
		if err != nil {
			t.Fatal(err)
		}
		after, err := Eval(f, big)
		if err != nil {
			t.Fatal(err)
		}
		if before && !after {
			t.Errorf("monotonicity violated for %s", f)
		}
	}
}

func TestPropertyCanonicalDBSelfSatisfaction(t *testing.T) {
	// Every satisfiable CQ holds on its own canonical database.
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 60; i++ {
		q := randomCQ(r)
		st, _, ok := q.CanonicalDB()
		if !ok {
			continue
		}
		if !q.Holds(st) {
			t.Errorf("CQ %s fails on its canonical DB", q)
		}
	}
}

func TestPropertyToUCQPreservesSemantics(t *testing.T) {
	// A positive sentence and its UCQ form agree on random structures.
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 40; i++ {
		q1, q2 := randomCQ(r), randomCQ(r)
		f := Disj(q1.Formula(), Conj(q2.Formula(), q1.Formula()))
		st := NewMapStructure()
		for j := 0; j < 1+r.Intn(3); j++ {
			st.Add(rP, instance.Tuple{instance.Int(int64(r.Intn(3))), instance.Int(int64(r.Intn(3)))})
		}
		if r.Intn(2) == 0 {
			st.Add(sP, instance.Tuple{instance.Int(int64(r.Intn(3)))})
		}
		direct, err := Eval(f, st)
		if err != nil {
			t.Fatal(err)
		}
		cqs, err := ToUCQ(f)
		if err != nil {
			t.Fatal(err)
		}
		viaUCQ := false
		for _, cq := range cqs {
			if cq.Holds(st) {
				viaUCQ = true
				break
			}
		}
		if direct != viaUCQ {
			t.Errorf("Eval=%v UCQ=%v for %s on %v", direct, viaUCQ, f, st)
		}
	}
}
