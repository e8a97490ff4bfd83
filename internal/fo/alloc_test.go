package fo

import (
	"testing"

	"accltl/internal/instance"
)

// fixedStructure is a Structure that never allocates: its predicates hold
// prebuilt tuple slices, and Holds compares in place. Domain is never
// needed by a generator-bound sentence, so asking for it is an error.
type fixedStructure struct {
	t    *testing.T
	rels map[Pred][]instance.Tuple
}

func (s *fixedStructure) Holds(p Pred, t instance.Tuple) bool {
	for _, u := range s.rels[p] {
		if u.Equal(t) {
			return true
		}
	}
	return false
}

func (s *fixedStructure) TuplesOf(p Pred) []instance.Tuple { return s.rels[p] }

func (s *fixedStructure) Domain() []instance.Value {
	s.t.Error("a generator-bound sentence asked for the quantification domain")
	return nil
}

// TestPreparedEvalAllocs guards letter evaluation, which the engines run
// for every sentence at every visited prefix: a prepared generator-bound
// sentence evaluates without allocating on a structure that does not
// allocate. Each evaluation takes its buffers from a pool, so a per-call
// buffer back in eval fails it.
func TestPreparedEvalAllocs(t *testing.T) {
	i := func(v int64) instance.Value { return instance.Int(v) }
	st := &fixedStructure{t: t, rels: map[Pred][]instance.Tuple{
		rP: {{i(1), i(2)}, {i(2), i(3)}, {i(3), i(4)}},
		sP: {{i(4)}, {i(5)}},
	}}
	sentences := []struct {
		name string
		f    Formula
		want bool
	}{
		{"atom", Ex([]string{"x", "y"}, atom(rP, "x", "y")), true},
		{"ground atom", Atom{Pred: rP, Args: []Term{Const(i(2)), Const(i(3))}}, true},
		{"join", Ex([]string{"x", "y", "z"}, Conj(atom(rP, "x", "y"), atom(rP, "y", "z"), atom(sP, "z"))), true},
		{"failing join", Ex([]string{"x", "y"}, Conj(atom(rP, "x", "y"), atom(sP, "x"))), false},
		{"nested", Ex([]string{"x", "y"}, Conj(atom(rP, "x", "y"), Ex([]string{"z"}, Conj(atom(rP, "y", "z"), atom(sP, "z"))))), true},
	}
	for _, c := range sentences {
		p, err := Prepare(c.f)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := p.Eval(st); got != c.want {
			t.Fatalf("%s: %s = %v, want %v", c.name, c.f, got, c.want)
		}
		if avg := testing.AllocsPerRun(100, func() { p.Eval(st) }); avg != 0 {
			t.Errorf("%s: Prepared.Eval allocates %.1f times per call, want 0", c.name, avg)
		}
	}
}
