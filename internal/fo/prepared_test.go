package fo

import (
	"fmt"
	"math/rand"
	"testing"

	"accltl/internal/instance"
)

// TestEvalShadowedQuantifier pins the scoping of a nested quantifier that
// reuses an outer variable's name: the inner ∃x ranges over its own
// candidates, so ∃x.(R(x) ∧ ∃x.S(x)) holds exactly when its alpha-variant
// ∃x.(R(x) ∧ ∃y.S(y)) does, and the outer binding is intact afterwards.
func TestEvalShadowedQuantifier(t *testing.T) {
	st := NewMapStructure()
	st.Add(rP, instance.Tuple{instance.Str("a")})
	st.Add(sP, instance.Tuple{instance.Str("b")})

	shadowed := Ex([]string{"x"}, Conj(atom(rP, "x"), Ex([]string{"x"}, atom(sP, "x"))))
	renamed := Ex([]string{"x"}, Conj(atom(rP, "x"), Ex([]string{"y"}, atom(sP, "y"))))
	// The outer x is read again after the inner quantifier: R(x) must
	// still see the outer binding a, not the inner b.
	restored := Ex([]string{"x"}, Conj(atom(rP, "x"), Ex([]string{"x"}, atom(sP, "x")), atom(rP, "x")))
	for _, f := range []Formula{shadowed, renamed, restored} {
		if !mustEval(t, f, st) {
			t.Errorf("%s = false on R={a}, S={b}", f)
		}
	}
	// The inner x never joins with the outer one.
	join := Ex([]string{"x"}, Conj(atom(rP, "x"), Ex([]string{"x"}, Conj(atom(sP, "x"), atom(rP, "x")))))
	if mustEval(t, join, st) {
		t.Errorf("%s = true, but no value is in both R and S", join)
	}
}

// countingStructure counts Domain calls on the structure it wraps.
type countingStructure struct {
	*MapStructure
	domainCalls int
}

func (c *countingStructure) Domain() []instance.Value {
	c.domainCalls++
	return c.MapStructure.Domain()
}

var tP = PlainPred("T")

// randStructure fills R (binary), S and T (unary) with seeded random
// tuples over the ints 1..4; any of them may come out empty.
func randStructure(r *rand.Rand) *MapStructure {
	st := NewMapStructure()
	v := func() instance.Value { return instance.Int(int64(1 + r.Intn(4))) }
	for i, n := 0, r.Intn(5); i < n; i++ {
		st.Add(rP, instance.Tuple{v(), v()})
	}
	for _, p := range []Pred{sP, tP} {
		for i, n := 0, r.Intn(3); i < n; i++ {
			st.Add(p, instance.Tuple{v()})
		}
	}
	return st
}

// randFormula builds a seeded random formula whose free variables are
// among scope, quantifying at most *vars variables in all (the eager
// reference evaluator is exponential in that count). Quantifiers draw their
// names from x, y, z, so nested ones often shadow; variables land under ¬
// and ∨ and in = and ≠ as often as in conjunctive atoms.
func randFormula(r *rand.Rand, scope []string, depth int, vars *int) Formula {
	term := func() Term {
		if len(scope) == 0 || r.Intn(4) == 0 {
			return Const(instance.Int(int64(1 + r.Intn(4))))
		}
		return Var(scope[r.Intn(len(scope))])
	}
	if depth == 0 {
		switch r.Intn(5) {
		case 0:
			return Atom{Pred: rP, Args: []Term{term(), term()}}
		case 1:
			return Atom{Pred: sP, Args: []Term{term()}}
		case 2:
			return Atom{Pred: tP, Args: []Term{term()}}
		case 3:
			return Eq{L: term(), R: term()}
		default:
			return Neq{L: term(), R: term()}
		}
	}
	switch k := r.Intn(6); {
	case k < 2 && *vars > 0:
		n := 1 + r.Intn(2)
		if n > *vars {
			n = *vars
		}
		*vars -= n
		names := make([]string, n)
		inner := append([]string(nil), scope...)
		for i := range names {
			names[i] = []string{"x", "y", "z"}[r.Intn(3)]
			inner = append(inner, names[i])
		}
		return Exists{Vars: names, Body: randFormula(r, inner, depth-1, vars)}
	case k < 4:
		return And{Conj: []Formula{randFormula(r, scope, depth-1, vars), randFormula(r, scope, depth-1, vars)}}
	case k == 4:
		return Or{Disj: []Formula{randFormula(r, scope, depth-1, vars), randFormula(r, scope, depth-1, vars)}}
	default:
		return Not{F: randFormula(r, scope, depth-1, vars)}
	}
}

// eagerEval is the reference evaluator: every quantified variable ranges
// over the full quantification domain, built up front, with an explicit
// save-and-restore environment for shadowing.
func eagerEval(f Formula, st Structure, dom []instance.Value, env map[string]instance.Value) bool {
	val := func(t Term) instance.Value {
		if t.IsVar() {
			return env[t.Name()]
		}
		return t.Value()
	}
	switch g := f.(type) {
	case Truth:
		return g.Val
	case Atom:
		tup := make(instance.Tuple, len(g.Args))
		for i, a := range g.Args {
			tup[i] = val(a)
		}
		return st.Holds(g.Pred, tup)
	case Eq:
		return val(g.L) == val(g.R)
	case Neq:
		return val(g.L) != val(g.R)
	case And:
		for _, c := range g.Conj {
			if !eagerEval(c, st, dom, env) {
				return false
			}
		}
		return true
	case Or:
		for _, d := range g.Disj {
			if eagerEval(d, st, dom, env) {
				return true
			}
		}
		return false
	case Not:
		return !eagerEval(g.F, st, dom, env)
	case Exists:
		var assign func(i int) bool
		assign = func(i int) bool {
			if i == len(g.Vars) {
				return eagerEval(g.Body, st, dom, env)
			}
			v := g.Vars[i]
			outer, bound := env[v]
			defer func() {
				if bound {
					env[v] = outer
				} else {
					delete(env, v)
				}
			}()
			for _, d := range dom {
				env[v] = d
				if assign(i + 1) {
					return true
				}
			}
			return false
		}
		return assign(0)
	}
	panic(fmt.Sprintf("eagerEval: %T", f))
}

// generatorBound reports whether every quantified variable of f occurs in
// an atom conjunctive at the top of its quantifier's body (looking through
// nested quantifiers that do not rebind it): the sentences whose
// evaluation needs no quantification domain.
func generatorBound(f Formula) bool {
	switch g := f.(type) {
	case And:
		for _, c := range g.Conj {
			if !generatorBound(c) {
				return false
			}
		}
		return true
	case Or:
		for _, d := range g.Disj {
			if !generatorBound(d) {
				return false
			}
		}
		return true
	case Not:
		return generatorBound(g.F)
	case Exists:
		for _, v := range g.Vars {
			if !conjunctiveAtomBinds(v, g.Body) {
				return false
			}
		}
		return generatorBound(g.Body)
	default:
		return true
	}
}

func conjunctiveAtomBinds(v string, f Formula) bool {
	switch g := f.(type) {
	case Atom:
		for _, t := range g.Args {
			if t.IsVar() && t.Name() == v {
				return true
			}
		}
	case And:
		for _, c := range g.Conj {
			if conjunctiveAtomBinds(v, c) {
				return true
			}
		}
	case Exists:
		for _, w := range g.Vars {
			if w == v {
				return false
			}
		}
		return conjunctiveAtomBinds(v, g.Body)
	}
	return false
}

// TestPreparedAgreesWithEagerDomain is the differential test of the
// prepared evaluator: on seeded random small structures, generator joins
// plus a lazily built domain must decide every sentence exactly like
// ranging every variable over an eagerly built domain. A counting stub
// pins the laziness: generator-bound sentences never ask for the domain,
// and no evaluation asks for it more than once.
func TestPreparedAgreesWithEagerDomain(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	fixed := []Formula{
		Ex([]string{"x", "y"}, atom(rP, "x", "y")),
		Ex([]string{"x"}, atom(rP, "x", "x")),
		Ex([]string{"x", "y", "z"}, Conj(atom(rP, "x", "y"), atom(rP, "y", "z"), atom(sP, "z"))),
		Disj(Ex([]string{"x"}, atom(rP, "x", "x")), Ex([]string{"z"}, atom(sP, "z"))),
		Ex([]string{"x"}, Eq{Var("x"), Var("x")}),
		Ex([]string{"x", "y"}, Neq{Var("x"), Var("y")}),
		Ex([]string{"x", "y", "u", "v"}, Conj(atom(rP, "x", "y"), atom(rP, "u", "v"), Neq{Var("x"), Var("u")})),
		Ex([]string{"x", "y"}, Conj(atom(sP, "x"), atom(sP, "y"), Neq{Var("x"), Var("y")})),
		Conj(Ex([]string{"x"}, atom(sP, "x")), Not{F: Ex([]string{"x"}, atom(tP, "x"))}),
		Ex([]string{"x"}, Not{F: atom(sP, "x")}),
		Ex([]string{"x"}, Disj(atom(sP, "x"), atom(tP, "x"))),
		Ex([]string{"x", "y"}, Conj(atom(sP, "x"), Eq{Var("y"), Var("x")})),
		Ex([]string{"x"}, Conj(atom(sP, "x"), Ex([]string{"x"}, Conj(atom(tP, "x"), Neq{Var("x"), Const(instance.Int(2))})))),
		Ex([]string{"x"}, Ex([]string{"y"}, Conj(atom(rP, "x", "y"), atom(rP, "y", "x")))),
	}
	formulas := append([]Formula(nil), fixed...)
	for len(formulas) < 300 {
		vars := 3
		formulas = append(formulas, randFormula(r, nil, 1+r.Intn(4), &vars))
	}
	bound, unbound := 0, 0
	for s := 0; s < 30; s++ {
		st := &countingStructure{MapStructure: randStructure(r)}
		for _, f := range formulas {
			p, err := Prepare(f)
			if err != nil {
				t.Fatalf("Prepare(%s): %v", f, err)
			}
			want := eagerEval(f, st.MapStructure, p.domain(st.MapStructure), map[string]instance.Value{})
			st.domainCalls = 0
			got := p.Eval(st)
			if got != want {
				t.Fatalf("structure %d: %s = %v prepared, %v over the eager domain (R=%v S=%v T=%v)",
					s, f, got, want, st.TuplesOf(rP), st.TuplesOf(sP), st.TuplesOf(tP))
			}
			if viaEval := mustEval(t, f, st.MapStructure); viaEval != got {
				t.Fatalf("%s: Eval = %v, Prepared.Eval = %v", f, viaEval, got)
			}
			if generatorBound(f) {
				bound++
				if st.domainCalls != 0 {
					t.Fatalf("%s is generator-bound but asked for the domain %d times", f, st.domainCalls)
				}
			} else {
				unbound++
				if st.domainCalls > 1 {
					t.Fatalf("%s asked for the domain %d times in one evaluation", f, st.domainCalls)
				}
			}
		}
	}
	if bound == 0 || unbound == 0 {
		t.Fatalf("degenerate sample: %d generator-bound, %d not", bound, unbound)
	}
}

// TestPreparedGeneratorBoundNeverReadsDomain pins the access-path letters
// the bounded engines evaluate at every node: sentences such as
// ∃x,y. pre R(x,y) bind every variable from a generator atom, so their
// evaluation never builds a quantification domain, whatever the structure
// holds.
func TestPreparedGeneratorBoundNeverReadsDomain(t *testing.T) {
	pre := PrePred("R")
	letters := []Formula{
		Ex([]string{"x", "y"}, Atom{Pred: pre, Args: []Term{Var("x"), Var("y")}}),
		Ex([]string{"n", "p"}, Conj(Atom{Pred: IsBindPred("M"), Args: []Term{Var("n")}}, Atom{Pred: pre, Args: []Term{Var("p"), Var("n")}})),
		Ex([]string{"x"}, Conj(Atom{Pred: pre, Args: []Term{Var("x"), Var("x")}}, Neq{Var("x"), Const(instance.Int(1))})),
	}
	for _, tuples := range [][]instance.Tuple{nil, {{instance.Int(1), instance.Int(2)}, {instance.Int(3), instance.Int(3)}}} {
		st := &countingStructure{MapStructure: NewMapStructure()}
		for _, tup := range tuples {
			st.Add(pre, tup)
		}
		for _, f := range letters {
			p, err := Prepare(f)
			if err != nil {
				t.Fatal(err)
			}
			p.Eval(st)
			if st.domainCalls != 0 {
				t.Fatalf("%s asked for the domain on %v", f, tuples)
			}
		}
	}
}

func TestPrepareRejectsOpenFormula(t *testing.T) {
	if _, err := Prepare(Ex([]string{"x"}, atom(rP, "x", "y"))); err == nil {
		t.Error("open formula prepared without error")
	}
}
