package bench

import (
	"context"
	"slices"
	"testing"

	"accltl/accesscheck"
	"accltl/internal/access"
	"accltl/internal/accltl"
	"accltl/internal/fo"
	"accltl/internal/instance"
	"accltl/internal/lts"
	"accltl/internal/schema"
	"accltl/internal/workload"
)

// oracleDepth caps the oracle's paths. Subset responses make the number
// of paths grow like 4^depth per method even over two-tuple worlds, and
// the engines search to depth 6–12 on the rows below; witnesses in these
// small worlds are a step or two long.
const oracleDepth = 3

// smallWorldSat is an oracle for small checks that does not use the
// engines' witness universe. For a schema of arity at most 2 it enumerates
// every hidden instance of at most two tuples over a per-type domain of two
// fresh values plus the formula's constants. It explores each instance as
// the universe with lts.Explore up to depth (at most oracleDepth), drawing
// bindings from the whole domain, and decides every path by the direct
// semantics (Checker.Holds). It searches small worlds and short paths only,
// so its "sat" is always true and its "unsat" claims nothing.
func smallWorldSat(t *testing.T, sch *accesscheck.Schema, f accesscheck.Formula, depth int) bool {
	t.Helper()
	domain := map[schema.Type][]instance.Value{
		schema.TypeInt:    {instance.Int(-1001), instance.Int(-1002)},
		schema.TypeString: {instance.Str("_o1"), instance.Str("_o2")},
		schema.TypeBool:   {instance.Bool(false), instance.Bool(true)},
	}
	for _, c := range fo.Constants(fo.Conj(accltl.Sentences(f)...)) {
		if !slices.Contains(domain[c.Kind()], c) {
			domain[c.Kind()] = append(domain[c.Kind()], c)
		}
	}
	var pool []instance.Value
	for _, ty := range []schema.Type{schema.TypeInt, schema.TypeString, schema.TypeBool} {
		pool = append(pool, domain[ty]...)
	}

	type fact struct {
		rel string
		tup instance.Tuple
	}
	var facts []fact
	for _, r := range sch.Relations() {
		if r.Arity() > 2 {
			t.Fatalf("relation %s has arity %d; the oracle takes at most 2", r.Name(), r.Arity())
		}
		tuples := []instance.Tuple{{}}
		for _, ty := range r.Types() {
			var next []instance.Tuple
			for _, tup := range tuples {
				for _, v := range domain[ty] {
					next = append(next, append(slices.Clone(tup), v))
				}
			}
			tuples = next
		}
		for _, tup := range tuples {
			facts = append(facts, fact{r.Name(), tup})
		}
	}
	worlds := [][]fact{nil}
	for i := range facts {
		worlds = append(worlds, facts[i:i+1])
		for j := i + 1; j < len(facts); j++ {
			worlds = append(worlds, []fact{facts[i], facts[j]})
		}
	}

	chk, err := accesscheck.NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	sat := false
	for _, world := range worlds {
		u := instance.NewInstance(sch)
		for _, fc := range world {
			if _, err := u.Add(fc.rel, fc.tup); err != nil {
				t.Fatal(err)
			}
		}
		opts := lts.Options{Universe: u, MaxDepth: min(depth, oracleDepth), ExtraBindingValues: pool}
		_, err := lts.Explore(sch, opts, func(p *access.Path, _, _ *instance.Instance) (bool, error) {
			if p.Len() == 0 {
				return true, nil
			}
			ok, err := chk.Holds(f, p)
			if ok {
				sat = true
				return false, lts.ErrStop
			}
			return true, err
		})
		if sat {
			return true
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return false
}

// oracleCase is one small check the oracle decides.
type oracleCase struct {
	name      string
	relations []string
	methods   []string
	formula   string
}

func (c oracleCase) parse(t *testing.T) (*accesscheck.Schema, accesscheck.Formula) {
	t.Helper()
	sch, err := accesscheck.ParseSchema(c.relations, c.methods)
	if err != nil {
		t.Fatal(err)
	}
	f, err := accesscheck.ParseFormula(c.formula)
	if err != nil {
		t.Fatal(err)
	}
	return sch, f
}

// TestSmallWorldOracleFindsNeqRepros: ROADMAP item 1's three ≠ formulas
// are satisfiable, and the oracle finds each one sat at the depth the auto
// engine searches. Every engine answers them with an exact unsat today,
// which TestGoldenVerdicts pins; comparing the engines with the oracle on
// these rows lands with item 1(c)'s fix of the witness universe.
func TestSmallWorldOracleFindsNeqRepros(t *testing.T) {
	for _, c := range []oracleCase{
		{"identify", []string{"R:int,int"}, []string{"scanR:R:"},
			"(F [exists x,y. post R(x,y)]) & (G ![exists x,y. post R(x,y) & x != y])"},
		{"constant", []string{"R:int"}, []string{"scanR:R:"},
			"(F [exists x. post R(x)]) & (G ![exists x. post R(x) & x != 5])"},
		{"across", []string{"R:int", "S:int"}, []string{"scanR:R:", "scanS:S:"},
			"(F [exists x. post R(x)]) & (F [exists y. post S(y)]) & (G ![exists x,y. post R(x) & post S(y) & x != y])"},
	} {
		t.Run(c.name, func(t *testing.T) {
			sch, f := c.parse(t)
			res, err := accesscheck.Check(context.Background(), sch, f, accesscheck.WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			if !smallWorldSat(t, sch, f, res.Depth) {
				t.Errorf("the oracle finds no witness within depth %d", res.Depth)
			}
		})
	}
}

// TestSmallWorldOracleAgreesWithEngines: on ≠-free variants of item 1's
// repros and small chain rows, every engine that answers exactly agrees
// with a "sat" from the oracle at the depth it searched. Each row also
// pins whether the oracle finds a witness, so a sat row cannot pass by
// the oracle finding nothing.
func TestSmallWorldOracleAgreesWithEngines(t *testing.T) {
	type check struct {
		name string
		sch  *accesscheck.Schema
		f    accesscheck.Formula
		sat  bool
	}
	var checks []check
	for _, c := range []struct {
		oracleCase
		sat bool
	}{
		{oracleCase{"identify-eq", []string{"R:int,int"}, []string{"scanR:R:"},
			"(F [exists x,y. post R(x,y)]) & (G ![exists x. post R(x,x)])"}, true},
		{oracleCase{"constant-eq", []string{"R:int"}, []string{"scanR:R:"},
			"(F [exists x. post R(x)]) & (G ![exists x. post R(x) & x = 5])"}, true},
		{oracleCase{"across-disjoint", []string{"R:int", "S:int"}, []string{"scanR:R:", "scanS:S:"},
			"(F [exists x. post R(x)]) & (F [exists y. post S(y)]) & (G ![exists x. post R(x) & post S(x)])"}, true},
		{oracleCase{"lookup", []string{"R:int,string"}, []string{"lookupR:R:0"},
			`F [exists x. post R(7,x) & bind lookupR(7)]`}, true},
		{oracleCase{"never", []string{"R:int"}, []string{"scanR:R:"},
			"(F [exists x. post R(x)]) & (G ![exists x. post R(x)])"}, false},
	} {
		sch, f := c.parse(t)
		checks = append(checks, check{c.name, sch, f, c.sat})
	}
	ch := workload.MustChain(2)
	checks = append(checks,
		check{"chain/reachlast", ch.Schema, ch.ReachLastFormula(), true},
		check{"chain/nested1", ch.Schema, ch.NestedEventually(1), true},
		check{"chain/xtower1", ch.Schema, ch.XTower(1), true},
	)
	engines := []accesscheck.Engine{
		accesscheck.EngineAuto, accesscheck.EngineX, accesscheck.EngineZeroAcc,
		accesscheck.EnginePlus, accesscheck.EngineBounded, accesscheck.EngineAutomaton,
	}
	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			oracle := map[int]bool{}
			for _, eng := range engines {
				res, err := accesscheck.Check(context.Background(), c.sch, c.f,
					accesscheck.WithParallelism(1), accesscheck.WithEngine(eng))
				if err != nil || res.Truncated {
					continue // the engine refused the formula, or claims nothing
				}
				sat, ok := oracle[res.Depth]
				if !ok {
					sat = smallWorldSat(t, c.sch, c.f, res.Depth)
					oracle[res.Depth] = sat
					if sat != c.sat {
						t.Fatalf("the oracle finds a witness within depth %d: %v, want %v", res.Depth, sat, c.sat)
					}
				}
				if sat && !res.Satisfiable {
					t.Errorf("%v answers an exact unsat at depth %d; the oracle finds a witness", eng, res.Depth)
				}
			}
			if len(oracle) == 0 {
				t.Fatal("no engine answered exactly")
			}
		})
	}
}
