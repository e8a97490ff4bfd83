// Package bench is the benchmark harness regenerating every table and
// figure of the paper's evaluation: one benchmark per Table 1 row, per
// figure, per worked example, plus the ablations at the end of this file.
// README.md's Performance section records measured numbers, and its
// Development section how scripts/bench.sh captures and compares them.
// Run with:
//
//	go test -bench=. -benchmem
package bench

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"accltl/accesscheck"
	"accltl/accesscheck/cachetier"
	"accltl/internal/accltl"
	"accltl/internal/autom"
	"accltl/internal/branching"
	"accltl/internal/datalog"
	"accltl/internal/deps"
	"accltl/internal/fo"
	"accltl/internal/instance"
	"accltl/internal/ltl"
	"accltl/internal/lts"
	"accltl/internal/relevance"
	"accltl/internal/schema"
	"accltl/internal/workload"
)

// ---------- Table 1, rows 1-2: the undecidable fragments ----------
// No decision procedure exists; the measurable artifact is the reduction
// construction itself (Theorems 5.2 and 3.1), which must scale polynomially
// with the dependency set.

func BenchmarkTable1Row1_UndecidableReduction(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("fds=%d", n), func(b *testing.B) {
			base, gamma, sigma := depsInstance(b, n)
			fs, err := deps.FillSchema(base)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := deps.Theorem52Formula(fs, gamma, sigma); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable1Row2_UndecidableReduction(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("fds=%d", n), func(b *testing.B) {
			base, gamma, sigma := depsInstance(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := deps.BuildTheorem31(base, gamma, sigma); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func depsInstance(b *testing.B, n int) (*schema.Schema, deps.Set, deps.FD) {
	b.Helper()
	base := schema.New()
	arity := n + 2
	types := make([]schema.Type, arity)
	for i := range types {
		types[i] = schema.TypeInt
	}
	r, err := schema.NewRelation("R", types...)
	if err != nil {
		b.Fatal(err)
	}
	if err := base.AddRelation(r); err != nil {
		b.Fatal(err)
	}
	var gamma deps.Set
	for i := 0; i < n; i++ {
		gamma.FDs = append(gamma.FDs, deps.FD{Rel: "R", Source: []int{i}, Target: i + 1})
	}
	sigma := deps.FD{Rel: "R", Source: []int{0}, Target: arity - 1}
	return base, gamma, sigma
}

// ---------- Table 1, row 3: AccLTL+ satisfiability ----------

func BenchmarkTable1Row3_AccLTLPlusSat(b *testing.B) {
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("nest=%d", n), func(b *testing.B) {
			chain := workload.MustChain(n + 1)
			f := chain.NestedEventually(n)
			opts := accltl.SolveOptions{Schema: chain.Schema, MaxDepth: n + 2}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := accltl.SolvePlusDirect(f, opts)
				if err != nil || !res.Satisfiable {
					b.Fatalf("res=%+v err=%v", res, err)
				}
			}
		})
	}
}

// ---------- Table 1, row 4: A-automata emptiness ----------

func BenchmarkTable1Row4_AAutomataEmptiness(b *testing.B) {
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("nest=%d", n), func(b *testing.B) {
			chain := workload.MustChain(n + 1)
			a, err := autom.CompileAccLTLPlus(chain.Schema, chain.NestedEventually(n))
			if err != nil {
				b.Fatal(err)
			}
			// A witness needs one revealing access per chain level; the
			// automaton-derived default bound is far larger and blows up
			// the exhaustive part of the search.
			opts := autom.EmptinessOptions{MaxDepth: n + 2}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := a.IsEmpty(opts)
				if err != nil || !res.Satisfiable {
					b.Fatalf("res=%+v err=%v", res, err)
				}
			}
		})
	}
}

// ---------- Table 1, rows 5-6: the PSPACE fragments ----------

func BenchmarkTable1Row5_ZeroAccSat(b *testing.B) {
	for _, n := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("nest=%d", n), func(b *testing.B) {
			chain := workload.MustChain(n + 1)
			f := chain.NestedEventually(n)
			opts := accltl.SolveOptions{Schema: chain.Schema, MaxDepth: n + 2}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := accltl.SolveZeroAcc(f, opts)
				if err != nil || !res.Satisfiable {
					b.Fatalf("res=%+v err=%v", res, err)
				}
			}
		})
	}
}

func BenchmarkTable1Row6_ZeroAccNeqSat(b *testing.B) {
	// Two distinct facts per level: the ≠ fragment of Theorem 5.1.
	chain := workload.MustChain(2)
	two := accltl.F(accltl.Atom{Sentence: fo.Ex([]string{"x", "y"}, fo.Conj(
		fo.Atom{Pred: fo.PostPred("R0"), Args: []fo.Term{fo.Var("x")}},
		fo.Atom{Pred: fo.PostPred("R0"), Args: []fo.Term{fo.Var("y")}},
		fo.Neq{L: fo.Var("x"), R: fo.Var("y")},
	))})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := accltl.SolveZeroAcc(two, accltl.SolveOptions{Schema: chain.Schema})
		if err != nil || !res.Satisfiable {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// ---------- Table 1, row 7: the ΣP2 fragment ----------

func BenchmarkTable1Row7_XFragmentSat(b *testing.B) {
	for _, n := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("tower=%d", n), func(b *testing.B) {
			chain := workload.MustChain(n + 1)
			f := chain.XTower(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := accltl.SolveX(f, accltl.SolveOptions{Schema: chain.Schema})
				if err != nil || !res.Satisfiable {
					b.Fatalf("res=%+v err=%v", res, err)
				}
			}
		})
	}
}

// ---------- Table 1, expressibility matrix ----------

func BenchmarkTable1Matrix_Expressibility(b *testing.B) {
	phone := workload.MustPhone()
	specs := []accltl.Formula{
		phone.DisjointnessConstraint(), phone.DisjointnessConstraintX(3),
		phone.FDConstraint(), phone.FDConstraintX(3),
		phone.DataflowRestriction(), phone.DataflowRestrictionPlus(),
		phone.AccessOrderRestriction(), phone.AccessOrderRestrictionPlus(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range specs {
			info := accltl.Classify(f)
			if _, ok := info.Fragment(); !ok {
				b.Fatal("spec without fragment")
			}
		}
	}
}

// ---------- Figure 1: tree of possible paths ----------

func BenchmarkFigure1_PathTree(b *testing.B) {
	phone := workload.MustPhone()
	u := phone.SmithJonesUniverse()
	for _, depth := range []int{1, 2} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tree, err := lts.BuildTree(phone.Schema, lts.Options{Universe: u, MaxDepth: depth})
				if err != nil || tree.CountNodes() < 2 {
					b.Fatalf("tree=%v err=%v", tree, err)
				}
			}
		})
	}
}

// ---------- Figure 2: language inclusions ----------

func BenchmarkFigure2_Inclusions(b *testing.B) {
	phone := workload.MustPhone()
	intro := phone.IntroFormula()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := autom.CompileAccLTLPlus(phone.Schema, intro)
		if err != nil {
			b.Fatal(err)
		}
		res, err := a.IsEmpty(autom.EmptinessOptions{})
		if err != nil || !res.Satisfiable {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// ---------- Example 2.2: containment under access patterns ----------

func BenchmarkExample22_Containment(b *testing.B) {
	r := schema.MustRelation("Catalog", schema.TypeInt)
	d := schema.MustRelation("Detail", schema.TypeInt)
	s := schema.New()
	for _, err := range []error{
		s.AddRelation(r), s.AddRelation(d),
		s.AddMethod(schema.MustAccessMethod("scanCatalog", r)),
		s.AddMethod(schema.MustAccessMethod("lookupDetail", d, 0)),
	} {
		if err != nil {
			b.Fatal(err)
		}
	}
	q1 := fo.Ex([]string{"x"}, fo.Atom{Pred: fo.PlainPred("Detail"), Args: []fo.Term{fo.Var("x")}})
	q2 := fo.Ex([]string{"x"}, fo.Atom{Pred: fo.PlainPred("Catalog"), Args: []fo.Term{fo.Var("x")}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := relevance.ContainedUnderAccessPatterns(s, q1, q2, nil, 4)
		if err != nil || !res.Contained {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// ---------- Example 2.3: long-term relevance ----------

func BenchmarkExample23_LTR(b *testing.B) {
	r := schema.MustRelation("R", schema.TypeInt)
	s := schema.New()
	if err := s.AddRelation(r); err != nil {
		b.Fatal(err)
	}
	chk := schema.MustAccessMethod("chkR", r, 0)
	if err := s.AddMethod(chk); err != nil {
		b.Fatal(err)
	}
	q := fo.Ex([]string{"x"}, fo.Atom{Pred: fo.PlainPred("R"), Args: []fo.Term{fo.Var("x")}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := relevance.LongTermRelevant(s, chk, instance.Tuple{instance.Int(7)}, q, relevance.LTROptions{})
		if err != nil || !res.Relevant {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// ---------- Example 2.4: LTR under functional dependencies ----------

func BenchmarkExample24_LTRUnderFDs(b *testing.B) {
	// Formula construction plus a bounded satisfiability run of the
	// combined sentence F(¬Qpre ∧ IsBind ∧ Qpost) ∧ ⋀ ¬F(viol_fd).
	r := schema.MustRelation("R", schema.TypeInt, schema.TypeInt)
	s := schema.New()
	if err := s.AddRelation(r); err != nil {
		b.Fatal(err)
	}
	chk := schema.MustAccessMethod("chkR", r, 0, 1)
	if err := s.AddMethod(chk); err != nil {
		b.Fatal(err)
	}
	q := fo.Ex([]string{"x", "y"}, fo.Atom{Pred: fo.PlainPred("R"), Args: []fo.Term{fo.Var("x"), fo.Var("y")}})
	fd := deps.FD{Rel: "R", Source: []int{0}, Target: 1}
	viol, err := fd.ViolationSentence(s, fo.Pre)
	if err != nil {
		b.Fatal(err)
	}
	ltr, err := relevance.LTRFormula(chk, instance.Tuple{instance.Int(1), instance.Int(2)}, q)
	if err != nil {
		b.Fatal(err)
	}
	f := accltl.Conj(ltr, accltl.G(accltl.Not{F: accltl.Atom{Sentence: viol}}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := accltl.SolveBounded(f, accltl.SolveOptions{Schema: s, MaxDepth: 2})
		if err != nil || !res.Satisfiable {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// ---------- Proposition 4.4: automata for containment with DjC ----------

func BenchmarkProp44_AutomatonConstruction(b *testing.B) {
	phone := workload.MustPhone()
	q1 := phone.MobileNonEmptyPre()
	q2 := fo.Ex([]string{"a", "b", "c", "d"}, fo.Atom{Pred: fo.PrePred("Address"),
		Args: []fo.Term{fo.Var("a"), fo.Var("b"), fo.Var("c"), fo.Var("d")}})
	djc := phone.DisjointnessConstraint()
	f := accltl.Conj(
		accltl.F(accltl.Conj(accltl.Atom{Sentence: q1}, accltl.Not{F: accltl.Atom{Sentence: q2}})),
		djc,
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := autom.CompileAccLTLPlus(phone.Schema, f); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- Lemma 4.9: progressive decomposition ----------

func BenchmarkLemma49_ProgressiveDecomposition(b *testing.B) {
	phone := workload.MustPhone()
	a, err := autom.CompileAccLTLPlus(phone.Schema, phone.IntroFormula())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subs, err := a.Decompose(0)
		if err != nil || len(subs) == 0 {
			b.Fatalf("subs=%d err=%v", len(subs), err)
		}
	}
}

// ---------- Lemma 4.10: reduction to Datalog containment ----------

func BenchmarkLemma410_DatalogReduction(b *testing.B) {
	phone := workload.MustPhone()
	a, err := autom.CompileAccLTLPlus(phone.Schema, phone.IntroFormula())
	if err != nil {
		b.Fatal(err)
	}
	subs, err := a.Decompose(0)
	if err != nil || len(subs) == 0 {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sub := range subs {
			if _, err := sub.ToDatalogContainment(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------- Lemma 4.13: boundedness (witness universe) ----------

func BenchmarkLemma413_Boundedness(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("nest=%d", n), func(b *testing.B) {
			chain := workload.MustChain(n + 1)
			f := chain.NestedEventually(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u, err := accltl.WitnessUniverse(chain.Schema, f)
				if err != nil || u.Size() == 0 {
					b.Fatalf("u=%v err=%v", u, err)
				}
			}
		})
	}
}

// ---------- Exploration core (zero-clone mutate-and-undo engine) ----------
// The ground-truth LTS exploration under every solver. Collect exercises the
// full hot loop: binding enumeration, response fan-out, configuration
// maintenance and per-depth fingerprint dedup. Depth ≥ 3 non-exact runs are
// the headline workload for the allocation-free core; capped runs visit a
// fixed prefix set (DFS order is deterministic), so before/after numbers
// compare identical work.

func BenchmarkExplore(b *testing.B) {
	chain := workload.MustChain(3)
	cu := chain.Universe()
	phone := workload.MustPhone()
	pu := phone.SmithJonesUniverse()
	cases := []struct {
		name     string
		sch      *schema.Schema
		opts     lts.Options
		minPaths int
	}{
		{"chain/depth=3", chain.Schema, lts.Options{Universe: cu, MaxDepth: 3}, 1000},
		{"chain/depth=3/grounded", chain.Schema, lts.Options{Universe: cu, MaxDepth: 3, GroundedOnly: true}, 10},
		{"chain/depth=3/idempotent", chain.Schema, lts.Options{Universe: cu, MaxDepth: 3, IdempotentOnly: true}, 1000},
		{"chain/depth=4/exact", chain.Schema, lts.Options{Universe: cu, MaxDepth: 4, AllExact: true}, 1000},
		{"chain/depth=4/capped", chain.Schema, lts.Options{Universe: cu, MaxDepth: 4, MaxPaths: 50000}, 50000},
		{"phone/depth=3/capped", phone.Schema, lts.Options{Universe: pu, MaxDepth: 3, MaxPaths: 10000}, 10000},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := lts.Collect(c.sch, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				if st.TotalPaths < c.minPaths {
					b.Fatalf("explored only %d paths, want >= %d", st.TotalPaths, c.minPaths)
				}
			}
		})
	}
}

// BenchmarkExploreSolverUnsat drives the bounded-model solver over a
// depth-4 unsatisfiable instance: every prefix is visited, every letter is
// evaluated and the (config, obligation) memo is exercised on each node —
// the worst case the incremental fingerprints and last-transition letter
// evaluation are built for.
func BenchmarkExploreSolverUnsat(b *testing.B) {
	chain := workload.MustChain(3)
	f := accltl.Conj(
		chain.ReachLastFormula(),
		accltl.G(accltl.Not{F: accltl.Atom{Sentence: fo.Ex([]string{"x"},
			fo.Atom{Pred: fo.PostPred("R2"), Args: []fo.Term{fo.Var("x")}})}}),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := accltl.SolveZeroAcc(f, accltl.SolveOptions{Schema: chain.Schema, MaxDepth: 4})
		if err != nil || res.Satisfiable {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// BenchmarkBranchingEX walks the branching-time checker through nested EX
// modalities: each EX materializes the one-step successor set, the third
// engine riding on the exploration core.
func BenchmarkBranchingEX(b *testing.B) {
	chain := workload.MustChain(3)
	q := func(i int) branching.Formula {
		return branching.Atom{Sentence: fo.Ex([]string{"x"},
			fo.Atom{Pred: fo.PostPred(fmt.Sprintf("R%d", i)), Args: []fo.Term{fo.Var("x")}})}
	}
	f := branching.EX{F: branching.Conj(q(0), branching.EX{F: q(1)})}
	chk := &branching.Checker{Schema: chain.Schema, Opts: lts.Options{Universe: chain.Universe(), MaxDepth: 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, _, err := chk.Satisfiable(f, nil)
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// ---------- Parallel sharded exploration (scaling) ----------
// One mutate-and-undo walker per goroutine over a partition of the root
// branching, W ∈ {1, 2, 4, 8}. W=1 is the serial engine (the baseline the
// speedups are measured against); the workloads are exhaustive explorations
// large enough that shard dispatch and the shared budget are noise.
// GOMAXPROCS is raised to W for the measurement: walker scaling is what is
// being measured, and CI machines (or cgroup limits) may default lower.

func withProcs(b *testing.B, w int, fn func(b *testing.B)) {
	prev := runtime.GOMAXPROCS(0)
	if prev < w {
		runtime.GOMAXPROCS(w)
		defer runtime.GOMAXPROCS(prev)
	}
	fn(b)
}

func BenchmarkExploreParallel(b *testing.B) {
	chain := workload.MustChain(3)
	cu := chain.Universe()
	phone := workload.MustPhone()
	pu := phone.SmithJonesUniverse()
	cases := []struct {
		name     string
		sch      *schema.Schema
		opts     lts.Options
		minPaths int
	}{
		{"chain/depth=4", chain.Schema, lts.Options{Universe: cu, MaxDepth: 4}, 10000},
		{"phone/depth=3", phone.Schema, lts.Options{Universe: pu, MaxDepth: 3}, 10000},
	}
	for _, c := range cases {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/W=%d", c.name, w), func(b *testing.B) {
				withProcs(b, w, func(b *testing.B) {
					opts := c.opts
					opts.Parallelism = w
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						st, err := lts.Collect(c.sch, opts)
						if err != nil {
							b.Fatal(err)
						}
						if st.TotalPaths < c.minPaths {
							b.Fatalf("explored only %d paths, want >= %d", st.TotalPaths, c.minPaths)
						}
					}
				})
			})
		}
	}
}

// BenchmarkSolverParallelUnsat scales the bounded-model solver over an
// unsatisfiable instance searched against the chain workload's full
// universe (not the collapsed formula-derived one): the obligation stays
// alive on most prefixes, so every walker letter-evaluates and exercises
// the shared striped (config, obligation) memo across a space of ~10^5
// prefixes — the worst case for the concurrent tables with enough work
// per shard to amortize the fan-out setup.
func BenchmarkSolverParallelUnsat(b *testing.B) {
	chain := workload.MustChain(3)
	f := accltl.Conj(
		chain.ReachLastFormula(),
		accltl.G(accltl.Not{F: accltl.Atom{Sentence: fo.Ex([]string{"x"},
			fo.Atom{Pred: fo.PostPred("R2"), Args: []fo.Term{fo.Var("x")}})}}),
	)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			withProcs(b, w, func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := accltl.SolveZeroAcc(f, accltl.SolveOptions{
						Schema: chain.Schema, MaxDepth: 4, Universe: chain.Universe(), Parallelism: w})
					if err != nil || res.Satisfiable {
						b.Fatalf("res=%+v err=%v", res, err)
					}
				}
			})
		})
	}
}

// ---------- Wide budget-storm checks through CheckAnytime ----------

// wideCheck builds the budget-storm fixture of scripts/fabric_smoke.sh
// widened to k relations (4 ≤ k ≤ 7): Mobile# and Address plus k-2 binary
// relations with one access method per position, and an unsatisfiable
// conjunction that names every binary relation (the first two twice). Its
// bounded depth-4 search visits every path and splits into many root
// shards, so per-node letter evaluation and root planning dominate.
func wideCheck(b testing.TB, k int) (*accesscheck.Schema, accesscheck.Formula) {
	rels := []string{"Mobile#:string,string,string,int", "Address:string,string,string,int"}
	methods := []string{"AcM1:Mobile#:0", "AcM2:Address:0,1"}
	mobile := "[exists n,p,s,ph. pre Mobile#(n,p,s,ph)]"
	formula := mobile + " & (!" + mobile + ")"
	for j, rel := range []string{"Email", "Phone", "Fax", "Pager", "Telex"}[:k-2] {
		rels = append(rels, rel+":string,string")
		methods = append(methods, fmt.Sprintf("Get%sBy0:%s:0", rel, rel), fmt.Sprintf("Get%sBy1:%s:1", rel, rel))
		atoms := 1
		if j < 2 {
			atoms = 2
		}
		for a := 0; a < atoms; a++ {
			formula += fmt.Sprintf(" & [exists x%d%d,y%d%d. pre %s(x%d%d,y%d%d)]", j, a, j, a, rel, j, a, j, a)
		}
	}
	sch, err := accesscheck.ParseSchema(rels, methods)
	if err != nil {
		b.Fatal(err)
	}
	f, err := accesscheck.ParseFormula(formula)
	if err != nil {
		b.Fatal(err)
	}
	return sch, f
}

// BenchmarkWideCheckAnytime runs the wide family the way accesscheck/server
// runs a fresh check under its defaults: one walker, the bounded engine at
// depth 4, CheckAnytime with no prior checkpoint under the 5 s default
// budget. The cost is planning the root partition plus the search, whose
// per-node work is evaluating every embedded sentence on M(t).
func BenchmarkWideCheckAnytime(b *testing.B) {
	for k := 4; k <= 7; k++ {
		b.Run(fmt.Sprintf("wide%d", k), func(b *testing.B) {
			sch, f := wideCheck(b, k)
			chk, err := accesscheck.NewChecker(
				accesscheck.WithParallelism(1),
				accesscheck.WithEngine(accesscheck.EngineBounded),
				accesscheck.WithMaxDepth(4))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				res, _, err := chk.CheckAnytime(ctx, sch, f, nil)
				cancel()
				if err != nil || res.Satisfiable || res.Truncated {
					b.Fatalf("res=%+v err=%v", res, err)
				}
			}
		})
	}
}

// ---------- Tiered cache subsystem ----------

// BenchmarkDiskTier measures the persistent tier's two moves with
// wire-sized values (a marshalled CheckResponse is a few hundred bytes):
// Put appends one CRC-framed record and points the index at it; Get
// answers from the index with a single ReadAt.
func BenchmarkDiskTier(b *testing.B) {
	val := bytes.Repeat([]byte("r"), 256)
	b.Run("put", func(b *testing.B) {
		tier, err := cachetier.OpenDiskTier(cachetier.DiskConfig{Dir: b.TempDir(), Scheme: "bench-v1"})
		if err != nil {
			b.Fatal(err)
		}
		defer tier.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !tier.Put(fmt.Sprintf("fp-%d", i), val) {
				b.Fatal("put rejected")
			}
		}
	})
	b.Run("get", func(b *testing.B) {
		tier, err := cachetier.OpenDiskTier(cachetier.DiskConfig{Dir: b.TempDir(), Scheme: "bench-v1"})
		if err != nil {
			b.Fatal(err)
		}
		defer tier.Close()
		const resident = 4096
		keys := make([]string, resident)
		for i := range keys {
			keys[i] = fmt.Sprintf("fp-%d", i)
			if !tier.Put(keys[i], val) {
				b.Fatal("put rejected")
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := tier.Get(keys[i%resident]); !ok {
				b.Fatal("resident key missed")
			}
		}
	})
}

// ---------- Ablations ----------

// D1: AccLTL+ satisfiability — direct bounded search vs. the Lemma 4.5
// automaton pipeline.
func BenchmarkAblation_PlusSat_DirectVsAutomaton(b *testing.B) {
	chain := workload.MustChain(2)
	f := chain.NestedEventually(1)
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := accltl.SolvePlusDirect(f, accltl.SolveOptions{Schema: chain.Schema})
			if err != nil || !res.Satisfiable {
				b.Fatal(err)
			}
		}
	})
	b.Run("automaton", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := autom.CompileAccLTLPlus(chain.Schema, f)
			if err != nil {
				b.Fatal(err)
			}
			res, err := a.IsEmpty(autom.EmptinessOptions{MaxDepth: 3})
			if err != nil || !res.Satisfiable {
				b.Fatal(err)
			}
		}
	})
}

// D2: Datalog evaluation — semi-naive vs. naive.
func BenchmarkAblation_Datalog_SeminaiveVsNaive(b *testing.B) {
	edge := fo.PlainPred("edge")
	path := fo.PlainPred("path")
	prog := &datalog.Program{
		Rules: []datalog.Rule{
			{Head: fo.Atom{Pred: path, Args: []fo.Term{fo.Var("x"), fo.Var("y")}},
				Body: []fo.Atom{{Pred: edge, Args: []fo.Term{fo.Var("x"), fo.Var("y")}}}},
			{Head: fo.Atom{Pred: path, Args: []fo.Term{fo.Var("x"), fo.Var("z")}},
				Body: []fo.Atom{
					{Pred: edge, Args: []fo.Term{fo.Var("x"), fo.Var("y")}},
					{Pred: path, Args: []fo.Term{fo.Var("y"), fo.Var("z")}}}},
		},
		Goal: path,
	}
	db := fo.NewMapStructure()
	for i := 0; i < 24; i++ {
		db.Add(edge, instance.Tuple{instance.Int(int64(i)), instance.Int(int64(i + 1))})
	}
	b.Run("seminaive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := prog.Eval(db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := prog.EvalNaive(db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// D3: LTL satisfiability — progression with memoization vs. brute-force
// word enumeration. Satisfiable instances can favour brute force (a lucky
// early witness); unsatisfiable instances are where memoized progression
// pays, because brute force must exhaust every word up to the bound.
func BenchmarkAblation_LTL_ProgressionVsTableau(b *testing.B) {
	pa, pb, pc := ltl.Prop("a"), ltl.Prop("b"), ltl.Prop("c")
	alpha := ltl.FullAlphabet([]ltl.Prop{pa, pb, pc})
	sat := ltl.And{
		L: ltl.Eventually(ltl.And{L: pa, R: ltl.Next{F: pb}}),
		R: ltl.Eventually(pc),
	}
	unsat := ltl.And{L: ltl.Globally(pa), R: ltl.Eventually(ltl.Not{F: pa})}
	cases := []struct {
		name    string
		f       ltl.Formula
		wantSat bool
	}{{"sat", sat, true}, {"unsat", unsat, false}}
	for _, c := range cases {
		b.Run("progression/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ltl.Satisfiable(c.f, alpha, 6)
				if err != nil || res.Satisfiable != c.wantSat {
					b.Fatal(err)
				}
			}
		})
		b.Run("brute/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ltl.SatisfiableBrute(c.f, alpha, 6)
				if err != nil || res.Satisfiable != c.wantSat {
					b.Fatal(err)
				}
			}
		})
	}
}

// D4: obligation-progression pruning in the bounded-model search, on vs.
// off — the pruning is what keeps unsatisfiable instances tractable.
func BenchmarkAblation_ZeroAcc_LTLPruning(b *testing.B) {
	chain := workload.MustChain(3)
	// An unsatisfiable formula: reach R2 while never revealing R2.
	f := accltl.Conj(
		chain.ReachLastFormula(),
		accltl.G(accltl.Not{F: accltl.Atom{Sentence: fo.Ex([]string{"x"},
			fo.Atom{Pred: fo.PostPred("R2"), Args: []fo.Term{fo.Var("x")}})}}),
	)
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := accltl.SolveZeroAcc(f, accltl.SolveOptions{Schema: chain.Schema, MaxDepth: 4})
			if err != nil || res.Satisfiable {
				b.Fatal(err)
			}
		}
	})
	b.Run("unpruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := accltl.SolveZeroAcc(f, accltl.SolveOptions{Schema: chain.Schema, MaxDepth: 4, DisableLTLPruning: true})
			if err != nil || res.Satisfiable {
				b.Fatal(err)
			}
		}
	})
}
