package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"accltl/accesscheck"
	"accltl/accesscheck/fabric"
	"accltl/internal/workload"
)

// goldenVerdictDigest pins TestGoldenVerdicts' digest under the
// fingerprint scheme the verdicts are stored with. A change that moves a
// stored verdict must move the scheme version too; then pin the new
// digest under the new version and update testdata/golden_verdicts.txt.
//
// The three ROADMAP item 1 rows (the "neq/" formulas) pin today's known
// wrong answer: all three are satisfiable, and every engine answers an
// exact unsat. Their fix has to bump FingerprintSchemeVersion.
//
// fp-v3 moved keys, not verdicts (atoms render as the parser reads them),
// so its digest is fp-v2's. So did fp-v4 (schema names are identifiers,
// inclusion dependencies render as ParseID reads them).
var goldenVerdictDigest = map[string]string{
	"fp-v2": "d56c20492be4d8dcd079aebe10f53f08a70b4a69cf1938540648d337c7a4db46",
	"fp-v3": "d56c20492be4d8dcd079aebe10f53f08a70b4a69cf1938540648d337c7a4db46",
	"fp-v4": "d56c20492be4d8dcd079aebe10f53f08a70b4a69cf1938540648d337c7a4db46",
}

// goldenCase is one formula of the golden corpus over its schema, with
// options every run of it adds. A case marked once runs only on the auto
// engine under default options.
type goldenCase struct {
	name string
	sch  *accesscheck.Schema
	f    accesscheck.Formula
	opts []accesscheck.Option
	once bool
}

// goldenCorpus is the fixed corpus the digest covers: the phone specs of
// Table 1 (with their AccLTL+ and X variants), the chain families, the wide
// family's small members and ROADMAP item 1's three ≠ repros.
func goldenCorpus(t *testing.T) []goldenCase {
	t.Helper()
	p := workload.MustPhone()
	c := workload.MustChain(3)
	cases := []goldenCase{
		{name: "phone/intro", sch: p.Schema, f: p.IntroFormula()},
		{name: "phone/djc", sch: p.Schema, f: p.DisjointnessConstraint()},
		{name: "phone/df", sch: p.Schema, f: p.DataflowRestriction()},
		{name: "phone/accor", sch: p.Schema, f: p.AccessOrderRestriction()},
		{name: "phone/fd", sch: p.Schema, f: p.FDConstraint()},
		// Its witness universe fans the root out to ~80k prefixes, about a
		// quarter of a second per run.
		{name: "phone/grounded", sch: p.Schema, f: p.GroundednessFormula(), once: true},
		{name: "phone/accor+", sch: p.Schema, f: p.AccessOrderRestrictionPlus()},
		{name: "phone/df+", sch: p.Schema, f: p.DataflowRestrictionPlus()},
		{name: "phone/djcX2", sch: p.Schema, f: p.DisjointnessConstraintX(2)},
		{name: "phone/fdX2", sch: p.Schema, f: p.FDConstraintX(2)},
		{name: "chain/reachlast", sch: c.Schema, f: c.ReachLastFormula()},
		// At its derived depth 10 the idempotent search meets the 2^22 path
		// cap after seconds, and at depth 4 the idempotent emptiness check
		// still takes most of a second.
		{name: "chain/nested2", sch: c.Schema, f: c.NestedEventually(2), opts: []accesscheck.Option{accesscheck.WithMaxDepth(3)}},
		{name: "chain/xtower2", sch: c.Schema, f: c.XTower(2)},
	}
	for k := 4; k <= 5; k++ {
		sch, f := wideCheck(t, k)
		cases = append(cases, goldenCase{name: fmt.Sprintf("wide%d", k), sch: sch, f: f})
	}
	for _, r := range []struct {
		name      string
		relations []string
		methods   []string
		formula   string
	}{
		{"neq/identify", []string{"R:int,int"}, []string{"scanR:R:"},
			"(F [exists x,y. post R(x,y)]) & (G ![exists x,y. post R(x,y) & x != y])"},
		{"neq/constant", []string{"R:int"}, []string{"scanR:R:"},
			"(F [exists x. post R(x)]) & (G ![exists x. post R(x) & x != 5])"},
		{"neq/across", []string{"R:int", "S:int"}, []string{"scanR:R:", "scanS:S:"},
			"(F [exists x. post R(x)]) & (F [exists y. post S(y)]) & (G ![exists x,y. post R(x) & post S(y) & x != y])"},
	} {
		sch, err := accesscheck.ParseSchema(r.relations, r.methods)
		if err != nil {
			t.Fatal(err)
		}
		f, err := accesscheck.ParseFormula(r.formula)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase{name: r.name, sch: sch, f: f})
	}
	return cases
}

// goldenRuns calls run once per entry of the golden grid: every corpus
// formula at one walker on every engine, under four option sets (a case
// marked once only on the auto engine under default options). name is the
// entry's name and opts its checker options.
func goldenRuns(t *testing.T, run func(name string, gc goldenCase, opts []accesscheck.Option)) {
	t.Helper()
	optionSets := []struct {
		name string
		opts []accesscheck.Option
	}{
		{"default", nil},
		{"grounded", []accesscheck.Option{accesscheck.WithGrounded()}},
		{"idempotent", []accesscheck.Option{accesscheck.WithIdempotentOnly()}},
		{"exact", []accesscheck.Option{accesscheck.WithAllExact()}},
	}
	engines := []accesscheck.Engine{
		accesscheck.EngineAuto, accesscheck.EngineX, accesscheck.EngineZeroAcc,
		accesscheck.EnginePlus, accesscheck.EngineBounded, accesscheck.EngineAutomaton,
	}
	for _, gc := range goldenCorpus(t) {
		for i, set := range optionSets {
			for j, eng := range engines {
				if gc.once && (i > 0 || j > 0) {
					continue
				}
				opts := append([]accesscheck.Option{accesscheck.WithParallelism(1), accesscheck.WithEngine(eng)}, set.opts...)
				opts = append(opts, gc.opts...)
				run(gc.name+"/"+set.name+"/"+eng.String(), gc, opts)
			}
		}
	}
}

// goldenEntries renders one line per golden run of accesscheck.Check: the
// verdict, Truncated, ResponsesCapped, the engine that ran and a 48-bit
// hash of the witness text, or "rejected" when the engine refused the
// formula.
func goldenEntries(t *testing.T) []string {
	t.Helper()
	var lines []string
	goldenRuns(t, func(name string, gc goldenCase, opts []accesscheck.Option) {
		res, err := accesscheck.Check(context.Background(), gc.sch, gc.f, opts...)
		if err != nil {
			lines = append(lines, name+" rejected")
			return
		}
		witness := ""
		if res.Witness != nil {
			witness = res.Witness.String()
		}
		sum := sha256.Sum256([]byte(witness))
		lines = append(lines, fmt.Sprintf("%s sat=%t truncated=%t capped=%t ran=%s witness=%x",
			name, res.Satisfiable, res.Truncated, res.ResponsesCapped, res.Engine, sum[:6]))
	})
	return lines
}

// TestGoldenVerdicts pins the verdicts the engines give a fixed corpus: any
// change that moves a verdict, its exactness, the engine auto dispatch
// picks or a one-walker witness fails here until the fingerprint scheme
// version moves with it, so no cache tier serves an answer the current
// code would not give. The digest is the SHA-256 of the entry lines, one
// per line; testdata/golden_verdicts.txt lists the pinned lines, and a
// failure prints every entry that differs from it.
func TestGoldenVerdicts(t *testing.T) {
	checkGolden(t, goldenEntries(t), goldenVerdictDigest, accesscheck.FingerprintSchemeVersion,
		"testdata/golden_verdicts.txt", "a verdict moved, so bump FingerprintSchemeVersion")
}

// checkGolden compares the SHA-256 of lines, one per line, with the digest
// pinned under version; on a mismatch it prints every entry that differs
// from file, which lists the pinned lines, and fails with the advice move.
func checkGolden(t *testing.T, lines []string, pinned map[string]string, version, file, move string) {
	t.Helper()
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n") + "\n"))
	digest := hex.EncodeToString(sum[:])
	want, ok := pinned[version]
	if ok && digest == want {
		return
	}
	old := map[string]string{}
	if data, err := os.ReadFile(file); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			name, _, _ := strings.Cut(line, " ")
			old[name] = line
		}
	}
	changed := 0
	for _, line := range lines {
		name, _, _ := strings.Cut(line, " ")
		if was := old[name]; was != line {
			changed++
			t.Logf("entry changed:\n  now %s\n  was %s", line, was)
		}
	}
	t.Fatalf("golden digest %s, pinned %q under %s (%d of %d entries differ from %s): "+
		"%s and pin the new digest and lines under it",
		digest, want, version, changed, len(lines), file, move)
}

// goldenPlanDigest pins TestGoldenPlans' digest under the fabric's wire
// version. A coordinator and its workers derive a check's plan and depth
// independently, and fabric.Merge refuses parts whose depths differ, so a
// change that moves a plan or a depth must move fabric.WireVersion too;
// then pin the new digest under it and update testdata/golden_plans.txt.
var goldenPlanDigest = map[string]string{
	"2": "72cbbc64861f09d5e28a69ec3c987c477f33a4390ebb4f956f455fa284094c8b",
}

// goldenPlanEntries renders one line per golden run: ShardPlan's shard
// count, its ResponsesCapped and a 48-bit hash of the (Index, Key,
// WholeAccess) list, or "plan=rejected" when planning failed; then the
// one-walker Check's Depth, or "depth=rejected" when the engine refused the
// formula.
func goldenPlanEntries(t *testing.T) []string {
	t.Helper()
	ctx := context.Background()
	var lines []string
	goldenRuns(t, func(name string, gc goldenCase, opts []accesscheck.Option) {
		chk, err := accesscheck.NewChecker(opts...)
		if err != nil {
			t.Fatal(err)
		}
		line := name
		if plan, capped, err := chk.ShardPlan(ctx, gc.sch, gc.f); err != nil {
			line += " plan=rejected"
		} else {
			h := sha256.New()
			for _, s := range plan {
				fmt.Fprintf(h, "%d %q %t\n", s.Index, s.Key, s.WholeAccess)
			}
			line += fmt.Sprintf(" shards=%d capped=%t plan=%x", len(plan), capped, h.Sum(nil)[:6])
		}
		if res, err := chk.Check(ctx, gc.sch, gc.f); err != nil {
			line += " depth=rejected"
		} else {
			line += fmt.Sprintf(" depth=%d", res.Depth)
		}
		lines = append(lines, line)
	})
	return lines
}

// TestGoldenPlans pins the shard plans and depth bounds the engines derive
// for the golden corpus: a change that moves a plan, its response cap or a
// check's depth fails here until fabric.WireVersion moves with it, so a
// coordinator never merges parts of workers that partition a check
// differently. The digest is the SHA-256 of the entry lines, one per line;
// testdata/golden_plans.txt lists the pinned lines.
func TestGoldenPlans(t *testing.T) {
	checkGolden(t, goldenPlanEntries(t), goldenPlanDigest, strconv.Itoa(fabric.WireVersion),
		"testdata/golden_plans.txt", "a plan or depth moved, so bump fabric.WireVersion")
}
