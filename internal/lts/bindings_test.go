package lts

// Equivalence of the binding enumeration with its earlier form. The
// explorer builds each method's candidate accesses by mixed radix over a
// pool split by datatype once per pool version, keys them through
// Access.AppendKey, and no longer validates them with access.NewAccess.
// refBindings below is the earlier construction, kept as the
// specification: the pool rebuilt and split for every method, the typed
// product built by recursion, every candidate validated by
// access.NewAccess (dropping type mismatches) and keyed by Access.Key.
// Candidate lists must agree in order, bindings and keys, and the plan's
// shard descriptors must agree with an enumeration built on refBindings.

import (
	"errors"
	"fmt"
	"testing"

	"accltl/internal/access"
	"accltl/internal/instance"
	"accltl/internal/schema"
)

// refBindings is the earlier explorer.bindings, uncached.
func refBindings(t *testing.T, e *explorer, m *schema.AccessMethod) []boundAccess {
	t.Helper()
	pool := e.bindingPool()
	types := m.InputTypes()
	var bas []boundAccess
	add := func(b instance.Tuple) {
		acc, err := access.NewAccess(m, b)
		if err != nil {
			if errors.Is(err, access.ErrTypeMismatch) {
				return
			}
			t.Fatal(err)
		}
		bas = append(bas, boundAccess{acc: acc, key: acc.Key()})
	}
	if len(types) == 0 {
		add(instance.Tuple{})
		return bas
	}
	byType := make(map[schema.Type][]instance.Value)
	for _, v := range pool {
		byType[v.Kind()] = append(byType[v.Kind()], v)
	}
	cur := make(instance.Tuple, len(types))
	var build func(i int)
	build = func(i int) {
		if i == len(types) {
			add(cur)
			return
		}
		for _, v := range byType[types[i]] {
			cur[i] = v
			build(i + 1)
		}
	}
	build(0)
	return bas
}

// sameBindings reports the first difference between two candidate lists.
func sameBindings(got, want []boundAccess) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.acc.Method != w.acc.Method || !g.acc.Binding.Equal(w.acc.Binding) || g.key != w.key {
			return fmt.Errorf("candidate %d is %s (key %q), want %s (key %q)", i, g.acc, g.key, w.acc, w.key)
		}
		if g.key != g.acc.Key() {
			return fmt.Errorf("candidate %d: cached key %q, Access.Key %q", i, g.key, g.acc.Key())
		}
	}
	return nil
}

// mixedSchema has int, string and bool inputs: a zero-input method, one-
// and two-input methods and a three-input one.
func mixedSchema(t *testing.T) *schema.Schema {
	t.Helper()
	p := schema.MustRelation("P", schema.TypeInt)
	q := schema.MustRelation("Q", schema.TypeInt, schema.TypeString)
	b := schema.MustRelation("B", schema.TypeBool, schema.TypeString)
	w := schema.MustRelation("W", schema.TypeString, schema.TypeBool, schema.TypeInt)
	s := schema.New()
	for _, err := range []error{
		s.AddRelation(p), s.AddRelation(q), s.AddRelation(b), s.AddRelation(w),
		s.AddMethod(schema.MustAccessMethod("scanP", p)),
		s.AddMethod(schema.MustAccessMethod("qByInt", q, 0)),
		s.AddMethod(schema.MustAccessMethod("qByBoth", q, 0, 1)),
		s.AddMethod(schema.MustAccessMethod("bByFlag", b, 0)),
		s.AddMethod(schema.MustAccessMethod("wByAll", w, 0, 1, 2)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func mixedUniverse(t *testing.T, s *schema.Schema) *instance.Instance {
	t.Helper()
	u := instance.NewInstance(s)
	u.MustAdd("P", instance.Int(1))
	u.MustAdd("P", instance.Int(2))
	u.MustAdd("Q", instance.Int(1), instance.Str("a"))
	u.MustAdd("Q", instance.Int(2), instance.Str("b|c"))
	u.MustAdd("B", instance.Bool(true), instance.Str("a"))
	u.MustAdd("W", instance.Str("b|c"), instance.Bool(false), instance.Int(3))
	return u
}

// mixedCases are the option cells of the mixed schema: non-grounded with
// extra binding values (one pool for the whole walk), and grounded from a
// seed (the pool grows as responses reveal values).
func mixedCases(t *testing.T, s *schema.Schema) []equivCase {
	t.Helper()
	u := mixedUniverse(t, s)
	seed := instance.NewInstance(s)
	seed.MustAdd("P", instance.Int(1))
	extra := []instance.Value{instance.Int(99), instance.Str("zz"), instance.Bool(true), instance.Str("a")}
	return []equivCase{
		{"plain/extra", Options{Universe: u, MaxDepth: 2, ExtraBindingValues: extra}},
		{"grounded/seed", Options{Universe: u, MaxDepth: 3, GroundedOnly: true, Initial: seed, ExtraBindingValues: extra}},
		{"grounded/idempotent", Options{Universe: u, MaxDepth: 3, GroundedOnly: true, IdempotentOnly: true, Initial: seed}},
	}
}

// TestBindingsMatchReference compares every method's candidates with
// refBindings at the root and at every prefix of a whole walk, so a
// grounded walk compares them over every pool version it reaches.
func TestBindingsMatchReference(t *testing.T) {
	s := mixedSchema(t)
	for _, c := range mixedCases(t, s) {
		t.Run(c.name, func(t *testing.T) {
			plan, err := NewPlan(s, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			init := initialOf(s, plan.opts)
			e := plan.rootExplorer(plan.opts, init)
			e.shared = &shardCoord{}
			e.path, e.pre, e.post = access.NewPath(s), init.Clone(), init.Clone()
			pools := make(map[int]bool)
			compare := func(where string) {
				pools[len(e.bindingPool())] = true
				for _, m := range s.Methods() {
					if err := sameBindings(e.bindings(m), refBindings(t, e, m)); err != nil {
						t.Fatalf("%s, method %s, pool version %d: %v", where, m.Name(), e.poolVersion, err)
					}
				}
			}
			compare("root")
			visits := 0
			e.visit = func(p *access.Path, _, _ *instance.Instance) (bool, error) {
				visits++
				compare(p.String())
				return true, nil
			}
			for i := range plan.shards {
				if err := e.stepShard(&plan.shards[i]); err != nil {
					t.Fatal(err)
				}
			}
			if visits < 20 {
				t.Fatalf("walk too small to be meaningful: %d visits", visits)
			}
			if c.opts.GroundedOnly && len(pools) < 3 {
				t.Fatalf("grounded walk saw %d pool sizes, want the pool to grow", len(pools))
			}
		})
	}
}

// refShardIDs enumerates the root partition the earlier way: refBindings
// at the root pool, every response materialized, and keys built as
// Access.Key, then 0x1e and access.ResponseFingerprint.
func refShardIDs(t *testing.T, s *schema.Schema, opts Options) []ShardID {
	t.Helper()
	o, err := opts.prepare("refShardIDs")
	if err != nil {
		t.Fatal(err)
	}
	e := newExplorer(s, o)
	for _, v := range initialOf(s, o).ActiveDomain() {
		e.known[v] = true
	}
	ref := &refExplorer{sch: s, opts: o}
	var ids []ShardID
	for _, m := range s.Methods() {
		for _, ba := range refBindings(t, e, m) {
			resps := ref.responses(ba.acc)
			exact := e.exact(m)
			if n := len(o.Universe.Matching(m, ba.acc.Binding)); !exact && min(n, o.MaxResponseChoices) > 8 {
				ids = append(ids, ShardID{Index: len(ids), Key: ba.key, WholeAccess: true})
				continue
			}
			for _, resp := range resps {
				ids = append(ids, ShardID{Index: len(ids), Key: ba.key + "\x1e" + access.ResponseFingerprint(resp)})
			}
		}
	}
	return ids
}

// TestPlanIDsMatchReference demands the plan's descriptors — order, index,
// key and whole-access flag — equal the earlier enumeration's, across the
// option grid and the mixed schema's cells.
func TestPlanIDsMatchReference(t *testing.T) {
	run := func(t *testing.T, s *schema.Schema, c equivCase) {
		t.Run(c.name, func(t *testing.T) {
			plan, err := NewPlan(s, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			got, want := plan.IDs(), refShardIDs(t, s, c.opts)
			if len(got) != len(want) {
				t.Fatalf("%d shards, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shard %d is %+v, want %+v", i, got[i], want[i])
				}
			}
		})
	}
	tiny := tinySchema(t)
	for _, c := range equivalenceGrid(t, tiny) {
		run(t, tiny, c)
	}
	mixed := mixedSchema(t)
	for _, c := range mixedCases(t, mixed) {
		run(t, mixed, c)
	}
	// A subset fan-out of 2^9 responses becomes one whole-access shard.
	big := mixedUniverse(t, mixed)
	for i := 10; i < 19; i++ {
		big.MustAdd("P", instance.Int(int64(i)))
	}
	run(t, mixed, equivCase{"whole-access", Options{Universe: big, MaxDepth: 1, MaxResponseChoices: 10}})
}
