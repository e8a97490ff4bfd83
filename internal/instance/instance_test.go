package instance

import (
	"testing"
	"testing/quick"

	"accltl/internal/schema"
)

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s := schema.New()
	r := schema.MustRelation("R", schema.TypeInt, schema.TypeString)
	b := schema.MustRelation("B", schema.TypeBool)
	if err := s.AddRelation(r); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRelation(b); err != nil {
		t.Fatal(err)
	}
	if err := s.AddMethod(schema.MustAccessMethod("mR", r, 0)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestValueKindsAndAccessors(t *testing.T) {
	if Int(7).Kind() != schema.TypeInt || Int(7).AsInt() != 7 {
		t.Error("Int value wrong")
	}
	if Str("x").Kind() != schema.TypeString || Str("x").AsString() != "x" {
		t.Error("Str value wrong")
	}
	if Bool(true).Kind() != schema.TypeBool || !Bool(true).AsBool() {
		t.Error("Bool value wrong")
	}
}

func TestValueComparabilityAcrossKinds(t *testing.T) {
	if Int(0) == Str("") || Int(1) == Bool(true) {
		t.Error("values of different kinds compare equal")
	}
	if Int(3) != Int(3) {
		t.Error("equal ints not equal")
	}
}

func TestValueKeyUniqueness(t *testing.T) {
	vals := []Value{Int(0), Int(1), Int(-1), Str(""), Str("0"), Str("i0"), Bool(true), Bool(false)}
	seen := make(map[string]Value)
	for _, v := range vals {
		if prev, dup := seen[v.Key()]; dup {
			t.Errorf("key collision between %v and %v", prev, v)
		}
		seen[v.Key()] = v
	}
}

func TestValueLessTotalOrder(t *testing.T) {
	err := quick.Check(func(a, b int64) bool {
		x, y := Int(a), Int(b)
		// exactly one of <, =, > holds
		lt, gt, eq := x.Less(y), y.Less(x), x == y
		n := 0
		for _, c := range []bool{lt, gt, eq} {
			if c {
				n++
			}
		}
		return n == 1
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestTupleKeyEscaping(t *testing.T) {
	// Tuples whose naive concatenation would collide must have distinct keys.
	a := Tuple{Str("x\x1fy")}
	b := Tuple{Str("x"), Str("y")}
	if a.Key() == b.Key() {
		t.Error("tuple key collision through separator injection")
	}
}

// TestTupleKeyInjectiveOnSeparatorBytes: distinct tuples of one arity get
// distinct keys even when their string payloads hold the separator (0x1f)
// and the escape byte (0x1e) next to kind tags. It covers every pair of
// strings of length at most 3 over those two bytes and the tags 's' and
// 'i', plus the pair that collided when only 0x1f was escaped.
func TestTupleKeyInjectiveOnSeparatorBytes(t *testing.T) {
	a := Tuple{Str("a\x1e"), Str("b\x1fsc")}
	b := Tuple{Str("a\x1fsb\x1e"), Str("c")}
	if a.Key() == b.Key() {
		t.Fatalf("%q and %q share the key %q", a, b, a.Key())
	}
	strs := []string{""}
	for n, prev := 0, []string{""}; n < 3; n++ {
		var next []string
		for _, p := range prev {
			for _, c := range []string{"s", "i", "\x1e", "\x1f"} {
				next = append(next, p+c)
			}
		}
		strs, prev = append(strs, next...), next
	}
	vals := []Value{Int(0), Int(-1), Bool(true)}
	for _, s := range strs {
		vals = append(vals, Str(s))
	}
	seen := make(map[string]Tuple, len(vals)*len(vals))
	for _, x := range vals {
		for _, y := range vals {
			tu := Tuple{x, y}
			k := tu.Key()
			if prev, dup := seen[k]; dup {
				t.Fatalf("%q and %q share the key %q", prev, tu, k)
			}
			seen[k] = tu
			if got := string(tu.AppendKey([]byte("pre"))); got != "pre"+k {
				t.Fatalf("AppendKey(%q) = %q, want the prefix then Key %q", tu, got, k)
			}
		}
	}
}

// TestTupleKeyPlainBytesUnchanged pins the key of tuples without 0x1e or
// 0x1f in any string: shard keys, view digests and disk-tier keys are built
// from these bytes.
func TestTupleKeyPlainBytesUnchanged(t *testing.T) {
	got := Tuple{Int(-3), Str("x|y"), Bool(true), Bool(false), Str("")}.Key()
	if want := "i-3\x1fsx|y\x1fbT\x1fbF\x1fs"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
}

func TestTupleEqualCloneLess(t *testing.T) {
	a := Tuple{Int(1), Str("a")}
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b[0] = Int(2)
	if a.Equal(b) {
		t.Error("mutating clone affected original equality")
	}
	if !a.Less(b) {
		t.Error("1 < 2 expected")
	}
	if a.Less(a) {
		t.Error("irreflexive violated")
	}
	short := Tuple{Int(1)}
	if !short.Less(a) {
		t.Error("prefix should be less")
	}
}

func TestTupleWellTyped(t *testing.T) {
	r := schema.MustRelation("R", schema.TypeInt, schema.TypeString)
	if !(Tuple{Int(1), Str("a")}).WellTyped(r) {
		t.Error("well-typed tuple rejected")
	}
	if (Tuple{Str("a"), Str("b")}).WellTyped(r) {
		t.Error("ill-typed tuple accepted")
	}
	if (Tuple{Int(1)}).WellTyped(r) {
		t.Error("wrong arity accepted")
	}
}

func TestInstanceAddHasCount(t *testing.T) {
	s := testSchema(t)
	in := NewInstance(s)
	added, err := in.Add("R", Tuple{Int(1), Str("a")})
	if err != nil || !added {
		t.Fatalf("Add: %v added=%v", err, added)
	}
	added, err = in.Add("R", Tuple{Int(1), Str("a")})
	if err != nil || added {
		t.Error("duplicate add reported as new")
	}
	if !in.Has("R", Tuple{Int(1), Str("a")}) {
		t.Error("Has missed present tuple")
	}
	if in.Has("R", Tuple{Int(2), Str("a")}) {
		t.Error("Has found absent tuple")
	}
	if in.Count("R") != 1 || in.Size() != 1 {
		t.Error("counts wrong")
	}
}

func TestInstanceAddErrors(t *testing.T) {
	s := testSchema(t)
	in := NewInstance(s)
	if _, err := in.Add("Nope", Tuple{Int(1)}); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := in.Add("R", Tuple{Str("a"), Int(1)}); err == nil {
		t.Error("ill-typed tuple accepted")
	}
}

func TestInstanceAddInsertsCopy(t *testing.T) {
	s := testSchema(t)
	in := NewInstance(s)
	tup := Tuple{Int(1), Str("a")}
	if _, err := in.Add("R", tup); err != nil {
		t.Fatal(err)
	}
	tup[0] = Int(99)
	if !in.Has("R", Tuple{Int(1), Str("a")}) {
		t.Error("instance shares storage with caller tuple")
	}
}

func TestInstanceCloneIndependence(t *testing.T) {
	s := testSchema(t)
	in := NewInstance(s)
	in.MustAdd("R", Int(1), Str("a"))
	cp := in.Clone()
	cp.MustAdd("R", Int(2), Str("b"))
	if in.Count("R") != 1 || cp.Count("R") != 2 {
		t.Error("clone not independent")
	}
	if !cp.Contains(in) || in.Contains(cp) {
		t.Error("containment after clone wrong")
	}
}

func TestInstanceUnionWith(t *testing.T) {
	s := testSchema(t)
	a := NewInstance(s)
	b := NewInstance(s)
	a.MustAdd("R", Int(1), Str("a"))
	b.MustAdd("R", Int(2), Str("b"))
	b.MustAdd("B", Bool(true))
	if err := a.UnionWith(b); err != nil {
		t.Fatal(err)
	}
	if a.Size() != 3 {
		t.Errorf("union size = %d, want 3", a.Size())
	}
	other := NewInstance(testSchema(t))
	if err := a.UnionWith(other); err == nil {
		t.Error("cross-schema union accepted")
	}
}

func TestInstanceEqualAndFingerprint(t *testing.T) {
	s := testSchema(t)
	a := NewInstance(s)
	b := NewInstance(s)
	a.MustAdd("R", Int(1), Str("a"))
	a.MustAdd("R", Int(2), Str("b"))
	b.MustAdd("R", Int(2), Str("b"))
	b.MustAdd("R", Int(1), Str("a"))
	if !a.Equal(b) {
		t.Error("insertion order affected equality")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprints differ for equal instances")
	}
	b.MustAdd("B", Bool(false))
	if a.Equal(b) || a.Fingerprint() == b.Fingerprint() {
		t.Error("unequal instances compare equal")
	}
}

func TestInstanceActiveDomain(t *testing.T) {
	s := testSchema(t)
	in := NewInstance(s)
	in.MustAdd("R", Int(1), Str("a"))
	in.MustAdd("R", Int(1), Str("b"))
	dom := in.ActiveDomain()
	if len(dom) != 3 {
		t.Errorf("active domain = %v, want 3 values", dom)
	}
	if !in.HasValue(Int(1)) || in.HasValue(Int(2)) {
		t.Error("HasValue wrong")
	}
}

func TestInstanceMatching(t *testing.T) {
	s := testSchema(t)
	m, _ := s.Method("mR")
	in := NewInstance(s)
	in.MustAdd("R", Int(1), Str("a"))
	in.MustAdd("R", Int(1), Str("b"))
	in.MustAdd("R", Int(2), Str("c"))
	got := in.Matching(m, Tuple{Int(1)})
	if len(got) != 2 {
		t.Errorf("Matching returned %d tuples, want 2", len(got))
	}
	if got := in.Matching(m, Tuple{Int(9)}); len(got) != 0 {
		t.Errorf("Matching on absent key returned %v", got)
	}
}

func TestInstanceTuplesSorted(t *testing.T) {
	s := testSchema(t)
	in := NewInstance(s)
	in.MustAdd("R", Int(2), Str("b"))
	in.MustAdd("R", Int(1), Str("a"))
	ts := in.Tuples("R")
	if len(ts) != 2 || !ts[0].Less(ts[1]) {
		t.Errorf("Tuples not sorted: %v", ts)
	}
}

func TestInstanceContainsEmpty(t *testing.T) {
	s := testSchema(t)
	in := NewInstance(s)
	if !in.Contains(NewInstance(s)) || !in.Contains(nil) {
		t.Error("empty/nil containment wrong")
	}
	if !in.IsEmpty() {
		t.Error("fresh instance not empty")
	}
}

func TestPropertyUnionMonotone(t *testing.T) {
	// Property: after a.UnionWith(b), a contains both originals.
	s := testSchema(t)
	err := quick.Check(func(xs, ys []int8) bool {
		a, b := NewInstance(s), NewInstance(s)
		for _, x := range xs {
			a.MustAdd("R", Int(int64(x)), Str("t"))
		}
		for _, y := range ys {
			b.MustAdd("R", Int(int64(y)), Str("t"))
		}
		before := a.Clone()
		if err := a.UnionWith(b); err != nil {
			return false
		}
		return a.Contains(before) && a.Contains(b)
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

// recomputeHash rebuilds the fingerprint from scratch: the ground truth the
// incremental maintenance in Add/Remove must match at every point.
func recomputeHash(in *Instance) Hash {
	var h Hash
	for _, rel := range []string{"R", "B"} {
		for _, t := range in.Tuples(rel) {
			th := tupleHash(rel, t.Key())
			h.A += th.A
			h.B += th.B
		}
	}
	return h
}

// TestHashMatchesCanonicalFingerprint drives a randomized add/remove
// schedule and checks, after every mutation, that the O(1) incremental Hash
// agrees with a from-scratch recomputation and stays in lockstep with the
// canonical Fingerprint string (equal fingerprints ⇔ equal hashes).
func TestHashMatchesCanonicalFingerprint(t *testing.T) {
	s := testSchema(t)
	in := NewInstance(s)
	if in.Hash() != (Hash{}) {
		t.Fatalf("empty instance hash = %+v, want zero", in.Hash())
	}
	byFingerprint := map[string]Hash{}
	// A fixed pseudo-random schedule (xorshift) of adds and removes over a
	// small tuple space, so collisions between states are frequent.
	seed := uint64(0x2545F4914F6CDD1D)
	next := func(n int) int {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return int(seed % uint64(n))
	}
	tuples := []Tuple{
		{Int(1), Str("a")}, {Int(1), Str("b")}, {Int(2), Str("a")},
		{Int(2), Str("b")}, {Int(3), Str("c")},
	}
	for step := 0; step < 2000; step++ {
		tu := tuples[next(len(tuples))]
		if next(2) == 0 {
			if _, err := in.Add("R", tu); err != nil {
				t.Fatal(err)
			}
		} else {
			in.Remove("R", tu)
		}
		if next(3) == 0 {
			in.MustAdd("B", Bool(next(2) == 0))
		}
		if got, want := in.Hash(), recomputeHash(in); got != want {
			t.Fatalf("step %d: incremental hash %+v diverged from recomputed %+v", step, got, want)
		}
		fp := in.Fingerprint()
		if prev, ok := byFingerprint[fp]; ok && prev != in.Hash() {
			t.Fatalf("step %d: same canonical fingerprint, different hashes (%+v vs %+v)", step, prev, in.Hash())
		}
		byFingerprint[fp] = in.Hash()
	}
	// Distinct fingerprints must have produced distinct hashes.
	seen := map[Hash]string{}
	for fp, h := range byFingerprint {
		if prev, ok := seen[h]; ok && prev != fp {
			t.Fatalf("hash collision between %q and %q", prev, fp)
		}
		seen[h] = fp
	}
}

// TestHashOrderIndependence: permuted insertion orders land on the same
// hash, and Clone carries the hash along.
func TestHashOrderIndependence(t *testing.T) {
	s := testSchema(t)
	a, b := NewInstance(s), NewInstance(s)
	a.MustAdd("R", Int(1), Str("x"))
	a.MustAdd("R", Int(2), Str("y"))
	a.MustAdd("B", Bool(true))
	b.MustAdd("B", Bool(true))
	b.MustAdd("R", Int(2), Str("y"))
	b.MustAdd("R", Int(1), Str("x"))
	if a.Hash() != b.Hash() {
		t.Errorf("same contents, different hashes: %+v vs %+v", a.Hash(), b.Hash())
	}
	if a.Clone().Hash() != a.Hash() {
		t.Error("Clone changed the hash")
	}
	// Add + Remove round-trips to the exact prior hash.
	h := a.Hash()
	if fresh, _ := a.Add("R", Tuple{Int(9), Str("z")}); !fresh {
		t.Fatal("tuple not fresh")
	}
	if a.Hash() == h {
		t.Error("add did not change the hash")
	}
	if !a.Remove("R", Tuple{Int(9), Str("z")}) {
		t.Fatal("remove failed")
	}
	if a.Hash() != h {
		t.Errorf("add/remove did not restore the hash: %+v vs %+v", a.Hash(), h)
	}
	// Removing an absent tuple is a no-op.
	if a.Remove("R", Tuple{Int(42), Str("nope")}) || a.Hash() != h {
		t.Error("removing an absent tuple changed state")
	}
}

// TestRemoveAgainstAddNewness: the (Add newness, Remove) pair is exactly the
// undo protocol the LTS explorer relies on.
func TestRemoveAgainstAddNewness(t *testing.T) {
	s := testSchema(t)
	in := NewInstance(s)
	in.MustAdd("R", Int(1), Str("pre"))
	before := in.Fingerprint()
	resp := []Tuple{{Int(1), Str("pre")}, {Int(7), Str("new")}}
	var added []Tuple
	for _, tu := range resp {
		fresh, err := in.Add("R", tu)
		if err != nil {
			t.Fatal(err)
		}
		if fresh {
			added = append(added, tu)
		}
	}
	if len(added) != 1 {
		t.Fatalf("expected 1 fresh tuple, got %d", len(added))
	}
	for _, tu := range added {
		if !in.Remove("R", tu) {
			t.Fatal("undo failed")
		}
	}
	if in.Fingerprint() != before {
		t.Errorf("undo did not restore the instance: %s vs %s", in.Fingerprint(), before)
	}
}
