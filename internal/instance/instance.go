package instance

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"accltl/internal/schema"
)

// Tuple is an ordered list of values: one tuple of a relation.
type Tuple []Value

// Key returns a canonical string key for the tuple, usable in map keys: the
// bytes AppendKey writes.
func (t Tuple) Key() string {
	var buf [64]byte
	return string(t.AppendKey(buf[:0]))
}

// AppendKey appends the tuple's canonical key to b and returns the extended
// buffer. The key is injective: each component is its value's kind tag and
// payload (see Value.Key), components are separated by 0x1f, and inside a
// string payload both 0x1f and the escape byte 0x1e are preceded by 0x1e,
// so a reader can always tell a separator from payload. Strings holding
// neither byte are copied verbatim.
func (t Tuple) AppendKey(b []byte) []byte {
	for i, v := range t {
		if i > 0 {
			b = append(b, 0x1f)
		}
		switch v.kind {
		case schema.TypeInt:
			b = strconv.AppendInt(append(b, 'i'), v.i, 10)
		case schema.TypeString:
			b = append(b, 's')
			s := v.s
			for j := 0; j < len(s); j++ {
				if c := s[j]; c == 0x1e || c == 0x1f {
					b = append(b, s[:j]...)
					b = append(b, 0x1e, c)
					s, j = s[j+1:], -1
				}
			}
			b = append(b, s...)
		default:
			b = append(b, v.Key()...)
		}
	}
	return b
}

// Equal reports component-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Less imposes a total lexicographic order on tuples.
func (t Tuple) Less(u Tuple) bool {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if t[i] != u[i] {
			return t[i].Less(u[i])
		}
	}
	return len(t) < len(u)
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	cp := make(Tuple, len(t))
	copy(cp, t)
	return cp
}

// String renders the tuple as (v0,v1,...).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// WellTyped reports whether the tuple conforms to the relation's position types.
func (t Tuple) WellTyped(r *schema.Relation) bool {
	if len(t) != r.Arity() {
		return false
	}
	for i, v := range t {
		if v.Kind() != r.TypeAt(i) {
			return false
		}
	}
	return true
}

// Hash is a 128-bit order-independent fingerprint of an instance's contents:
// the component-wise sum (mod 2^64) of one mixed hash per (relation, tuple)
// pair. Summation is commutative and invertible, so the Instance can keep it
// incrementally up to date in O(1) per Add/Remove, whatever the order tuples
// arrive or leave in. Two 64-bit lanes with independent mixes push the
// collision probability for the instance populations seen during exploration
// (≪ 2^32 distinct configurations) far below anything a search could hit.
// The canonical string form (Fingerprint) remains as the debug/cross-check
// path; TestHashMatchesCanonicalFingerprint pins the invariant
//
//	a.Hash() == b.Hash()  ⇔  a.Fingerprint() == b.Fingerprint()
//
// over randomized add/remove schedules.
type Hash struct{ A, B uint64 }

// tupleHash derives the two-lane contribution of one (relation, tuple) pair.
func tupleHash(rel, tupleKey string) Hash {
	// FNV-1a over rel \x00 key, then two independent splitmix64 finalizers:
	// the raw FNV value keeps enough entropy, the finalizers decorrelate the
	// lanes and destroy FNV's additive structure before the outer summation.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(rel); i++ {
		h = (h ^ uint64(rel[i])) * prime64
	}
	h = (h ^ 0) * prime64
	for i := 0; i < len(tupleKey); i++ {
		h = (h ^ uint64(tupleKey[i])) * prime64
	}
	return Hash{A: splitmix64(h), B: splitmix64(h ^ 0x9e3779b97f4a7c15)}
}

// splitmix64 is the SplitMix64 finalizer: a bijective mixer with full
// avalanche, the standard way to turn a structured 64-bit value into one
// safe to combine linearly.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Instance is a finite collection of tuples per relation name. The zero
// value is not usable; call NewInstance. Instances are value-semantics-ish:
// mutating methods modify in place, Clone copies deeply.
//
// Invariant (incremental fingerprint): hash always equals the sum of
// tupleHash(rel, key) over every (rel, key) currently stored. Every code
// path that inserts into or deletes from rels — Add/AddKeyed and
// Remove/RemoveKeyed are the only four — must update hash in the same step;
// Clone copies it. Hash() is therefore O(1) where Fingerprint() is
// O(n log n).
type Instance struct {
	sch  *schema.Schema
	rels map[string]map[string]Tuple // relation name -> tuple key -> tuple
	hash Hash
}

// NewInstance returns an empty instance over the schema.
func NewInstance(sch *schema.Schema) *Instance {
	return &Instance{sch: sch, rels: make(map[string]map[string]Tuple)}
}

// Schema returns the schema of the instance.
func (in *Instance) Schema() *schema.Schema { return in.sch }

// Add inserts a tuple into relation rel. It validates arity and types.
// Adding an existing tuple is a no-op. It reports whether the tuple was new.
func (in *Instance) Add(rel string, t Tuple) (bool, error) {
	r, ok := in.sch.Relation(rel)
	if !ok {
		return false, fmt.Errorf("instance: unknown relation %s", rel)
	}
	if !t.WellTyped(r) {
		return false, fmt.Errorf("instance: tuple %s ill-typed for relation %s", t, r)
	}
	m := in.rels[rel]
	if m == nil {
		m = make(map[string]Tuple)
		in.rels[rel] = m
	}
	k := t.Key()
	if _, dup := m[k]; dup {
		return false, nil
	}
	m[k] = t.Clone()
	th := tupleHash(rel, k)
	in.hash.A += th.A
	in.hash.B += th.B
	return true, nil
}

// Remove deletes tuple t from relation rel, reporting whether it was
// present. Removing an absent tuple is a no-op. Together with Add's newness
// report it supports mutate-and-undo exploration: record which Adds were
// new, Remove exactly those on backtrack, and the instance (including its
// incremental Hash) is restored bit for bit.
func (in *Instance) Remove(rel string, t Tuple) bool {
	m := in.rels[rel]
	if m == nil {
		return false
	}
	k := t.Key()
	if _, ok := m[k]; !ok {
		return false
	}
	delete(m, k)
	th := tupleHash(rel, k)
	in.hash.A -= th.A
	in.hash.B -= th.B
	return true
}

// Hash returns the incrementally maintained order-independent fingerprint of
// the instance contents in O(1). Equal instances have equal hashes; distinct
// instances collide with negligible probability (see Hash). Exploration-time
// dedup and memoization key on it instead of the canonical Fingerprint
// string.
func (in *Instance) Hash() Hash { return in.hash }

// AddKeyed is Add for trusted hot paths: no arity/type validation, no
// defensive tuple clone, no key rebuild. The caller promises that key equals
// t.Key(), that t conforms to relation rel of the schema, and that t is
// never mutated afterwards (ownership transfers; the LTS explorer passes
// universe-owned tuples, immutable for the whole exploration, with keys
// computed once per universe). The incremental-fingerprint invariant is
// maintained exactly as in Add. Reports whether the tuple was new.
func (in *Instance) AddKeyed(rel string, t Tuple, key string) bool {
	m := in.rels[rel]
	if m == nil {
		m = make(map[string]Tuple)
		in.rels[rel] = m
	}
	if _, dup := m[key]; dup {
		return false
	}
	m[key] = t
	th := tupleHash(rel, key)
	in.hash.A += th.A
	in.hash.B += th.B
	return true
}

// RemoveKeyed is Remove with the canonical key already in hand: the undo
// partner of AddKeyed. Reports whether a tuple was removed.
func (in *Instance) RemoveKeyed(rel, key string) bool {
	m := in.rels[rel]
	if m == nil {
		return false
	}
	if _, ok := m[key]; !ok {
		return false
	}
	delete(m, key)
	th := tupleHash(rel, key)
	in.hash.A -= th.A
	in.hash.B -= th.B
	return true
}

// MustAdd is Add that panics on error; for tests and statically known data.
func (in *Instance) MustAdd(rel string, vals ...Value) {
	if _, err := in.Add(rel, Tuple(vals)); err != nil {
		panic(err)
	}
}

// Has reports whether relation rel contains tuple t.
func (in *Instance) Has(rel string, t Tuple) bool {
	m := in.rels[rel]
	if m == nil {
		return false
	}
	_, ok := m[t.Key()]
	return ok
}

// Tuples returns the tuples of relation rel in deterministic (sorted) order.
func (in *Instance) Tuples(rel string) []Tuple {
	m := in.rels[rel]
	if len(m) == 0 {
		return nil
	}
	out := make([]Tuple, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Count returns the number of tuples in relation rel.
func (in *Instance) Count(rel string) int { return len(in.rels[rel]) }

// Size returns the total number of tuples across all relations.
func (in *Instance) Size() int {
	n := 0
	for _, m := range in.rels {
		n += len(m)
	}
	return n
}

// IsEmpty reports whether the instance has no tuples at all.
func (in *Instance) IsEmpty() bool { return in.Size() == 0 }

// Clone returns a deep copy.
func (in *Instance) Clone() *Instance {
	cp := NewInstance(in.sch)
	for rel, m := range in.rels {
		nm := make(map[string]Tuple, len(m))
		for k, t := range m {
			nm[k] = t.Clone()
		}
		cp.rels[rel] = nm
	}
	cp.hash = in.hash
	return cp
}

// UnionWith adds every tuple of other into the receiver. The instances must
// share the same schema value.
func (in *Instance) UnionWith(other *Instance) error {
	if other == nil {
		return nil
	}
	if other.sch != in.sch {
		return fmt.Errorf("instance: UnionWith across different schemas")
	}
	for rel, m := range other.rels {
		for _, t := range m {
			if _, err := in.Add(rel, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// Contains reports whether every tuple of other is present in the receiver
// (subinstance test: other ⊆ in).
func (in *Instance) Contains(other *Instance) bool {
	if other == nil {
		return true
	}
	for rel, m := range other.rels {
		mine := in.rels[rel]
		for k := range m {
			if _, ok := mine[k]; !ok {
				return false
			}
		}
	}
	return true
}

// Equal reports whether both instances hold exactly the same tuples.
func (in *Instance) Equal(other *Instance) bool {
	return in.Contains(other) && other.Contains(in)
}

// ActiveDomain returns every value occurring in any tuple, deduplicated and
// sorted by Value.Less.
func (in *Instance) ActiveDomain() []Value {
	seen := make(map[Value]bool)
	var out []Value
	for _, m := range in.rels {
		for _, t := range m {
			for _, v := range t {
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// HasValue reports whether v occurs anywhere in the instance.
func (in *Instance) HasValue(v Value) bool {
	for _, m := range in.rels {
		for _, t := range m {
			for _, w := range t {
				if w == v {
					return true
				}
			}
		}
	}
	return false
}

// Matching returns the tuples of method m's relation that agree with the
// binding on m's input positions: the *exact* well-formed response to the
// access (m, binding) on this instance.
func (in *Instance) Matching(m *schema.AccessMethod, binding Tuple) []Tuple {
	inputs := m.Inputs()
	var out []Tuple
	for _, t := range in.Tuples(m.Relation().Name()) {
		ok := true
		for bi, p := range inputs {
			if t[p] != binding[bi] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, t)
		}
	}
	return out
}

// Fingerprint returns a canonical string identifying the instance contents.
// It is the collision-free (and O(n log n)) counterpart of Hash: the hot
// exploration paths dedup on Hash, and tests cross-check the two. Keep using
// Fingerprint where a printable or persistent identity is needed (debugging,
// golden files, cross-process keys).
func (in *Instance) Fingerprint() string {
	rels := make([]string, 0, len(in.rels))
	for rel, m := range in.rels {
		if len(m) > 0 {
			rels = append(rels, rel)
		}
	}
	sort.Strings(rels)
	var b strings.Builder
	for _, rel := range rels {
		b.WriteString(rel)
		b.WriteByte('{')
		for _, t := range in.Tuples(rel) {
			b.WriteString(t.Key())
			b.WriteByte(';')
		}
		b.WriteByte('}')
	}
	return b.String()
}

// String renders the instance sorted by relation then tuple.
func (in *Instance) String() string {
	rels := make([]string, 0, len(in.rels))
	for rel, m := range in.rels {
		if len(m) > 0 {
			rels = append(rels, rel)
		}
	}
	sort.Strings(rels)
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, rel := range rels {
		for _, t := range in.Tuples(rel) {
			if !first {
				b.WriteString(", ")
			}
			first = false
			b.WriteString(rel)
			b.WriteString(t.String())
		}
	}
	b.WriteByte('}')
	return b.String()
}
