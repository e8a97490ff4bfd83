// Package access implements accesses, responses and access paths over a
// schema with access restrictions (Section 2 of the paper), together with
// the path sanity conditions — groundedness, idempotence and (S-)exactness —
// and the Sch_Acc relational structures that each transition of a path
// induces for the logics of the paper.
package access

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"accltl/internal/instance"
	"accltl/internal/schema"
)

// ErrTypeMismatch marks a NewAccess rejection caused by a binding value of
// the wrong datatype for its input position, so a loop that pairs candidate
// values with methods can skip it as expected; every other NewAccess error
// is a real fault and must propagate.
var ErrTypeMismatch = errors.New("binding value type mismatch")

// Access is an access method together with a binding for its input
// positions: one lookup against the data source.
type Access struct {
	Method  *schema.AccessMethod
	Binding instance.Tuple // one value per input position, in position order
}

// NewAccess validates the binding against the method's input types.
func NewAccess(m *schema.AccessMethod, binding instance.Tuple) (Access, error) {
	if m == nil {
		return Access{}, fmt.Errorf("access: nil method")
	}
	if len(binding) != m.NumInputs() {
		return Access{}, fmt.Errorf("access: method %s expects %d inputs, got %d",
			m.Name(), m.NumInputs(), len(binding))
	}
	for i, ty := range m.InputTypes() {
		if binding[i].Kind() != ty {
			return Access{}, fmt.Errorf("access: method %s input %d: value %s has type %s, want %s: %w",
				m.Name(), i, binding[i], binding[i].Kind(), ty, ErrTypeMismatch)
		}
	}
	return Access{Method: m, Binding: binding.Clone()}, nil
}

// MustAccess is NewAccess that panics on error.
func MustAccess(m *schema.AccessMethod, vals ...instance.Value) Access {
	a, err := NewAccess(m, instance.Tuple(vals))
	if err != nil {
		panic(err)
	}
	return a
}

// String renders the access in the paper's notation, e.g.
// Mobile#("Jones",?,?,?) for a method with input position 0.
func (a Access) String() string {
	rel := a.Method.Relation()
	parts := make([]string, rel.Arity())
	bi := 0
	for p := 0; p < rel.Arity(); p++ {
		if a.Method.IsInput(p) {
			parts[p] = a.Binding[bi].String()
			bi++
		} else {
			parts[p] = "?"
		}
	}
	return fmt.Sprintf("%s[%s](%s)", rel.Name(), a.Method.Name(), strings.Join(parts, ","))
}

// Key returns a canonical identity for the access (method + binding),
// used for idempotence checks: the bytes AppendKey writes.
func (a Access) Key() string {
	var buf [64]byte
	return string(a.AppendKey(buf[:0]))
}

// AppendKey appends the access's canonical key to b: the method name, '|',
// and the binding's instance.Tuple key.
func (a Access) AppendKey(b []byte) []byte {
	b = append(b, a.Method.Name()...)
	return a.Binding.AppendKey(append(b, '|'))
}

// WellFormedResponse reports whether the set of tuples is a well-formed
// output for the access: every tuple belongs to the method's relation
// (arity+types) and agrees with the binding on the input positions.
func (a Access) WellFormedResponse(resp []instance.Tuple) error {
	rel := a.Method.Relation()
	inputs := a.Method.Inputs()
	for _, t := range resp {
		if !t.WellTyped(rel) {
			return fmt.Errorf("access: response tuple %s ill-typed for %s", t, rel)
		}
		for bi, p := range inputs {
			if t[p] != a.Binding[bi] {
				return fmt.Errorf("access: response tuple %s disagrees with binding at position %d", t, p)
			}
		}
	}
	return nil
}

// Step is one access together with its response: one element of an access
// path.
type Step struct {
	Access   Access
	Response []instance.Tuple
}

// String renders the step.
func (s Step) String() string {
	parts := make([]string, len(s.Response))
	for i, t := range s.Response {
		parts[i] = t.String()
	}
	return s.Access.String() + " -> {" + strings.Join(parts, ",") + "}"
}

// Path is an access path: a sequence of accesses and well-formed responses.
// Every such sequence is an access path for *some* instance (the instance
// containing all returned tuples), so Path carries no instance reference.
type Path struct {
	sch   *schema.Schema
	steps []Step
}

// NewPath returns an empty path over the schema.
func NewPath(sch *schema.Schema) *Path {
	return &Path{sch: sch}
}

// Schema returns the path's schema.
func (p *Path) Schema() *schema.Schema { return p.sch }

// Len returns the number of steps.
func (p *Path) Len() int { return len(p.steps) }

// Step returns the i-th step.
func (p *Path) Step(i int) Step { return p.steps[i] }

// Steps returns the steps slice (shared; callers must not mutate).
func (p *Path) Steps() []Step { return p.steps }

// Append validates and appends an access/response pair.
func (p *Path) Append(a Access, resp []instance.Tuple) error {
	if _, ok := p.sch.Method(a.Method.Name()); !ok {
		return fmt.Errorf("access: method %s not in schema", a.Method.Name())
	}
	if err := a.WellFormedResponse(resp); err != nil {
		return err
	}
	cp := make([]instance.Tuple, len(resp))
	for i, t := range resp {
		cp[i] = t.Clone()
	}
	p.steps = append(p.steps, Step{Access: a, Response: cp})
	return nil
}

// MustAppend is Append that panics on error.
func (p *Path) MustAppend(a Access, resp ...instance.Tuple) {
	if err := p.Append(a, resp); err != nil {
		panic(err)
	}
}

// AppendBorrowed appends a step without validation and without copying the
// response: the mutate-and-undo fast path of the LTS explorer. The caller
// promises that resp is a well-formed response for a (the explorer draws it
// from the universe's matching tuples, well-formed by construction) and that
// the resp slice stays untouched for as long as the step is on the path —
// the explorer reuses one response buffer per depth, truncating the path
// before rewriting it. Clone deep-copies responses, so a clone taken while a
// borrowed step is live (a solver retaining its witness) is safe.
func (p *Path) AppendBorrowed(a Access, resp []instance.Tuple) {
	p.steps = append(p.steps, Step{Access: a, Response: resp})
}

// Truncate drops every step after the first n: the undo of an append. It
// only releases the path's references; borrowed response buffers are the
// caller's to recycle afterwards.
func (p *Path) Truncate(n int) {
	p.steps = p.steps[:n]
}

// Clone returns a copy sharing no mutable state. Response slices are
// deep-copied (the originals may be explorer-borrowed buffers, see
// AppendBorrowed); the tuples inside are immutable and shared. Bindings are
// copied into one array of the clone's own: the LTS explorer's bindings
// are slices of one array per method and pool, which a retained clone (a
// cached witness) would otherwise keep alive whole.
func (p *Path) Clone() *Path {
	cp := NewPath(p.sch)
	cp.steps = make([]Step, len(p.steps))
	copy(cp.steps, p.steps)
	n := 0
	for _, s := range p.steps {
		n += len(s.Access.Binding)
	}
	vals := make(instance.Tuple, 0, n)
	for i := range cp.steps {
		st := &cp.steps[i]
		if r := st.Response; len(r) > 0 {
			st.Response = append([]instance.Tuple(nil), r...)
		}
		if b := st.Access.Binding; b != nil {
			vals = append(vals, b...)
			st.Access.Binding = vals[len(vals)-len(b) : len(vals) : len(vals)]
		}
	}
	return cp
}

// String renders the path.
func (p *Path) String() string {
	parts := make([]string, len(p.steps))
	for i, s := range p.steps {
		parts[i] = s.String()
	}
	return strings.Join(parts, "; ")
}

// Config returns the configuration after the first n steps applied to the
// initial instance I0: I0 unioned with all tuples returned by any access in
// those steps (Conf(p, I0) in the paper). A nil I0 is the empty instance.
func (p *Path) Config(i0 *instance.Instance, n int) (*instance.Instance, error) {
	if n < 0 || n > len(p.steps) {
		return nil, fmt.Errorf("access: Config prefix %d out of range [0,%d]", n, len(p.steps))
	}
	var conf *instance.Instance
	if i0 != nil {
		conf = i0.Clone()
	} else {
		conf = instance.NewInstance(p.sch)
	}
	for _, s := range p.steps[:n] {
		rel := s.Access.Method.Relation().Name()
		for _, t := range s.Response {
			if _, err := conf.Add(rel, t); err != nil {
				return nil, err
			}
		}
	}
	return conf, nil
}

// FinalConfig returns the configuration after the whole path.
func (p *Path) FinalConfig(i0 *instance.Instance) (*instance.Instance, error) {
	return p.Config(i0, len(p.steps))
}

// Transition is the i-th transition of the LTS path corresponding to an
// access path: the instance before the access, the access, and the instance
// afterwards.
type Transition struct {
	Before *instance.Instance
	Access Access
	After  *instance.Instance
}

// Transitions materializes the LTS transitions (I_i, (AcM_i, b_i), I_{i+1})
// of the path over initial instance i0.
func (p *Path) Transitions(i0 *instance.Instance) ([]Transition, error) {
	out := make([]Transition, 0, len(p.steps))
	cur, err := p.Config(i0, 0)
	if err != nil {
		return nil, err
	}
	for _, s := range p.steps {
		next := cur.Clone()
		rel := s.Access.Method.Relation().Name()
		for _, t := range s.Response {
			if _, err := next.Add(rel, t); err != nil {
				return nil, err
			}
		}
		out = append(out, Transition{Before: cur, Access: s.Access, After: next})
		cur = next
	}
	return out, nil
}

// IsGrounded reports whether the path is grounded in i0: every value in a
// binding occurs either in i0 or in an earlier response (Section 2). A nil
// i0 is the empty instance.
func (p *Path) IsGrounded(i0 *instance.Instance) bool {
	known := make(map[instance.Value]bool)
	if i0 != nil {
		for _, v := range i0.ActiveDomain() {
			known[v] = true
		}
	}
	for _, s := range p.steps {
		for _, v := range s.Access.Binding {
			if !known[v] {
				return false
			}
		}
		for _, t := range s.Response {
			for _, v := range t {
				known[v] = true
			}
		}
	}
	return true
}

// IsIdempotent reports whether repeated identical accesses always return
// identical responses within the path.
func (p *Path) IsIdempotent() bool {
	seen := make(map[string]string) // access key -> response fingerprint
	for _, s := range p.steps {
		fp := ResponseFingerprint(s.Response)
		if prev, ok := seen[s.Access.Key()]; ok {
			if prev != fp {
				return false
			}
			continue
		}
		seen[s.Access.Key()] = fp
	}
	return true
}

// IsExactFor reports whether the path is exact for the given instance I and
// method set: each access whose method is in methods (nil = all methods)
// returns exactly the matching tuples of I.
func (p *Path) IsExactFor(i *instance.Instance, methods map[string]bool) bool {
	for _, s := range p.steps {
		if methods != nil && !methods[s.Access.Method.Name()] {
			continue
		}
		want := i.Matching(s.Access.Method, s.Access.Binding)
		if ResponseFingerprint(want) != ResponseFingerprint(s.Response) {
			return false
		}
	}
	return true
}

// IsExact reports whether the path is exact for *some* instance on the
// given methods (nil = all): it checks exactness against the minimal
// candidate — the final configuration — which works because responses only
// ever add tuples. The subtlety is that a response must also be *complete*
// for every instance ⊇ Conf(p): an earlier access must have returned every
// tuple that a later response (or the final config) reveals as matching.
func (p *Path) IsExact(i0 *instance.Instance, methods map[string]bool) (bool, error) {
	final, err := p.FinalConfig(i0)
	if err != nil {
		return false, err
	}
	return p.IsExactFor(final, methods), nil
}

// ResponseFingerprint returns an order-insensitive canonical fingerprint of
// a response set: the shared identity used by idempotence and exactness
// checks here and by the LTS explorer (package lts), so the format has a
// single definition.
func ResponseFingerprint(resp []instance.Tuple) string {
	keys := make([]string, len(resp))
	for i, t := range resp {
		keys[i] = t.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x1f")
}

// NecessaryAt reports whether the i-th access of the path is necessary:
// whether it returns at least one tuple not present in the configuration
// before it (terminology from the proof of Lemma 4.13).
func (p *Path) NecessaryAt(i0 *instance.Instance, i int) (bool, error) {
	if i < 0 || i >= len(p.steps) {
		return false, fmt.Errorf("access: NecessaryAt index %d out of range", i)
	}
	before, err := p.Config(i0, i)
	if err != nil {
		return false, err
	}
	rel := p.steps[i].Access.Method.Relation().Name()
	for _, t := range p.steps[i].Response {
		if !before.Has(rel, t) {
			return true, nil
		}
	}
	return false, nil
}
